// File datapath: every shard, manifest, chunk and output file moves
// through plain POSIX pread/pwrite bounded loops on buffered
// page-cache I/O. Nothing opens a file O_DIRECT, so there is no copy
// for a submission ring or pinned buffers to save.
//
// Correctness contract (the bugfixes this layer bakes in):
//   * reads size with fstat and loop until the byte count is satisfied
//     — a file that shrinks mid-read is an explicit short-read error,
//     never a silently mis-sized buffer, and errno comes from the
//     failing syscall, not a stale iostream guess;
//   * durable writes go temp file → fsync → rename → (optionally)
//     fsync parent directory, so a crash leaves the old file or the
//     new file, never a torn one. A group of files commits in one
//     flush round (WriteFilesDurable): every temp is written and fsynced
//     before the first rename. A caller that re-commits one group of
//     paths can pass the files its last commit replaced: they are
//     overwritten as the temps and published with RENAME_EXCHANGE, so
//     no generation's blocks and pages are freed and reallocated.
//
// Fault injection: callers name their sites via FaultSites (the shard
// store passes shard.open/shard.read/shard.short_read/shard.write and
// shard.read.corrupt).
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace aio {

/// Outcome of one datapath operation. err is a real errno from the
/// failing syscall (or the injected one); detail says which step.
struct IoStatus {
  int err = 0;
  std::string detail;
  bool ok() const { return err == 0; }
  static IoStatus Ok() { return {}; }
  static IoStatus Error(int e, std::string d) {
    return {e == 0 ? EIO : e, std::move(d)};
  }
};

/// One scatter/gather segment: file range [offset, offset+len) maps to
/// the caller buffer at `buf`.
struct Seg {
  std::byte* buf = nullptr;
  std::size_t len = 0;
  std::uint64_t offset = 0;
};

/// Caller-named fault-injection sites (nullptr = site not consulted).
/// `corrupt` is a corruption-mode site (corrupt= plans): consulted once
/// per successful ReadFileExact, it mutates the returned payload — the
/// defense-in-depth drill for verify-on-read.
struct FaultSites {
  const char* open = nullptr;
  const char* read = nullptr;
  const char* short_read = nullptr;
  const char* write = nullptr;
  const char* corrupt = nullptr;
};

/// Read a whole file: open → fstat → bounded read loop. Replaces the
/// tellg-then-read sizing (which raced resizes and reported stale
/// errno).
IoStatus ReadFileFull(const std::filesystem::path& path,
                      std::vector<std::byte>* out,
                      const FaultSites& sites = {});

/// File size by stat(2), no open. err on failure.
IoStatus StatSize(const std::filesystem::path& path, std::uint64_t* size);

/// Read a file whose size must equal dst.size() exactly (shard files
/// have a manifest-known size; any mismatch is damage, reported as an
/// explicit error, not a resized buffer).
IoStatus ReadFileExact(const std::filesystem::path& path,
                       std::span<std::byte> dst,
                       const FaultSites& sites = {});

/// Scatter-read `segs` of one file into caller buffers, in seg order.
/// on_segment(i) fires as each segment's last byte lands — the hook the
/// shard store uses to overlap encode dispatch with the remaining
/// reads. A file shorter than any segment requires is a short-read
/// error.
IoStatus ReadScatter(const std::filesystem::path& path,
                     std::span<const Seg> segs, const FaultSites& sites = {},
                     const std::function<void(std::size_t)>& on_segment = {});

/// One file of a durable group: its final path and its content as a
/// seg list (file length = max(offset+len); uncovered ranges are
/// zero), written straight from the caller's buffers.
struct DurableFile {
  std::filesystem::path path;
  std::span<const Seg> segs;
};

/// Group commit, in file order:
///   1. each file: create a temp beside it (O_EXCL; a name left by an
///      earlier process with this pid is skipped), write it, start
///      its write-back (sync_file_range, a hint whose error is
///      ignored), consult sites.write, close it;
///   2. reopen and fsync every temp;
///   3. rename every temp into place;
///   4. when sync_parent, fsync each parent directory once.
/// At most one descriptor per group is open at a time, so a group may
/// hold more files than the descriptor limit.
/// A failed create, write or fsync (or a fired write site) unlinks
/// every temp of the group: no target changes. A failed rename keeps
/// the files renamed before it and unlinks the temps after it.
/// `*failed`, when given, receives the index of the file whose step
/// failed.
///
/// `spares`, when given, recycles the files an earlier group replaced
/// instead of freeing them. On entry, (*spares)[i] names file i's spare
/// (an empty path or a short list: none). A spare that is still a
/// regular file with no other name is overwritten in place as file i's
/// temp, provided the segs cover the whole file (else a fresh temp keeps
/// uncovered ranges zero); a spare not reused is unlinked, so a hard
/// link to it elsewhere keeps its bytes. Step 3 then trades each temp
/// with a regular-file target in one renameat2(RENAME_EXCHANGE), so the
/// temp path holds the replaced file; a missing target, or a
/// filesystem without the exchange, takes the plain rename, and a
/// non-regular target fails it as without spares. On success *spares
/// holds, per file, the temp path now holding the file it replaced
/// (empty where nothing was replaced): the next group's spares. On
/// failure *spares is empty and every spare, temp and replaced file is
/// unlinked, files published before a failed step 3 staying in place.
IoStatus WriteFilesDurable(std::span<const DurableFile> files,
                           const FaultSites& sites = {},
                           bool sync_parent = true,
                           std::size_t* failed = nullptr,
                           std::vector<std::filesystem::path>* spares =
                               nullptr);

/// Durable whole-file write: WriteFilesDurable of this one file. On any
/// failure the temp file is removed and `path` is untouched.
IoStatus WriteFileDurable(const std::filesystem::path& path,
                          std::span<const std::byte> data,
                          const FaultSites& sites = {},
                          bool sync_parent = true);

/// Durable gather-write: WriteFilesDurable of one file whose content
/// is the seg list.
IoStatus WriteGatherDurable(const std::filesystem::path& path,
                            std::span<const Seg> segs,
                            const FaultSites& sites = {},
                            bool sync_parent = true);

/// create_directories(dir), then fsync the parent of every level it
/// created, so a new directory's entry survives a crash. A directory
/// that already exists costs no fsync.
IoStatus CreateDirectoriesDurable(const std::filesystem::path& dir);

// ---------------------------------------------------------------------------
// Compatibility block, kept only for dialga_bench/, which a library
// change does not edit: the benchmark records the backend's name and
// calls the durable write and the exact read through a Transfer. There
// is one backend, so these names select nothing. No other code may use
// them; they go once the benchmark stops calling them (ROADMAP item 1).
enum class Mode { kStdio };
enum class Backend { kStdio };
inline Mode ModeFromEnv() { return Mode::kStdio; }
inline Backend SelectBackend(Mode) { return Backend::kStdio; }
inline const char* BackendName(Backend) { return "stdio"; }
class Transfer {
 public:
  explicit Transfer(Backend) {}
};
inline IoStatus WriteFileDurable(Transfer&, const std::filesystem::path& path,
                                 std::span<const std::byte> data) {
  return WriteFileDurable(path, data);
}
inline IoStatus ReadFileExact(Transfer&, const std::filesystem::path& path,
                              std::span<std::byte> dst) {
  return ReadFileExact(path, dst);
}
// End of the compatibility block.

}  // namespace aio
