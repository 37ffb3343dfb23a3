// File datapath with two interchangeable backends producing
// bit-identical results:
//
//   uring   io_uring (aio/ring.h): chunked reads/writes pipelined at
//           ring depth, registered (pinned) buffers when the caller
//           supplies them
//   stdio   plain POSIX pread/pwrite bounded loops — the portable
//           fallback, and the reference the uring path is differential-
//           tested against
//
// Selection: DIALGA_AIO=uring|stdio|auto (default auto) or an explicit
// Mode from the caller (eccli --aio). `auto` probes the kernel once
// and degrades cleanly to stdio; a *forced* uring on an io_uring-less
// kernel also degrades (with a one-time stderr warning) rather than
// failing — mirroring the --isa clamp behaviour.
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
// store passes shard.open/shard.read/shard.short_read/shard.write so
// existing chaos schedules keep working on both backends); the ring
// adds aio.submit / aio.cqe underneath the uring backend.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aio/ring.h"

namespace aio {

enum class Mode { kAuto, kStdio, kUring };
enum class Backend { kStdio, kUring };

std::optional<Mode> ParseMode(std::string_view s);
const char* ModeName(Mode m);
/// DIALGA_AIO, parsed once per call; unset or unparseable → kAuto
/// (unparseable warns on stderr).
Mode ModeFromEnv();
Backend SelectBackend(Mode m);
const char* BackendName(Backend b);

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
/// defense-in-depth drill for verify-on-read. The uring backend
/// additionally consults the built-in aio.cqe.corrupt site per read
/// completion, mutating that completion's bytes.
struct FaultSites {
  const char* open = nullptr;
  const char* read = nullptr;
  const char* short_read = nullptr;
  const char* write = nullptr;
  const char* corrupt = nullptr;
};

/// Per-operation context: the chosen backend plus (for uring) one ring
/// and the caller's registrable buffers. Creating the ring is lazy —
/// a Transfer on the stdio backend costs nothing — and a ring-creation
/// failure degrades this transfer to stdio instead of failing it.
/// Not thread-safe; one Transfer per operation.
class Transfer {
 public:
  explicit Transfer(Backend backend, std::span<const iovec> registered = {});

  /// Effective backend (may have degraded to stdio since construction).
  Backend backend() const { return backend_; }
  /// The ring, created (and buffers registered) on first use; nullptr
  /// on the stdio backend.
  Ring* ring();
  /// Registered-buffer index containing [p, p+len), or -1.
  int buf_index_for(const void* p, std::size_t len) const;

 private:
  Backend backend_;
  std::vector<iovec> registered_;
  std::unique_ptr<Ring> ring_;
  bool ring_tried_ = false;
};

/// Read a whole file: open → fstat → bounded read loop. Replaces the
/// tellg-then-read sizing (which raced resizes and reported stale
/// errno). Always the plain syscall path — manifests and other small
/// files don't need a ring.
IoStatus ReadFileFull(const std::filesystem::path& path,
                      std::vector<std::byte>* out,
                      const FaultSites& sites = {});

/// File size by stat(2), no open. err on failure.
IoStatus StatSize(const std::filesystem::path& path, std::uint64_t* size);

/// Read a file whose size must equal dst.size() exactly (shard files
/// have a manifest-known size; any mismatch is damage, reported as an
/// explicit error, not a resized buffer).
IoStatus ReadFileExact(Transfer& xfer, const std::filesystem::path& path,
                       std::span<std::byte> dst,
                       const FaultSites& sites = {});

/// Scatter-read `segs` of one file into caller buffers. on_segment(i)
/// fires as each segment's last byte lands — the hook the shard store
/// uses to overlap encode dispatch with the remaining reads. A file
/// shorter than any segment requires is a short-read error.
IoStatus ReadScatter(Transfer& xfer, const std::filesystem::path& path,
                     std::span<const Seg> segs, const FaultSites& sites = {},
                     const std::function<void(std::size_t)>& on_segment = {});

/// One file of a durable group: its final path and its content as a
/// seg list (file length = max(offset+len); uncovered ranges are
/// zero). Zero-copy from the caller's (registered) buffers.
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
IoStatus WriteFilesDurable(Transfer& xfer, std::span<const DurableFile> files,
                           const FaultSites& sites = {},
                           bool sync_parent = true,
                           std::size_t* failed = nullptr,
                           std::vector<std::filesystem::path>* spares =
                               nullptr);

/// Durable whole-file write: WriteFilesDurable of this one file. On any
/// failure the temp file is removed and `path` is untouched.
IoStatus WriteFileDurable(Transfer& xfer, const std::filesystem::path& path,
                          std::span<const std::byte> data,
                          const FaultSites& sites = {},
                          bool sync_parent = true);

/// Durable gather-write: WriteFilesDurable of one file whose content
/// is the seg list.
IoStatus WriteGatherDurable(Transfer& xfer,
                            const std::filesystem::path& path,
                            std::span<const Seg> segs,
                            const FaultSites& sites = {},
                            bool sync_parent = true);

/// create_directories(dir), then fsync the parent of every level it
/// created, so a new directory's entry survives a crash. A directory
/// that already exists costs no fsync.
IoStatus CreateDirectoriesDurable(const std::filesystem::path& dir);

}  // namespace aio
