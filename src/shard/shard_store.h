// File-level erasure-coded shard store: split a file into k data
// shards plus m parity shards with per-stripe checksums, detect damage,
// and repair it — the complete downstream use of the codec library
// (what Ceph's ISA-L erasure-code plugin does for objects, as a small
// self-contained library + the `eccli` command-line tool).
//
// On-disk layout inside a shard directory:
//   manifest.txt     human-readable header (format, k, m, block, size,
//                    checksum algorithm id, per-shard checksums, and a
//                    trailing self-checksum line)
//   shard_000 .. shard_{k+m-1}
// Each shard holds its blocks of every stripe back to back; the file is
// zero-padded to a whole number of stripes.
//
// Checksums are CRC-32C (hardware-dispatched, integrity/checksum.h).
// Every manifest records `algo crc32c` and ends with a `manifestsum`
// line covering every preceding byte, so a bit-flipped or truncated
// manifest is a parse failure, never a silently-zero checksum table.
// A manifest without both lines, or naming any other algorithm, fails
// closed: it does not parse, and eccli reports it as corrupt or
// unsupported.
//
// A generation reaches disk in one flush round: the k+m shards commit
// as one group (aio::WriteFilesDurable — every shard temp is fsynced
// before the first publish), then the manifest, whose write fsyncs the
// directory.
//
// A store keeps the shard buffers of its last finished file call and
// hands them, as they are, to the next call with the same shard count
// and size, so a long-lived store maps and faults its k+m shard
// buffers once. An idle store therefore holds k+m x shard bytes until
// it is destroyed. File calls may run concurrently on one store; a
// call that finds the spare set taken allocates its own.
//
// A store also keeps the shard files its last re-encode replaced, as
// temp-named files (`shard_NNN.tmp-*`) beside the generation. The next
// encode into the same directory overwrites them as its temps and
// publishes each with RENAME_EXCHANGE, so a steady re-encode frees and
// allocates no blocks or pages; the replaced generation becomes the
// next spare set. An encode into another directory deletes the set,
// and so does the destructor, so a store holds at most one replaced
// generation on disk, as it holds one buffer set in memory. An encode
// that finds the set taken by a concurrent one renames over the old
// shards and keeps nothing. A reader that still holds a shard open two
// re-encodes later sees its bytes overwritten; a shard file with another
// name (a hard-linked backup of the directory) is never overwritten. A
// process that dies without destroying its store leaves the set behind
// under its temp names.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aio/datapath.h"
#include "ec/codec.h"
#include "svc/retry.h"

namespace pmpool {
class Arena;
}
namespace svc {
class StripeService;
struct Result;
}

namespace shard {

/// Outcome of a file-level operation. Distinguishes filesystem
/// failures (errno + offending path — retryable, environmental) from
/// data damage beyond what RS(k, m) can repair (the shards themselves
/// are lost) and from exhausted time/retry budgets on the service
/// path; eccli maps each to a distinct exit code.
struct Status {
  enum class Kind {
    kOk = 0,
    kIoError,  ///< read/write/open failure; `error` holds errno
    kDamaged,  ///< more shards lost than parity can reconstruct
    kDeadlineExceeded,  ///< a stripe's service deadline expired
    kRetryExhausted,    ///< rejected even after the retry budget
  };

  Kind kind = Kind::kOk;
  int error = 0;               ///< errno at the failure point (kIoError)
  std::filesystem::path path;  ///< offending file or directory
  std::string detail;          ///< short phrase ("unreadable input", ...)

  bool ok() const { return kind == Kind::kOk; }
  explicit operator bool() const { return ok(); }

  /// One printable line: detail, path, and strerror(error) if any.
  std::string message() const;

  static Status Ok() { return {}; }
  static Status Io(int err, std::filesystem::path p, std::string what) {
    return {Kind::kIoError, err, std::move(p), std::move(what)};
  }
  static Status Damaged(std::filesystem::path p, std::string what) {
    return {Kind::kDamaged, 0, std::move(p), std::move(what)};
  }
  static Status Deadline(std::string what) {
    return {Kind::kDeadlineExceeded, 0, {}, std::move(what)};
  }
  static Status Exhausted(std::string what) {
    return {Kind::kRetryExhausted, 0, {}, std::move(what)};
  }
};

struct Manifest {
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t block_size = 0;
  std::uint64_t file_size = 0;  ///< original (unpadded) byte count
  /// CRC-32C per shard, zero-extended; k + m entries.
  std::vector<std::uint64_t> shard_checksums;

  std::size_t stripes() const;
  std::size_t shard_bytes() const { return stripes() * block_size; }

  std::string serialize() const;
  static std::optional<Manifest> parse(const std::string& text);
};

/// Per-shard verification outcome (verify-on-read vocabulary).
enum class ShardState : std::uint8_t {
  kIntact = 0,
  kMissing,  ///< unreadable / missing / wrong size
  kCorrupt,  ///< read fine but the checksum disagrees with the manifest
};

struct RepairReport {
  std::vector<std::size_t> damaged;   ///< shard indices found bad
  std::vector<std::size_t> corrupt;   ///< subset present but checksum-bad
  std::vector<std::size_t> repaired;  ///< subset successfully rebuilt
  /// Why reconstruction stopped early, when it did (deadline expiry or
  /// retry exhaustion on the service path); kOk otherwise.
  Status status = Status::Ok();
  bool ok() const { return damaged.size() == repaired.size(); }
};

/// verify_detailed() outcome: per-shard states plus the damaged list
/// verify() would have returned.
struct VerifyReport {
  bool manifest_ok = false;
  std::vector<ShardState> states;      ///< k + m entries when manifest_ok
  std::vector<std::size_t> damaged;    ///< indices not kIntact
  std::vector<std::size_t> corrupt;    ///< indices kCorrupt
  bool clean() const { return manifest_ok && damaged.empty(); }
};

/// How the store uses an attached StripeService when the environment
/// misbehaves: the per-stripe deadline handed to the service, the
/// bounded backoff-retry budget for retryable outcomes (admission
/// rejections; transient read errno EINTR/EAGAIN on file I/O), and
/// whether exhausting that budget falls back to the serial codec path
/// (the default — routing sheds load, never fails) or surfaces
/// kRetryExhausted so callers with strict latency contracts see it.
/// Deadline expiry never falls back: the time budget is already spent.
struct ServicePolicy {
  std::chrono::milliseconds deadline{0};  ///< per-stripe; 0 = none
  svc::RetryPolicy retry;                 ///< rejected-submit backoff
  bool serial_fallback = true;
};

class ShardStore {
 public:
  /// `codec` must outlive the store; its (k, m) defines the layout.
  ShardStore(const ec::Codec& codec, std::size_t block_size = 4096);
  ~ShardStore();

  /// Route per-stripe encode/decode work through an embeddable stripe
  /// service (svc/stripe_service.h): stripes are submitted as batched
  /// requests and run on the service's work-stealing pool. The service
  /// must outlive the store. Requests the service rejects under
  /// backpressure fall back to the serial codec path, so routing never
  /// fails an otherwise-healthy operation. Pass nullptr to go back to
  /// serial encoding.
  void use_service(svc::StripeService* service) { service_ = service; }

  /// Deadline/retry behaviour of the service path (and the transient-
  /// errno retry of file reads). Default: no deadline, no retries,
  /// serial fallback on rejection — the pre-policy behaviour.
  void set_service_policy(const ServicePolicy& policy) { policy_ = policy; }
  const ServicePolicy& service_policy() const { return policy_; }

  /// Which file-I/O backend moves shard bytes (aio/datapath.h):
  /// kUring drives the io_uring ring with registered arena buffers,
  /// kStdio uses plain pread/pwrite, kAuto (the default, also read
  /// from DIALGA_AIO at construction) probes the kernel and falls back
  /// to stdio when io_uring is unavailable.
  void set_aio_mode(aio::Mode mode) { aio_mode_ = mode; }
  aio::Mode aio_mode() const { return aio_mode_; }

  /// Verify-on-read: every load checks shard checksums against the
  /// manifest and treats mismatches as damage (the default). Turning
  /// it off skips the checksum pass — the `bench_svc_throughput
  /// --integrity` gate measures exactly this delta; production paths
  /// should leave it on.
  void set_verify_on_read(bool on) { verify_on_read_ = on; }
  bool verify_on_read() const { return verify_on_read_; }

  /// Read-repair: decode_file rewrites shards it had to reconstruct
  /// (durably, temp→fsync→rename) when the rebuilt bytes match the
  /// manifest checksum, so a read heals the generation in place.
  void set_read_repair(bool on) { read_repair_ = on; }
  bool read_repair() const { return read_repair_; }

  /// Encode `input` into `dir` (created if needed, with every level
  /// it creates fsynced into its parent). kIoError with errno + path
  /// on filesystem failure; a failure before the shard publishes leaves
  /// no file of the new generation in `dir`. A geometry
  /// Manifest::parse rejects (k, m or block of 0, a block over 1 GiB,
  /// k + m over 4096) is kIoError EINVAL before anything is read or
  /// written.
  Status encode_file(const std::filesystem::path& input,
                     const std::filesystem::path& dir) const;

  /// Verify all shard checksums against the manifest.
  /// Returns the indices of damaged or missing shards.
  std::vector<std::size_t> verify(const std::filesystem::path& dir) const;

  /// verify() with per-shard states (missing vs present-but-corrupt) —
  /// what `eccli verify --heal` reports on.
  VerifyReport verify_detailed(const std::filesystem::path& dir) const;

  /// Rebuild damaged/missing shards from the survivors (up to m).
  RepairReport repair(const std::filesystem::path& dir) const;

  /// Reassemble the original file from the (data) shards. Repairs
  /// damaged shards in memory if needed. kDamaged when the loss
  /// exceeds parity; kIoError on filesystem failure.
  Status decode_file(const std::filesystem::path& dir,
                     const std::filesystem::path& output) const;

 private:
  /// One file call's k+m shard buffers, drawn from `spare_` when it
  /// fits (shard_store.cc).
  class Buffers;
  /// One encode's hold on `spare_files_` (shard_store.cc).
  class SpareFiles;

  std::optional<Manifest> load_manifest(
      const std::filesystem::path& dir) const;
  /// Read every shard into its preallocated span; unreadable or
  /// checksum-failing shards are zero-filled and flagged in `damaged`.
  /// `states` (optional) records each shard's ShardState.
  void load_shards(aio::Transfer& xfer, const std::filesystem::path& dir,
                   const Manifest& mf,
                   const std::vector<std::span<std::byte>>& shards,
                   std::vector<std::size_t>* damaged,
                   std::vector<ShardState>* states = nullptr) const;
  /// Read a file with the policy's transient-errno retry (EINTR /
  /// EAGAIN back off and re-read; anything else fails immediately).
  bool read_file_retrying(const std::filesystem::path& path,
                          std::vector<std::byte>* out, int* err,
                          std::string* detail) const;
  /// Classify a failed read: kRetryExhausted when a transient errno
  /// outlasted a nonzero retry budget, plain kIoError otherwise.
  Status read_failure(int err, std::filesystem::path path,
                      std::string detail) const;
  /// Compute every stripe's parity into the parity shards — through
  /// the service when one is attached, serially otherwise. Non-kOk
  /// only for exhausted deadline/retry budgets (see ServicePolicy).
  /// `pre`, when non-null, holds futures for stripes already dispatched
  /// by the caller (overlapped with the scatter read); entries without
  /// a valid future are submitted here.
  Status encode_stripes(const Manifest& mf,
                        const std::vector<std::span<std::byte>>& shards,
                        std::vector<std::future<svc::Result>>* pre) const;
  /// Reconstruct `erasures` of every stripe in place. kDamaged if any
  /// stripe is unrecoverable; kDeadlineExceeded / kRetryExhausted per
  /// the policy.
  Status decode_stripes(const Manifest& mf,
                        const std::vector<std::span<std::byte>>& shards,
                        const std::vector<std::size_t>& erasures) const;

  const ec::Codec& codec_;
  std::size_t block_size_;
  svc::StripeService* service_ = nullptr;
  ServicePolicy policy_;
  aio::Mode aio_mode_ = aio::ModeFromEnv();
  bool verify_on_read_ = true;
  bool read_repair_ = true;
  /// The shard buffers of the last finished file call, or null.
  mutable std::mutex spare_mu_;
  mutable std::unique_ptr<pmpool::Arena> spare_;
  /// The shard files the last recycled commit replaced, one path per
  /// shard (empty where none came back), all in `spare_dir_`; an encode
  /// holding them sets `spare_files_taken_`. Guarded by spare_mu_.
  mutable std::filesystem::path spare_dir_;
  mutable std::vector<std::filesystem::path> spare_files_;
  mutable bool spare_files_taken_ = false;
};

}  // namespace shard
