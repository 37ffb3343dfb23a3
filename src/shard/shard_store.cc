#include "shard/shard_store.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <sstream>
#include <thread>

#include "aio/datapath.h"
#include "fault/injector.h"
#include "integrity/checksum.h"
#include "obs/metrics.h"
#include "pmpool/arena.h"
#include "svc/stripe_service.h"

namespace shard {

namespace fs = std::filesystem;

namespace {

/// Registry mirror of the store's resilience activity: how often reads
/// retried, how often stripes were resubmitted or fell back to the
/// serial codec, and the terminal deadline/exhaustion outcomes.
struct ShardMetrics {
  obs::Counter& read_retries;
  obs::Counter& service_resubmits;
  obs::Counter& serial_fallbacks;
  obs::Counter& deadline_exceeded;
  obs::Counter& retry_exhausted;

  static ShardMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static ShardMetrics m{
        reg.counter("dialga_shard_read_retries_total", {},
                    "Transient-errno shard reads retried after backoff"),
        reg.counter("dialga_shard_service_resubmits_total", {},
                    "Stripes resubmitted after a service rejection"),
        reg.counter("dialga_shard_serial_fallbacks_total", {},
                    "Stripes run on the serial codec after the service "
                    "path failed"),
        reg.counter("dialga_shard_deadline_exceeded_total", {},
                    "Stripe operations abandoned on a service deadline"),
        reg.counter("dialga_shard_retry_exhausted_total", {},
                    "Operations that ran out of retry budget"),
    };
    return m;
  }
};

/// Geometry bounds of a manifest. parse() rejects anything outside
/// them, so encode_file() refuses to write a generation beyond them.
constexpr std::size_t kMaxShards = 4096;                 // k + m
constexpr std::size_t kMaxBlock = std::size_t{1} << 30;  // 1 GiB

}  // namespace

std::string Status::message() const {
  std::string msg = detail.empty() ? std::string("ok") : detail;
  if (!path.empty()) {
    msg += ": ";
    msg += path.string();
  }
  if (error != 0) {
    msg += ": ";
    msg += std::strerror(error);
  }
  return msg;
}

std::size_t Manifest::stripes() const {
  const std::uint64_t stripe_bytes =
      static_cast<std::uint64_t>(k) * block_size;
  if (stripe_bytes == 0) return 0;
  // An empty file still occupies one all-padding stripe: encode writes
  // that stripe out, so readers sizing buffers from shard_bytes() must
  // see the same clamp or every shard of an empty generation reads back
  // as a size mismatch.
  return std::max<std::size_t>(
      1, static_cast<std::size_t>((file_size + stripe_bytes - 1) /
                                  stripe_bytes));
}

std::string Manifest::serialize() const {
  std::ostringstream os;
  os << "dialga-shard-v1\n"
     << "k " << k << "\n"
     << "m " << m << "\n"
     << "block " << block_size << "\n"
     << "size " << file_size << "\n"
     << "algo crc32c\n";
  for (std::size_t i = 0; i < shard_checksums.size(); ++i) {
    os << "shard " << i << " " << shard_checksums[i] << "\n";
  }
  // Self-checksum over every preceding byte: a flipped bit anywhere
  // above — including inside a checksum value — or a truncated tail
  // fails parse() instead of feeding the verifier a wrong table.
  const std::string body = os.str();
  os << "manifestsum " << integrity::Crc32c(body.data(), body.size())
     << "\n";
  return os.str();
}

std::optional<Manifest> Manifest::parse(const std::string& text) {
  // The manifest comes off disk and may be truncated or hostile, so
  // every field is bounded before it sizes an allocation or feeds the
  // stripe arithmetic: geometry must precede the checksum table, shard
  // indices never grow the vector, and k * block_size cannot wrap to
  // zero (the stripes() divisor).
  constexpr std::uint64_t kMaxFile = std::uint64_t{1} << 50;  // 1 PiB

  // The self-checksum covers an exact byte prefix, so it is checked
  // byte-wise before any token is read: the terminal manifestsum line
  // must be present and match the CRC-32C of everything before it. A
  // missing sum line (truncation, or a generation that never wrote
  // one) and any mismatch (bit flips, including inside the checksum
  // table itself) are rejected.
  const std::size_t spos = text.rfind("\nmanifestsum ");
  if (spos == std::string::npos) return std::nullopt;
  const std::size_t line_start = spos + 1;
  const std::size_t vstart = line_start + 12;  // "manifestsum "
  const std::size_t eol = text.find('\n', vstart);
  // The sum line must be terminal AND newline-complete: trailing bytes
  // would escape the sum, and a missing newline means the tail was cut
  // — a 1-byte truncation is still a truncation.
  if (eol == std::string::npos || eol + 1 != text.size() || vstart >= eol) {
    return std::nullopt;
  }
  const std::string val = text.substr(vstart, eol - vstart);
  char* endp = nullptr;
  const unsigned long long want = std::strtoull(val.c_str(), &endp, 10);
  if (endp == nullptr || *endp != '\0') return std::nullopt;
  if (integrity::Crc32c(text.data(), line_start) != want) return std::nullopt;
  const std::string body = text.substr(0, line_start);

  std::istringstream is(body);
  std::string line;
  if (!std::getline(is, line) || line != "dialga-shard-v1") return std::nullopt;
  Manifest mf;
  bool saw_algo = false;
  std::vector<bool> seen;
  std::string key;
  while (is >> key) {
    if (key == "algo") {
      // CRC-32C is the only algorithm; any other name is a generation
      // this code never wrote and cannot verify.
      std::string name;
      if (saw_algo || !(is >> name) || name != "crc32c") {
        return std::nullopt;
      }
      saw_algo = true;
    } else if (key == "k") {
      if (!(is >> mf.k) || mf.k == 0 || mf.k > kMaxShards) return std::nullopt;
    } else if (key == "m") {
      if (!(is >> mf.m) || mf.m == 0 || mf.m > kMaxShards) return std::nullopt;
    } else if (key == "block") {
      if (!(is >> mf.block_size) || mf.block_size == 0 ||
          mf.block_size > kMaxBlock) {
        return std::nullopt;
      }
    } else if (key == "size") {
      if (!(is >> mf.file_size) || mf.file_size > kMaxFile) {
        return std::nullopt;
      }
    } else if (key == "shard") {
      if (mf.k == 0 || mf.m == 0 || mf.k + mf.m > kMaxShards) {
        return std::nullopt;  // geometry must precede the table
      }
      if (seen.empty()) {
        seen.assign(mf.k + mf.m, false);
        mf.shard_checksums.assign(mf.k + mf.m, 0);
      }
      std::size_t idx = 0;
      std::uint64_t sum = 0;
      if (!(is >> idx >> sum) || idx >= seen.size() || seen[idx]) {
        return std::nullopt;
      }
      seen[idx] = true;
      mf.shard_checksums[idx] = sum;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_algo || mf.k == 0 || mf.m == 0 || mf.block_size == 0) {
    return std::nullopt;
  }
  if (mf.k + mf.m > kMaxShards) return std::nullopt;
  // The table must match the final geometry exactly: one checksum per
  // shard, none missing, none duplicated (duplicates already rejected).
  if (seen.size() != mf.k + mf.m) return std::nullopt;
  if (!std::all_of(seen.begin(), seen.end(), [](bool b) { return b; })) {
    return std::nullopt;
  }
  return mf;
}

namespace {

fs::path ShardPath(const fs::path& dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%03zu", index);
  return dir / name;
}

/// The shard store's fault-site names, handed to the datapath so the
/// same chaos schedules exercise both backends (aio/datapath.h). The
/// corruption site fires once per successful whole-shard read
/// (ReadFileExact), identically on stdio and uring.
constexpr aio::FaultSites kShardSites{
    "shard.open", "shard.read", "shard.short_read", "shard.write",
    "shard.read.corrupt"};

/// Run `op`, retrying transient errnos (EINTR/EAGAIN) with the
/// policy's jittered backoff — but never sleeping past the policy
/// deadline. Without the clamp a generous backoff schedule could keep
/// an operation in bed long after its time budget expired (base_delay
/// 20ms doubling for 50 retries ≈ forever against a 50ms deadline);
/// here each sleep is truncated to the remaining budget and expiry
/// returns the last error immediately.
aio::IoStatus RetryTransient(const ServicePolicy& policy,
                             const std::function<aio::IoStatus()>& op) {
  using clock = std::chrono::steady_clock;
  const bool bounded = policy.deadline.count() > 0;
  const clock::time_point deadline =
      bounded ? clock::now() + policy.deadline : clock::time_point::max();
  aio::IoStatus st;
  for (std::size_t attempt = 0;; ++attempt) {
    st = op();
    if (st.ok()) return st;
    // Only genuinely transient errnos are worth the backoff; a missing
    // file or a short read will not heal by waiting.
    const bool transient = st.err == EINTR || st.err == EAGAIN;
    if (!transient || attempt >= policy.retry.max_retries) return st;
    auto delay = std::chrono::duration_cast<std::chrono::microseconds>(
        policy.retry.delay(attempt));
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(deadline -
                                                                clock::now());
      if (remaining <= std::chrono::microseconds::zero()) {
        st.detail += " (deadline expired during retry backoff)";
        return st;
      }
      delay = std::min(delay, remaining);
    }
    ShardMetrics::Get().read_retries.inc();
    std::this_thread::sleep_for(delay);
  }
}

}  // namespace

ShardStore::ShardStore(const ec::Codec& codec, std::size_t block_size)
    : codec_(codec), block_size_(block_size) {}

namespace {

void UnlinkSpares(const std::vector<fs::path>& spares) {
  for (const fs::path& p : spares) {
    if (!p.empty()) ::unlink(p.c_str());
  }
}

}  // namespace

ShardStore::~ShardStore() { UnlinkSpares(spare_files_); }

/// Takes the store's spare set when it holds `count` slabs of `bytes`
/// (Arena::recycle hands them out holding the last call's bytes, so a
/// caller writes or zeroes every byte it uses) and allocates a fresh,
/// zeroed set otherwise. The set becomes the store's spare when the
/// call ends. Declare it before the call's Transfer, whose ring pins
/// the slabs, and before any future that still writes into them.
class ShardStore::Buffers {
 public:
  Buffers(const ShardStore& store, std::size_t count, std::size_t bytes)
      : store_(store) {
    {
      const std::lock_guard lock(store.spare_mu_);
      arena_ = std::move(store.spare_);
    }
    if (arena_ != nullptr && arena_->holds(count, bytes)) {
      shards = arena_->recycle(bytes);
      return;
    }
    arena_ = std::make_unique<pmpool::Arena>();
    shards.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      shards.push_back(arena_->allocate(bytes));
    }
  }
  ~Buffers() {
    const std::lock_guard lock(store_.spare_mu_);
    store_.spare_ = std::move(arena_);
  }
  Buffers(const Buffers&) = delete;
  Buffers& operator=(const Buffers&) = delete;

  const std::vector<iovec>& iovecs() const { return arena_->iovecs(); }

  std::vector<std::span<std::byte>> shards;

 private:
  const ShardStore& store_;
  std::unique_ptr<pmpool::Arena> arena_;
};

/// Takes the store's spare shard files for one commit into `dir`: the
/// set itself when it lies in `dir`; a set in another directory is
/// deleted. list() is null when a concurrent encode holds the set, and
/// that commit renames over the old shards and keeps nothing. What
/// list() holds when the commit returns becomes the store's set.
class ShardStore::SpareFiles {
 public:
  SpareFiles(const ShardStore& store, const fs::path& dir)
      : store_(store), dir_(dir) {
    std::vector<fs::path> stale;
    {
      const std::lock_guard lock(store.spare_mu_);
      if (store.spare_files_taken_) return;
      store.spare_files_taken_ = true;
      held_ = true;
      if (store.spare_dir_ == dir) {
        files_ = std::move(store.spare_files_);
      } else {
        stale = std::move(store.spare_files_);
      }
      store.spare_files_.clear();
    }
    UnlinkSpares(stale);
  }
  ~SpareFiles() {
    if (!held_) return;
    const std::lock_guard lock(store_.spare_mu_);
    store_.spare_dir_ = dir_;
    store_.spare_files_ = std::move(files_);
    store_.spare_files_taken_ = false;
  }
  SpareFiles(const SpareFiles&) = delete;
  SpareFiles& operator=(const SpareFiles&) = delete;

  std::vector<fs::path>* list() { return held_ ? &files_ : nullptr; }

 private:
  const ShardStore& store_;
  const fs::path dir_;
  bool held_ = false;
  std::vector<fs::path> files_;
};

bool ShardStore::read_file_retrying(const fs::path& path,
                                    std::vector<std::byte>* out, int* err,
                                    std::string* detail) const {
  const aio::IoStatus st = RetryTransient(
      policy_, [&] { return aio::ReadFileFull(path, out, kShardSites); });
  if (st.ok()) return true;
  if (err) *err = st.err;
  if (detail) *detail = st.detail;
  return false;
}

Status ShardStore::read_failure(int err, fs::path path,
                                std::string detail) const {
  const bool transient = err == EINTR || err == EAGAIN;
  if (transient && policy_.retry.max_retries > 0) {
    ShardMetrics::Get().retry_exhausted.inc();
    return Status{Status::Kind::kRetryExhausted, err, std::move(path),
                  detail.empty()
                      ? "transient read errors outlasted the retry budget"
                      : std::move(detail)};
  }
  return Status::Io(err, std::move(path), std::move(detail));
}

namespace {

/// Batched encode request for stripe `r` over the shard spans. The
/// spans are arena-backed and outlive the service round-trip.
svc::EncodeRequest MakeEncodeRequest(
    const ec::Codec& codec, const ServicePolicy& policy, const Manifest& mf,
    const std::vector<std::span<std::byte>>& shards, std::size_t r) {
  svc::EncodeRequest req;
  req.shape = {mf.k, mf.m, mf.block_size};
  req.codec = &codec;
  req.timeout = policy.deadline;
  req.data.resize(mf.k);
  req.parity.resize(mf.m);
  for (std::size_t i = 0; i < mf.k; ++i) {
    req.data[i] = shards[i].data() + r * mf.block_size;
  }
  for (std::size_t j = 0; j < mf.m; ++j) {
    req.parity[j] = shards[mf.k + j].data() + r * mf.block_size;
  }
  return req;
}

}  // namespace

Status ShardStore::encode_stripes(
    const Manifest& mf, const std::vector<std::span<std::byte>>& shards,
    std::vector<std::future<svc::Result>>* pre) const {
  const std::size_t stripes = std::max<std::size_t>(1, mf.stripes());
  auto serial = [&](std::size_t r) {
    std::vector<const std::byte*> data(mf.k);
    std::vector<std::byte*> parity(mf.m);
    for (std::size_t i = 0; i < mf.k; ++i) {
      data[i] = shards[i].data() + r * mf.block_size;
    }
    for (std::size_t j = 0; j < mf.m; ++j) {
      parity[j] = shards[mf.k + j].data() + r * mf.block_size;
    }
    codec_.encode(mf.block_size, data, parity);
  };
  if (service_ == nullptr) {
    for (std::size_t r = 0; r < stripes; ++r) serial(r);
    return Status::Ok();
  }
  auto make_request = [&](std::size_t r) {
    return MakeEncodeRequest(codec_, policy_, mf, shards, r);
  };
  // Take the caller's overlapped futures when it dispatched some (the
  // scatter-read hook), submitting any it missed; otherwise submit
  // every stripe up front so the service can batch them. Either way
  // every future is reaped before acting on any outcome — the stripe
  // buffers must stay valid until the service is done with them.
  std::vector<std::future<svc::Result>> done;
  if (pre != nullptr) {
    done = std::move(*pre);
  }
  done.resize(stripes);
  for (std::size_t r = 0; r < stripes; ++r) {
    if (!done[r].valid()) done[r] = service_->submit(make_request(r));
  }
  std::vector<svc::StatusCode> outcome(stripes);
  for (std::size_t r = 0; r < stripes; ++r) {
    outcome[r] = done[r].get().status;
  }
  for (std::size_t r = 0; r < stripes; ++r) {
    svc::StatusCode s = outcome[r];
    // Bounded backoff-retry: saturation clears as in-flight batches
    // complete, so a rejected stripe is resubmitted synchronously.
    for (std::size_t attempt = 0;
         svc::IsRetryable(s) && attempt < policy_.retry.max_retries;
         ++attempt) {
      ShardMetrics::Get().service_resubmits.inc();
      std::this_thread::sleep_for(policy_.retry.delay(attempt));
      s = service_->submit(make_request(r)).get().status;
    }
    if (s == svc::StatusCode::kOk) continue;
    if (s == svc::StatusCode::kDeadlineExceeded) {
      ShardMetrics::Get().deadline_exceeded.inc();
      return Status::Deadline("stripe " + std::to_string(r) +
                              " exceeded the service deadline");
    }
    if (svc::IsRetryable(s) && !policy_.serial_fallback) {
      ShardMetrics::Get().retry_exhausted.inc();
      return Status::Exhausted("stripe " + std::to_string(r) +
                               " still rejected after " +
                               std::to_string(policy_.retry.max_retries) +
                               " retries");
    }
    ShardMetrics::Get().serial_fallbacks.inc();
    serial(r);  // rejected (fallback allowed), shutdown, codec error
  }
  return Status::Ok();
}

Status ShardStore::decode_stripes(
    const Manifest& mf, const std::vector<std::span<std::byte>>& shards,
    const std::vector<std::size_t>& erasures) const {
  const std::size_t stripes = mf.stripes();
  auto serial = [&](std::size_t r) {
    std::vector<std::byte*> blocks(mf.k + mf.m);
    for (std::size_t s = 0; s < mf.k + mf.m; ++s) {
      blocks[s] = shards[s].data() + r * mf.block_size;
    }
    return codec_.decode(mf.block_size, blocks, erasures);
  };
  if (service_ == nullptr) {
    for (std::size_t r = 0; r < stripes; ++r) {
      if (!serial(r)) {
        return Status::Damaged({}, "stripe reconstruction failed");
      }
    }
    return Status::Ok();
  }
  auto make_request = [&](std::size_t r) {
    svc::DecodeRequest req;
    req.shape = {mf.k, mf.m, mf.block_size};
    req.codec = &codec_;
    req.timeout = policy_.deadline;
    req.erasures = erasures;
    req.blocks.resize(mf.k + mf.m);
    for (std::size_t s = 0; s < mf.k + mf.m; ++s) {
      req.blocks[s] = shards[s].data() + r * mf.block_size;
    }
    return req;
  };
  std::vector<std::future<svc::Result>> done;
  done.reserve(stripes);
  for (std::size_t r = 0; r < stripes; ++r) {
    done.push_back(service_->submit(make_request(r)));
  }
  // Reap every future even after a failure: the stripe buffers must
  // stay valid until the service is done with them.
  std::vector<svc::StatusCode> outcome(stripes);
  for (std::size_t r = 0; r < stripes; ++r) {
    outcome[r] = done[r].get().status;
  }
  bool damaged = false;
  for (std::size_t r = 0; r < stripes; ++r) {
    svc::StatusCode s = outcome[r];
    for (std::size_t attempt = 0;
         svc::IsRetryable(s) && attempt < policy_.retry.max_retries;
         ++attempt) {
      ShardMetrics::Get().service_resubmits.inc();
      std::this_thread::sleep_for(policy_.retry.delay(attempt));
      s = service_->submit(make_request(r)).get().status;
    }
    if (s == svc::StatusCode::kOk) continue;
    if (s == svc::StatusCode::kDecodeFailed) {
      damaged = true;  // data failure, not environmental: no fallback
      continue;
    }
    if (s == svc::StatusCode::kDeadlineExceeded) {
      ShardMetrics::Get().deadline_exceeded.inc();
      return Status::Deadline("stripe " + std::to_string(r) +
                              " exceeded the service deadline");
    }
    if (svc::IsRetryable(s) && !policy_.serial_fallback) {
      ShardMetrics::Get().retry_exhausted.inc();
      return Status::Exhausted("stripe " + std::to_string(r) +
                               " still rejected after " +
                               std::to_string(policy_.retry.max_retries) +
                               " retries");
    }
    ShardMetrics::Get().serial_fallbacks.inc();
    if (!serial(r)) damaged = true;
  }
  return damaged ? Status::Damaged({}, "stripe reconstruction failed")
                 : Status::Ok();
}

Status ShardStore::encode_file(const fs::path& input,
                               const fs::path& dir) const {
  const auto [k, m] = codec_.params();
  if (k == 0 || m == 0 || k + m > kMaxShards || block_size_ == 0 ||
      block_size_ > kMaxBlock) {
    return Status::Io(EINVAL, dir, "geometry the manifest cannot record");
  }
  std::uint64_t file_size = 0;
  if (const auto st = aio::StatSize(input, &file_size); !st.ok()) {
    return Status::Io(st.err, input, "unreadable input");
  }

  Manifest mf;
  mf.k = k;
  mf.m = m;
  mf.block_size = block_size_;
  mf.file_size = file_size;
  const std::size_t stripes = mf.stripes();  // >= 1: empty files clamp
  const std::size_t shard_bytes = stripes * block_size_;

  // Shard s holds: for every stripe r, block s of that stripe. The
  // slabs are page-aligned and (on the uring backend) pinned as
  // registered buffers — input blocks scatter-read straight into shard
  // layout, with no whole-file staging copy.
  Buffers bufs(*this, k + m, shard_bytes);
  const std::vector<std::span<std::byte>>& shards = bufs.shards;
  aio::Transfer xfer(aio::SelectBackend(aio_mode_), bufs.iovecs());

  // Scatter plan: block (r, i) of the input lands at stripe offset r
  // of data shard i. What no input byte covers — the tail of a partial
  // last block and every block past the end of the file — is zeroed
  // here, as recycled slabs still hold the last call's bytes; parity
  // is written whole by the encode.
  std::vector<aio::Seg> segs;
  std::vector<std::size_t> seg_stripe;  // segment index -> stripe
  std::vector<std::size_t> blocks_left(stripes, 0);
  for (std::size_t r = 0; r < stripes; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(r) * k + i) * block_size_;
      const std::size_t len =
          off < file_size ? static_cast<std::size_t>(std::min<std::uint64_t>(
                                block_size_, file_size - off))
                          : 0;
      std::byte* block = shards[i].data() + r * block_size_;
      std::memset(block + len, 0, block_size_ - len);
      if (len == 0) continue;
      segs.push_back({block, len, off});
      seg_stripe.push_back(r);
      ++blocks_left[r];
    }
  }

  // Overlap I/O and compute: a stripe whose blocks are all resident
  // dispatches to the service while the remaining reads are still in
  // flight. (Serial encoding stays after the read: it would otherwise
  // stall the ring.)
  std::vector<std::future<svc::Result>> futures(stripes);
  auto dispatch = [&](std::size_t r) {
    if (service_ == nullptr) return;
    futures[r] = service_->submit(
        MakeEncodeRequest(codec_, policy_, mf, shards, r));
  };
  for (std::size_t r = 0; r < stripes; ++r) {
    if (blocks_left[r] == 0) dispatch(r);  // all-padding stripe (empty file)
  }
  const auto read_st = aio::ReadScatter(
      xfer, input, segs, kShardSites, [&](std::size_t si) {
        if (--blocks_left[seg_stripe[si]] == 0) dispatch(seg_stripe[si]);
      });
  if (!read_st.ok()) {
    // Reap anything already dispatched before the buffers go back.
    for (auto& f : futures) {
      if (f.valid()) f.get();
    }
    return read_failure(read_st.err, input,
                        read_st.detail.empty() ? "unreadable input"
                                               : read_st.detail);
  }
  if (const Status st = encode_stripes(mf, shards, &futures); !st.ok()) {
    return st;
  }

  if (const auto st = aio::CreateDirectoriesDurable(dir); !st.ok()) {
    return Status::Io(st.err, dir, "cannot create shard directory");
  }
  // Durable commit protocol: the shards commit as one group — every
  // temp written and fsynced before the first publish — and the
  // manifest goes last with the directory fsync, so a crash anywhere
  // leaves the old manifest (and old shards, each themselves whole) or
  // the complete new generation, never a manifest naming torn shards.
  // The temps are the shard files this store's last commit into `dir`
  // replaced, where it holds them; the shards they replace now become
  // its spares.
  std::vector<aio::Seg> shard_segs;
  std::vector<aio::DurableFile> files;
  shard_segs.reserve(k + m);
  files.reserve(k + m);
  for (std::size_t s = 0; s < k + m; ++s) {
    mf.shard_checksums.push_back(
        integrity::Crc32c(shards[s].data(), shard_bytes));
    shard_segs.push_back({shards[s].data(), shard_bytes, 0});
    files.push_back({ShardPath(dir, s), {&shard_segs.back(), 1}});
  }
  SpareFiles spares(*this, dir);
  std::size_t failed = 0;
  if (const auto st =
          aio::WriteFilesDurable(xfer, files, kShardSites,
                                 /*sync_parent=*/false, &failed, spares.list());
      !st.ok()) {
    return Status::Io(st.err, files[failed].path,
                      st.detail.empty() ? "cannot write shard" : st.detail);
  }
  const std::string text = mf.serialize();
  const auto st = aio::WriteFileDurable(
      xfer, dir / "manifest.txt",
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(text.data()), text.size()),
      kShardSites, /*sync_parent=*/true);
  if (!st.ok()) {
    return Status::Io(st.err, dir / "manifest.txt",
                      st.detail.empty() ? "cannot write manifest" : st.detail);
  }
  return Status::Ok();
}

std::optional<Manifest> ShardStore::load_manifest(const fs::path& dir) const {
  std::vector<std::byte> raw;
  if (!read_file_retrying(dir / "manifest.txt", &raw, nullptr, nullptr)) {
    return std::nullopt;
  }
  return Manifest::parse(
      std::string(reinterpret_cast<const char*>(raw.data()), raw.size()));
}

void ShardStore::load_shards(aio::Transfer& xfer, const fs::path& dir,
                             const Manifest& mf,
                             const std::vector<std::span<std::byte>>& shards,
                             std::vector<std::size_t>* damaged,
                             std::vector<ShardState>* states) const {
  const std::size_t n = mf.k + mf.m;
  if (states != nullptr) states->assign(n, ShardState::kIntact);
  for (std::size_t s = 0; s < n; ++s) {
    // Transient read errors retry before the shard is written off as
    // damaged; persistent failures degrade to "rebuild it from
    // parity". ReadFileExact reports a size mismatch as an explicit
    // error, so a truncated shard can never masquerade as intact.
    const aio::IoStatus st = RetryTransient(policy_, [&] {
      return aio::ReadFileExact(xfer, ShardPath(dir, s), shards[s],
                                kShardSites);
    });
    ShardState state = ShardState::kIntact;
    if (!st.ok()) {
      state = ShardState::kMissing;
    } else if (verify_on_read_) {
      integrity::Metrics::Get().verify(integrity::Layer::kShard);
      if (integrity::Crc32c(shards[s].data(), shards[s].size()) !=
          mf.shard_checksums[s]) {
        state = ShardState::kCorrupt;
        integrity::Metrics::Get().corrupt(integrity::Layer::kShard);
      }
    }
    if (state != ShardState::kIntact) {
      damaged->push_back(s);
      std::fill(shards[s].begin(), shards[s].end(), std::byte{0});
    }
    if (states != nullptr) (*states)[s] = state;
  }
}

std::vector<std::size_t> ShardStore::verify(const fs::path& dir) const {
  const auto mf = load_manifest(dir);
  if (!mf) return {SIZE_MAX};  // unusable directory
  Buffers bufs(*this, mf->k + mf->m, mf->shard_bytes());
  const std::vector<std::span<std::byte>>& shards = bufs.shards;
  aio::Transfer xfer(aio::SelectBackend(aio_mode_), bufs.iovecs());
  std::vector<std::size_t> damaged;
  load_shards(xfer, dir, *mf, shards, &damaged);
  return damaged;
}

VerifyReport ShardStore::verify_detailed(const fs::path& dir) const {
  VerifyReport report;
  const auto mf = load_manifest(dir);
  if (!mf) return report;
  report.manifest_ok = true;
  Buffers bufs(*this, mf->k + mf->m, mf->shard_bytes());
  const std::vector<std::span<std::byte>>& shards = bufs.shards;
  aio::Transfer xfer(aio::SelectBackend(aio_mode_), bufs.iovecs());
  load_shards(xfer, dir, *mf, shards, &report.damaged, &report.states);
  for (std::size_t s = 0; s < report.states.size(); ++s) {
    if (report.states[s] == ShardState::kCorrupt) report.corrupt.push_back(s);
  }
  return report;
}

RepairReport ShardStore::repair(const fs::path& dir) const {
  RepairReport report;
  const auto mf = load_manifest(dir);
  if (!mf) return report;
  Buffers bufs(*this, mf->k + mf->m, mf->shard_bytes());
  const std::vector<std::span<std::byte>>& shards = bufs.shards;
  aio::Transfer xfer(aio::SelectBackend(aio_mode_), bufs.iovecs());
  std::vector<ShardState> states;
  load_shards(xfer, dir, *mf, shards, &report.damaged, &states);
  for (std::size_t s = 0; s < states.size(); ++s) {
    if (states[s] == ShardState::kCorrupt) report.corrupt.push_back(s);
  }
  if (report.damaged.empty()) return report;
  if (report.damaged.size() > mf->m) return report;  // unrecoverable

  report.status = decode_stripes(*mf, shards, report.damaged);
  if (!report.status.ok()) return report;
  for (const std::size_t s : report.damaged) {
    if (integrity::Crc32c(shards[s].data(), shards[s].size()) !=
        mf->shard_checksums[s]) {
      integrity::Metrics::Get().heal(integrity::Layer::kShard, false);
      continue;  // rebuilt bytes do not match the manifest: refuse
    }
    if (aio::WriteFileDurable(xfer, ShardPath(dir, s), shards[s], kShardSites)
            .ok()) {
      report.repaired.push_back(s);
      integrity::Metrics::Get().heal(integrity::Layer::kShard, true);
    } else {
      integrity::Metrics::Get().heal(integrity::Layer::kShard, false);
    }
  }
  return report;
}

Status ShardStore::decode_file(const fs::path& dir,
                               const fs::path& output) const {
  std::vector<std::byte> raw;
  int err = 0;
  std::string detail;
  if (!read_file_retrying(dir / "manifest.txt", &raw, &err, &detail)) {
    return read_failure(err, dir / "manifest.txt",
                        detail.empty() ? "unreadable manifest" : detail);
  }
  const auto mf = Manifest::parse(
      std::string(reinterpret_cast<const char*>(raw.data()), raw.size()));
  if (!mf) {
    return Status::Damaged(dir / "manifest.txt",
                           "corrupt or unsupported manifest");
  }
  Buffers bufs(*this, mf->k + mf->m, mf->shard_bytes());
  const std::vector<std::span<std::byte>>& shards = bufs.shards;
  aio::Transfer xfer(aio::SelectBackend(aio_mode_), bufs.iovecs());
  std::vector<std::size_t> damaged;
  load_shards(xfer, dir, *mf, shards, &damaged);
  if (damaged.size() > mf->m) {
    return Status::Damaged(
        dir, std::to_string(damaged.size()) + " shards lost, parity covers " +
                 std::to_string(mf->m));
  }

  if (!damaged.empty()) {
    Status st = decode_stripes(*mf, shards, damaged);
    if (!st.ok()) {
      // Anchor the stripe-level failure to the directory it concerns.
      if (st.path.empty()) st.path = dir;
      return st;
    }
    if (read_repair_) {
      // Read-repair: the reconstruction already paid for the healed
      // bytes, so write them back through the durable protocol and the
      // next read starts clean. Only checksum-confirmed rebuilds land;
      // a write failure leaves the old shard (temp→rename), so heal is
      // strictly best-effort and never fails the decode.
      for (const std::size_t s : damaged) {
        if (integrity::Crc32c(shards[s].data(), shards[s].size()) !=
            mf->shard_checksums[s]) {
          integrity::Metrics::Get().heal(integrity::Layer::kShard, false);
          continue;
        }
        const bool wrote =
            aio::WriteFileDurable(xfer, ShardPath(dir, s), shards[s],
                                  kShardSites)
                .ok();
        integrity::Metrics::Get().heal(integrity::Layer::kShard, wrote);
      }
    }
  }

  // Gather-write the output straight from the (registered) shard
  // buffers — the inverse of the encode scatter, with no intermediate
  // assembly copy. Durable like every other write on this path.
  std::vector<aio::Seg> segs;
  const std::size_t stripes = mf->stripes();
  std::uint64_t written = 0;
  for (std::size_t r = 0; r < stripes && written < mf->file_size; ++r) {
    for (std::size_t i = 0; i < mf->k && written < mf->file_size; ++i) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(mf->block_size, mf->file_size - written));
      segs.push_back({shards[i].data() + r * mf->block_size, n, written});
      written += n;
    }
  }
  const auto st = aio::WriteGatherDurable(xfer, output, segs, kShardSites);
  if (!st.ok()) {
    return Status::Io(st.err, output,
                      st.detail.empty() ? "cannot write output" : st.detail);
  }
  return Status::Ok();
}

}  // namespace shard
