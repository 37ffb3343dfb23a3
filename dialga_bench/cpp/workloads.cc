#include "workloads.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>

#include "aio/datapath.h"
#include "cluster/local_cluster.h"
#include "cluster/wire.h"
#include "dialga/dialga.h"
#include "ec/codec_util.h"
#include "ec/isal.h"
#include "obs/metrics.h"
#include "shard/shard_store.h"
#include "svc/governor.h"
#include "svc/stripe_service.h"

namespace dbench {

namespace fs = std::filesystem;

namespace {

// Input streams of Rng(seed, stream): one per kind of generated input.
enum Stream : std::uint64_t {
  kStripeData = 1,
  kReadData,
  kBulkData,
  kArrivals,
  kFileData,
  kFileLosses,
  kClusterData,
  kClusterKills,
};

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;

/// The encode workloads' service: defaults (DIALGA codec factory,
/// batching) with two pool workers, so load plus workers stay within a
/// 4-core host.
svc::StripeService::Config EncodeServiceConfig() {
  svc::StripeService::Config cfg;
  cfg.pool_threads = 2;
  return cfg;
}

LayerCounts ServiceDelta(const svc::ServiceStats& a, const svc::ServiceStats& b,
                         std::size_t workers) {
  LayerCounts c;
  c.svc_workers = workers;
  c.svc_batches = b.batches - a.batches;
  c.svc_stripes = b.dispatched_stripes - a.dispatched_stripes;
  c.svc_rejected = (b.rejected_queue_full + b.rejected_class_limit +
                    b.rejected_bandwidth) -
                   (a.rejected_queue_full + a.rejected_class_limit +
                    a.rejected_bandwidth);
  c.svc_steals = b.pool.steals - a.pool.steals;
  c.svc_queue_high_water = b.queue_high_water;
  return c;
}

/// Bit-exactness reference: the unfused O(k*m) encoder the library
/// keeps as its own reference for the fused encoder.
bool ParityMatches(const gf::Matrix& gen, std::size_t k, std::size_t m,
                   std::size_t bs, const std::vector<const std::byte*>& data,
                   const std::vector<std::byte*>& parity) {
  Buffer ref(m * bs);
  std::vector<std::byte*> out(m);
  for (std::size_t j = 0; j < m; ++j) out[j] = ref.data() + j * bs;
  ec::NaiveSystematicEncode(gen, k, m, bs, data, out);
  for (std::size_t j = 0; j < m; ++j) {
    if (std::memcmp(out[j], parity[j], bs) != 0) return false;
  }
  return true;
}

/// A submitted service request the load thread has not harvested yet.
struct Inflight {
  std::future<svc::Result> fut;
  std::size_t slot = 0;
  std::uint64_t req = 0;
  std::int64_t submit_ns = 0;
};

void RecordRequest(Tracer* tracer, const char* name, const Inflight& f,
                   const svc::Result& r) {
  if (tracer == nullptr) return;
  tracer->record({name, f.submit_ns,
                  f.submit_ns + static_cast<std::int64_t>(r.service_seconds * 1e9),
                  f.req, 0, f.req, 0});
}

std::vector<const void*> ParityKeys(const StripeSet& set) {
  std::vector<const void*> keys;
  for (std::size_t s = 0; s < set.stripes; ++s) keys.push_back(set.block(s, set.k));
  return keys;
}

// ---------------------------------------------------------------------
// encode_small_hot / encode_wide_stream: one closed-loop producer keeps
// `outstanding` encodes in flight over a ring of pre-generated stripes.

class EncodeStream final : public Workload {
 public:
  EncodeStream(const RunConfig& cfg, std::size_t k, std::size_t m,
               std::size_t bs, std::size_t stripes, std::size_t outstanding,
               std::size_t warmup, double max_ops_per_s)
      : cfg_(cfg), k_(k), m_(m), bs_(bs), stripes_(stripes),
        outstanding_(outstanding), warmup_(warmup),
        max_samples_(static_cast<std::size_t>(max_ops_per_s * cfg.max_phase_s) + warmup) {}

  void setup() override {
    log_ = std::make_unique<SampleLog>(max_samples_);
    set_ = std::make_unique<StripeSet>(k_, m_, bs_, stripes_,
                                       Rng(cfg_.seed, kStripeData));
    touched_.assign(stripes_, false);
    const std::vector<const void*> keys = ParityKeys(*set_);
    requests_ = std::make_unique<RequestMap>(keys);
    codec_ = std::make_unique<dialga::DialgaCodec>(k_, m_);
    service_ = std::make_unique<svc::StripeService>(EncodeServiceConfig());
    Loop(static_cast<double>(warmup_), /*by_count=*/true, nullptr);
  }

  Phase run(double seconds, Tracer* tracer) override {
    return Loop(seconds, false, tracer);
  }

  bool verify() override { return set_->verify(touched_); }

  std::uint64_t input_digest() override {
    Digest d;
    d.add_u64(k_);
    d.add_u64(m_);
    d.add_u64(bs_);
    set_->digest(d);
    return d.value();
  }

 private:
  Phase Loop(double limit, bool by_count, Tracer* tracer) {
    Phase ph;
    std::unique_ptr<TimedCodec> timed;
    if (tracer != nullptr) {
      timed = std::make_unique<TimedCodec>(*codec_, *tracer, requests_.get());
    }
    const svc::ServiceStats before = service_->stats();
    log_->clear();
    std::deque<Inflight> inflight;
    const std::int64_t t0 = NowNs();
    auto harvest = [&] {
      Inflight f = std::move(inflight.front());
      inflight.pop_front();
      const svc::Result r = f.fut.get();
      ++ph.attempted;
      if (!r.ok()) {
        ++ph.failed;
        return;
      }
      RecordRequest(tracer, "svc.encode", f, r);
      log_->add(r.service_seconds, SecondsSince(t0), kWrite);
      ph.bytes[kWrite] += k_ * bs_;
    };
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(limit * 1e9);
    std::size_t next = 0;
    while (by_count ? next < static_cast<std::size_t>(limit) : NowNs() < deadline) {
      if (inflight.size() >= outstanding_) harvest();
      const std::size_t slot = next++ % stripes_;
      touched_[slot] = true;
      Inflight f;
      f.slot = slot;
      if (tracer != nullptr) {
        f.req = tracer->new_id();
        requests_->begin(set_->block(slot, k_), f.req);
      }
      f.submit_ns = NowNs();
      f.fut = service_->submit(set_->request(slot, timed.get()));
      inflight.push_back(std::move(f));
    }
    while (!inflight.empty()) harvest();
    ph.wall_s = SecondsSince(t0);
    ph.submitted = next;
    ph.ops = log_->samples();
    ph.layers = ServiceDelta(before, service_->stats(), 2);
    return ph;
  }

  const RunConfig cfg_;
  const std::size_t k_, m_, bs_, stripes_, outstanding_, warmup_, max_samples_;
  std::unique_ptr<SampleLog> log_;
  std::unique_ptr<StripeSet> set_;
  std::vector<bool> touched_;
  std::unique_ptr<RequestMap> requests_;
  std::unique_ptr<dialga::DialgaCodec> codec_;
  std::unique_ptr<svc::StripeService> service_;
};

// ---------------------------------------------------------------------
// degraded_read_mix: open-loop Poisson degraded reads beside a
// closed-loop bulk encoder on one governed service, both driven from
// one load thread.

class DegradedReadMix final : public Workload {
 public:
  static constexpr std::size_t kK = 12, kM = 4, kBs = 64 * kKiB;
  static constexpr std::size_t kBulkOutstanding = 4;

  DegradedReadMix(const RunConfig& cfg, double reads_per_s)
      : cfg_(cfg), rate_(reads_per_s),
        read_stripes_(cfg.smoke ? 4 : 32),
        read_slots_(cfg.smoke ? 32 : 256),
        bulk_slots_(cfg.smoke ? 8 : 16) {}

  void setup() override {
    reads_ = std::make_unique<StripeSet>(kK, kM, kBs, read_stripes_,
                                         Rng(cfg_.seed, kReadData));
    const ec::IsalCodec ref(kK, kM);
    for (std::size_t s = 0; s < read_stripes_; ++s) {
      ec::NaiveSystematicEncode(ref.generator(), kK, kM, kBs, reads_->data(s),
                                reads_->parity(s));
    }
    out_ = Buffer(read_slots_ * kBs);
    bulk_ = std::make_unique<StripeSet>(kK, kM, kBs, bulk_slots_,
                                        Rng(cfg_.seed, kBulkData));
    bulk_touched_.assign(bulk_slots_, false);

    // Poisson arrivals; each reads one stripe with one data block lost.
    Rng rng(cfg_.seed, kArrivals);
    arrivals_.clear();
    for (double t = 0.0;;) {
      t += -std::log(rng.unit()) / rate_;
      if (t >= cfg_.max_phase_s) break;
      arrivals_.push_back({t, rng.below(read_stripes_), rng.below(kK)});
    }
    // Every read, and the bulk encodes at up to 40 k/s.
    log_ = std::make_unique<SampleLog>(
        arrivals_.size() + static_cast<std::size_t>(40'000 * cfg_.max_phase_s));

    std::vector<const void*> keys = ParityKeys(*bulk_);
    for (std::size_t i = 0; i < read_slots_; ++i) keys.push_back(out_.data() + i * kBs);
    requests_ = std::make_unique<RequestMap>(keys);

    codec_ = std::make_unique<dialga::DialgaCodec>(kK, kM);
    // The bandwidth-QoS acceptance settings (docs/qos.md): three 64 KiB
    // RS(8,3) stripes of bulk in flight, 64/16 MiB watermarks, a 2.5x
    // degraded-read headroom gate and a 20 ms aging bound.
    svc::GovernorConfig gc;
    gc.bulk_inflight_cap = 2304ull << 10;
    gc.high_watermark_bytes = 64ull << 20;
    gc.low_watermark_bytes = 16ull << 20;
    gc.degraded_headroom_ratio = 2.5;
    gc.max_defer_ns = 20'000'000;
    governor_ = std::make_unique<svc::BandwidthGovernor>(gc);
    svc::StripeService::Config cfg;
    cfg.queue_capacity = 2048;
    cfg.max_batch = 1;
    cfg.pool_threads = 2;
    cfg.latency_pool_threads = 1;
    cfg.governor = governor_.get();
    service_ = std::make_unique<svc::StripeService>(std::move(cfg));

    // Warm-up: one synchronous read per read stripe and one bulk pass.
    for (std::size_t s = 0; s < read_stripes_; ++s) {
      service_->submit(ReadRequest(s, 0, 0, nullptr)).get();
    }
    for (std::size_t s = 0; s < bulk_slots_; ++s) {
      service_->submit(bulk_->request(s, nullptr)).get();
      bulk_touched_[s] = true;
    }
  }

  Phase run(double seconds, Tracer* tracer) override {
    Phase ph;
    std::unique_ptr<TimedCodec> timed;
    if (tracer != nullptr) {
      timed = std::make_unique<TimedCodec>(*codec_, *tracer, requests_.get());
    }
    const svc::ServiceStats before = service_->stats();
    const svc::GovernorStats gov_before = governor_->snapshot();
    const std::size_t n = static_cast<std::size_t>(
        std::lower_bound(arrivals_.begin(), arrivals_.end(), seconds,
                         [](const Arrival& a, double t) { return a.at_s < t; }) -
        arrivals_.begin());
    std::vector<double> latency(n, -1.0);
    ph.late_s.assign(n, 0.0);
    std::int64_t t0 = 0;

    struct ReadSlot {
      Inflight f;
      std::size_t arrival = 0;
      bool used = false;
    };
    std::vector<ReadSlot> slots(read_slots_);
    auto harvest_read = [&](ReadSlot& rs) {
      const svc::Result r = rs.f.fut.get();
      rs.used = false;
      const Arrival& a = arrivals_[rs.arrival];
      const bool exact =
          r.ok() && std::memcmp(out_.data() + rs.f.slot * kBs,
                                reads_->block(a.stripe, a.lost), kBs) == 0;
      if (!exact) {
        ++ph.failed;
        return;
      }
      RecordRequest(tracer, "svc.decode", rs.f, r);
      latency[rs.arrival] = ph.late_s[rs.arrival] + r.service_seconds;
      ph.bytes[kDegradedRead] += kBs;
    };

    std::deque<Inflight> bulk;
    std::size_t bulk_next = 0;
    auto harvest_bulk = [&] {
      Inflight f = std::move(bulk.front());
      bulk.pop_front();
      const svc::Result r = f.fut.get();
      ++ph.attempted;
      if (!r.ok()) {
        ++ph.failed;
        return;
      }
      RecordRequest(tracer, "svc.encode", f, r);
      log_->add(r.service_seconds, SecondsSince(t0), kWrite);
      ph.bytes[kWrite] += kK * kBs;
    };

    // The generator's timed waits should wake on time: the default 50 us
    // timer slack would be charged to every read as lateness.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    log_->clear();
    t0 = NowNs();
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(arrivals_[i].at_s * 1e9);
      if (NowNs() >= due) {
        ReadSlot& rs = slots[i % read_slots_];
        if (rs.used) harvest_read(rs);
        const Arrival& a = arrivals_[i];
        std::byte* out = out_.data() + (i % read_slots_) * kBs;
        std::memset(out, 0xA5, kBs);  // a decode that writes nothing fails the check
        rs.f.slot = i % read_slots_;
        rs.arrival = i;
        rs.used = true;
        if (tracer != nullptr) {
          rs.f.req = tracer->new_id();
          requests_->begin(out, rs.f.req);
        }
        rs.f.submit_ns = NowNs();
        ph.late_s[i] = static_cast<double>(rs.f.submit_ns - due) * 1e-9;
        rs.f.fut = service_->submit(ReadRequest(a.stripe, a.lost, rs.f.slot, timed.get()));
        ++ph.attempted;
        ++i;
        continue;
      }
      if (bulk.size() < kBulkOutstanding) {
        Inflight f;
        f.slot = bulk_next++ % bulk_slots_;
        bulk_touched_[f.slot] = true;
        if (tracer != nullptr) {
          f.req = tracer->new_id();
          requests_->begin(bulk_->block(f.slot, kK), f.req);
        }
        f.submit_ns = NowNs();
        f.fut = service_->submit(bulk_->request(f.slot, timed.get()));
        bulk.push_back(std::move(f));
        continue;
      }
      if (bulk.front().fut.wait_until(Clock::time_point(std::chrono::nanoseconds(due))) ==
          std::future_status::ready) {
        harvest_bulk();
      }
    }
    while (!bulk.empty()) harvest_bulk();
    for (ReadSlot& rs : slots) {
      if (rs.used) harvest_read(rs);
    }
    ph.wall_s = SecondsSince(t0);
    for (std::size_t a = 0; a < n; ++a) {
      if (latency[a] >= 0.0) log_->add(latency[a], arrivals_[a].at_s + latency[a], kDegradedRead);
    }
    ph.ops = log_->samples();
    ph.unit = kDegradedRead;
    ph.submitted = n + bulk_next;
    ph.layers = ServiceDelta(before, service_->stats(), 3);
    const svc::GovernorStats gov = governor_->snapshot();
    ph.layers.gov_deferrals = gov.deferrals - gov_before.deferrals;
    ph.layers.gov_forced_drains = gov.forced_drains - gov_before.forced_drains;
    ph.layers.gov_aged_drains = gov.aged_drains - gov_before.aged_drains;
    return ph;
  }

  bool verify() override { return bulk_->verify(bulk_touched_); }

  std::uint64_t input_digest() override {
    Digest d;
    d.add_double(rate_);
    reads_->digest(d);
    bulk_->digest(d);
    for (const Arrival& a : arrivals_) {
      d.add_double(a.at_s);
      d.add_u64(a.stripe);
      d.add_u64(a.lost);
    }
    return d.value();
  }

 private:
  struct Arrival {
    double at_s = 0.0;  ///< intended send time from the phase start
    std::size_t stripe = 0;
    std::size_t lost = 0;  ///< erased data block
  };

  svc::DecodeRequest ReadRequest(std::size_t stripe, std::size_t lost,
                                 std::size_t slot, const ec::Codec* codec) {
    svc::DecodeRequest req;
    req.shape = {kK, kM, kBs};
    for (std::size_t j = 0; j < kK + kM; ++j) {
      req.blocks.push_back(j == lost ? out_.data() + slot * kBs
                                     : reads_->block(stripe, j));
    }
    req.erasures = {lost};
    req.codec = codec;
    return req;
  }

  const RunConfig cfg_;
  const double rate_;
  const std::size_t read_stripes_, read_slots_, bulk_slots_;
  std::unique_ptr<StripeSet> reads_;
  Buffer out_;
  std::unique_ptr<StripeSet> bulk_;
  std::vector<bool> bulk_touched_;
  std::vector<Arrival> arrivals_;
  std::unique_ptr<SampleLog> log_;
  std::unique_ptr<RequestMap> requests_;
  std::unique_ptr<dialga::DialgaCodec> codec_;
  std::unique_ptr<svc::BandwidthGovernor> governor_;
  std::unique_ptr<svc::StripeService> service_;
};

// ---------------------------------------------------------------------
// file_roundtrip: encode_file, healthy decode_file, then decode_file
// with one data shard deleted, over a seeded input in the data dir.

class FileRoundtrip final : public Workload {
 public:
  static constexpr std::size_t kK = 12, kM = 4, kBs = 64 * kKiB;

  explicit FileRoundtrip(const RunConfig& cfg)
      : cfg_(cfg), bytes_(FileStripes(cfg) * kK * kBs),
        dir_(cfg.data_dir / "file_roundtrip") {}

  void setup() override {
    log_ = std::make_unique<SampleLog>(1 << 14);
    fs::create_directories(dir_);
    data_.resize(bytes_);
    Rng(cfg_.seed, kFileData).fill(data_.data(), bytes_);
    {
      std::ofstream out(dir_ / "input.bin", std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(data_.data()),
                static_cast<std::streamsize>(bytes_));
    }
    Rng rng(cfg_.seed, kFileLosses);
    losses_.clear();
    for (int i = 0; i < 1024; ++i) losses_.push_back(rng.below(kK));
    codec_ = std::make_unique<dialga::DialgaCodec>(kK, kM);
    service_ = std::make_unique<svc::StripeService>(EncodeServiceConfig());
    store_ = MakeStore(*codec_);
    Phase warm;
    Cycle(*store_, nullptr, warm);
    warm_failed_ = warm.failed;
  }

  Phase run(double seconds, Tracer* tracer) override {
    Phase ph;
    std::unique_ptr<TimedCodec> timed;
    std::unique_ptr<shard::ShardStore> traced;
    if (tracer != nullptr) {
      timed = std::make_unique<TimedCodec>(*codec_, *tracer, nullptr);
      traced = MakeStore(*timed);
    }
    const svc::ServiceStats before = service_->stats();
    log_->clear();
    const std::int64_t t0 = NowNs();
    while (SecondsSince(t0) < seconds) Cycle(traced ? *traced : *store_, tracer, ph);
    ph.wall_s = SecondsSince(t0);
    ph.submitted = ph.attempted;
    ph.ops = log_->samples();
    ph.unit = kCycle;
    ph.sequential = true;
    ph.layers = ServiceDelta(before, service_->stats(), 2);
    return ph;
  }

  bool verify() override { return warm_failed_ == 0 && cycles_ > 0; }

  std::uint64_t input_digest() override {
    Digest d;
    d.add_bytes(data_.data(), data_.size());
    for (const std::size_t l : losses_) d.add_u64(l);
    return d.value();
  }

 private:
  std::unique_ptr<shard::ShardStore> MakeStore(const ec::Codec& codec) {
    auto store = std::make_unique<shard::ShardStore>(codec, kBs);
    store->use_service(service_.get());
    return store;
  }

  void Cycle(shard::ShardStore& store, Tracer* tracer, Phase& ph) {
    const fs::path input = dir_ / "input.bin";
    const fs::path shards = dir_ / "shards";
    const fs::path out = dir_ / "out.bin";
    double cycle_s = 0.0;
    auto call = [&](OpKind kind, const char* name, auto&& fn) {
      const std::uint64_t id = tracer != nullptr ? tracer->new_id() : 0;
      if (tracer != nullptr) tracer->set_open(id);
      const std::int64_t s = NowNs();
      const shard::Status st = fn();
      const std::int64_t e = NowNs();
      if (tracer != nullptr) {
        tracer->set_open(0);
        tracer->record({name, s, e, id, 0, id, 0});
      }
      ++ph.attempted;
      const double secs = static_cast<double>(e - s) * 1e-9;
      if (!st.ok()) {
        ++ph.failed;
        std::fprintf(stderr, "file_roundtrip: %s failed: %s\n", name,
                     st.message().c_str());
        return false;
      }
      log_->add(secs, 0.0, kind);
      ph.bytes[kind] += bytes_;
      cycle_s += secs;
      return true;
    };
    auto exact = [&] {
      readback_.clear();
      if (aio::ReadFileFull(out, &readback_).ok() && readback_ == data_) return true;
      ++ph.failed;
      return false;
    };
    bool ok = call(kWrite, "shard.encode_file", [&] { return store.encode_file(input, shards); });
    ok = ok && call(kRead, "shard.decode_file",
                    [&] { return store.decode_file(shards, out); }) && exact();
    char name[32];
    std::snprintf(name, sizeof(name), "shard_%03zu", losses_[cycles_ % losses_.size()]);
    std::error_code ec;
    fs::remove(shards / name, ec);
    ok = ok && call(kDegradedRead, "shard.decode_file_degraded",
                    [&] { return store.decode_file(shards, out); }) && exact();
    if (ok) log_->add(cycle_s, 0.0, kCycle);
    ++cycles_;
  }

  const RunConfig cfg_;
  const std::size_t bytes_;
  const fs::path dir_;
  std::vector<std::byte> data_;
  std::vector<std::byte> readback_;
  std::vector<std::size_t> losses_;
  std::size_t cycles_ = 0;
  std::uint64_t warm_failed_ = 0;
  std::unique_ptr<SampleLog> log_;
  std::unique_ptr<dialga::DialgaCodec> codec_;
  std::unique_ptr<svc::StripeService> service_;
  std::unique_ptr<shard::ShardStore> store_;
};

// ---------------------------------------------------------------------
// cluster_rw: one client against an in-process 9-node, 3-domain LRC
// cluster: write -> read -> degraded read with one data chunk's home
// node down.

std::uint64_t ClusterRpcTotal() {
  static const std::vector<obs::Counter*> counters = [] {
    std::vector<obs::Counter*> v;
    for (auto t = static_cast<std::uint8_t>(cluster::MsgType::kEncode);
         t <= static_cast<std::uint8_t>(cluster::MsgType::kHeartbeatResp); ++t) {
      v.push_back(&obs::Registry::Global().counter(
          "dialga_cluster_rpc_total",
          {{"type", cluster::type_name(static_cast<cluster::MsgType>(t))}}));
    }
    return v;
  }();
  std::uint64_t sum = 0;
  for (const obs::Counter* c : counters) sum += c->value();
  return sum;
}

class ClusterRw final : public Workload {
 public:
  static constexpr std::uint32_t kK = 4, kBs = 64 * kKiB;

  // Eight stripes: 2 MiB of data and 4 MiB of stored chunks, small
  // enough that other tenants' use of the shared L3 moves the run little.
  explicit ClusterRw(const RunConfig& cfg) : cfg_(cfg), stripes_(8) {}

  void setup() override {
    // Four samples per cycle of about a millisecond, five times over.
    log_ = std::make_unique<SampleLog>(static_cast<std::size_t>(20'000 * cfg_.max_phase_s) +
                                       4 * stripes_);
    cluster::LocalClusterConfig cc;
    cc.nodes = 9;
    cc.domains = 3;
    cc.geom.k = kK;
    cc.geom.global = 2;
    cc.geom.local = 2;
    cc.geom.block_size = kBs;
    cc.service_threads = 1;
    geom_ = cc.geom;
    cluster_ = std::make_unique<cluster::LocalCluster>(std::move(cc));
    data_ = Buffer(stripes_ * kK * kBs);
    Rng(cfg_.seed, kClusterData).fill(data_.data(), data_.size());
    out_ = Buffer(kK * kBs);
    Rng rng(cfg_.seed, kClusterKills);
    kills_.clear();
    for (int i = 0; i < 1024; ++i) kills_.push_back(static_cast<std::uint32_t>(rng.below(kK)));
    Phase warm;
    for (std::size_t s = 0; s < stripes_; ++s) Cycle(nullptr, warm);
    warm_failed_ = warm.failed;
  }

  Phase run(double seconds, Tracer* tracer) override {
    Phase ph;
    log_->clear();
    const std::int64_t t0 = NowNs();
    while (SecondsSince(t0) < seconds) Cycle(tracer, ph);
    ph.wall_s = SecondsSince(t0);
    ph.submitted = ph.attempted;
    ph.ops = log_->samples();
    ph.unit = kCycle;
    ph.sequential = true;
    return ph;
  }

  bool verify() override { return warm_failed_ == 0 && cycles_ > 0; }

  std::uint64_t input_digest() override {
    Digest d;
    d.add_bytes(data_.data(), data_.size());
    for (const std::uint32_t k : kills_) d.add_u64(k);
    return d.value();
  }

 private:
  void Cycle(Tracer* tracer, Phase& ph) {
    cluster::Coordinator& coord = cluster_->coordinator();
    const std::uint64_t stripe = cycles_ % stripes_;
    std::vector<const std::byte*> in(kK);
    std::vector<std::byte*> out(kK);
    for (std::uint32_t i = 0; i < kK; ++i) {
      in[i] = data_.data() + (stripe * kK + i) * kBs;
      out[i] = out_.data() + i * kBs;
    }
    double cycle_s = 0.0;
    auto call = [&](OpKind kind, const char* name, auto&& fn) {
      const std::uint64_t rpc0 = tracer != nullptr ? ClusterRpcTotal() : 0;
      const std::int64_t s = NowNs();
      const bool ok = fn();
      const std::int64_t e = NowNs();
      if (tracer != nullptr) {
        const std::uint64_t id = tracer->new_id();
        tracer->record({name, s, e, id, 0, id, 0});
        const std::uint64_t rpcs = ClusterRpcTotal() - rpc0;
        if (kind == kWrite) {
          ++ph.layers.cluster_writes;
          ph.layers.rpc_in_writes += rpcs;
        } else if (kind == kDegradedRead) {
          ++ph.layers.cluster_degraded_reads;
          ph.layers.rpc_in_degraded_reads += rpcs;
        }
      }
      ++ph.attempted;
      if (!ok) {
        ++ph.failed;
        return false;
      }
      const double secs = static_cast<double>(e - s) * 1e-9;
      log_->add(secs, 0.0, kind);
      ph.bytes[kind] += kK * kBs;
      cycle_s += secs;
      return true;
    };
    auto read_exact = [&] {
      std::memset(out_.data(), 0xA5, out_.size());
      if (!coord.read_stripe(stripe, out).ok()) return false;
      return std::memcmp(out_.data(), in[0], kK * kBs) == 0;
    };
    bool ok = call(kWrite, "cluster.write", [&] {
      return coord.write_stripe(stripe, in).code == cluster::OpResult::Code::kOk;
    });
    ok = call(kRead, "cluster.read", read_exact) && ok;
    const std::uint32_t lost = kills_[cycles_ % kills_.size()];
    const std::size_t node = cluster_->placement().table(stripe, geom_)[lost] - 1;
    cluster_->kill(node);
    ok = call(kDegradedRead, "cluster.degraded_read", read_exact) && ok;
    cluster_->revive(node);
    if (ok) log_->add(cycle_s, 0.0, kCycle);
    ++cycles_;
  }

  const RunConfig cfg_;
  const std::size_t stripes_;
  cluster::Geometry geom_;
  std::unique_ptr<cluster::LocalCluster> cluster_;
  Buffer data_;
  Buffer out_;
  std::vector<std::uint32_t> kills_;
  std::size_t cycles_ = 0;
  std::uint64_t warm_failed_ = 0;
  std::unique_ptr<SampleLog> log_;
};

}  // namespace

StripeSet::StripeSet(std::size_t k_, std::size_t m_, std::size_t bs_,
                     std::size_t n, Rng rng)
    : k(k_), m(m_), bs(bs_), stripes(n), buf(n * (k_ + m_) * bs_) {
  for (std::size_t s = 0; s < n; ++s) rng.fill(block(s, 0), k * bs);
}

std::vector<const std::byte*> StripeSet::data(std::size_t s) const {
  std::vector<const std::byte*> v;
  for (std::size_t i = 0; i < k; ++i) v.push_back(block(s, i));
  return v;
}

std::vector<std::byte*> StripeSet::parity(std::size_t s) const {
  std::vector<std::byte*> v;
  for (std::size_t j = 0; j < m; ++j) v.push_back(block(s, k + j));
  return v;
}

svc::EncodeRequest StripeSet::request(std::size_t s,
                                      const ec::Codec* codec) const {
  svc::EncodeRequest req;
  req.shape = {k, m, bs};
  req.data = data(s);
  req.parity = parity(s);
  req.codec = codec;
  return req;
}

void StripeSet::digest(Digest& d) const {
  for (std::size_t s = 0; s < stripes; ++s) d.add_bytes(block(s, 0), k * bs);
}

bool StripeSet::verify(const std::vector<bool>& touched) const {
  const ec::IsalCodec ref(k, m);
  bool any = false;
  for (std::size_t s = 0; s < stripes; ++s) {
    if (!touched[s]) continue;
    any = true;
    if (!ParityMatches(ref.generator(), k, m, bs, data(s), parity(s))) {
      return false;
    }
  }
  return any;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "encode_small_hot", "encode_wide_stream", "degraded_read_mix",
      "file_roundtrip", "cluster_rw"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& cfg) {
  if (name == "encode_small_hot") {
    // 64 RS(12,4)/4 KiB stripes: a 4 MiB ring that stays cache-resident.
    return std::make_unique<EncodeStream>(cfg, 12, 4, 4 * kKiB, 64, 32,
                                          cfg.smoke ? 64 : 4096, 400e3);
  }
  if (name == "encode_wide_stream") {
    // RS(48,4)/64 KiB stripes (3 MiB of data each) over 768 MiB, 2.5x
    // a 300 MiB LLC, so every pass streams from DRAM.
    const std::size_t stripes = cfg.smoke ? 8 : (768 * kMiB) / (48 * 64 * kKiB);
    return std::make_unique<EncodeStream>(cfg, 48, 4, 64 * kKiB, stripes, 4,
                                          cfg.smoke ? 4 : 16, 4e3);
  }
  if (name == "degraded_read_mix") return MakeDegradedReadMix(cfg, 2000.0);
  if (name == "file_roundtrip") return std::make_unique<FileRoundtrip>(cfg);
  if (name == "cluster_rw") return std::make_unique<ClusterRw>(cfg);
  return nullptr;
}

std::unique_ptr<Workload> MakeDegradedReadMix(const RunConfig& cfg,
                                              double reads_per_s) {
  return std::make_unique<DegradedReadMix>(cfg, reads_per_s);
}

}  // namespace dbench
