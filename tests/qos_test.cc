// BandwidthGovernor behavior: the headroom gate that shields degraded
// reads from bulk, the watermark hysteresis that keeps bulk from
// wedging, the byte backstop, and exact byte accounting under
// concurrency (run under TSan in CI). Service-level cases: a seeded
// bulk storm that never starves degraded reads, the latency side pool
// serving a decode while bulk holds every main worker, and the aging
// bound granting deferred bulk while its class stays busy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos_seeds.h"
#include "ec/isal.h"
#include "svc/governor.h"
#include "svc/stripe_service.h"

namespace svc {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;
/// The bulk admission backstop, a constant of the governor.
constexpr std::uint64_t kBackstop = 256 * kMiB;

/// Push the EWMA well above ratio * floor: the floor creeps up only
/// 2 % per sample, so a burst of slow samples opens the gap.
void DriveEwmaHigh(BandwidthGovernor& g, double slow_s = 1e-3) {
  for (int i = 0; i < 30; ++i) g.observe_latency(OpClass::kDecode, slow_s);
}

/// Pull the EWMA back to the floor with fast samples.
void DriveEwmaLow(BandwidthGovernor& g, double fast_s = 100e-6) {
  for (int i = 0; i < 40; ++i) g.observe_latency(OpClass::kDecode, fast_s);
}

TEST(Governor, LatencyClassesAlwaysAdmitAndDispatch) {
  BandwidthGovernor g;
  // Past the bulk backstop, twice over: decodes are never held back.
  EXPECT_TRUE(g.try_admit(OpClass::kDecode, kBackstop + 1));
  EXPECT_TRUE(g.try_admit(OpClass::kDecode, kBackstop + 1));
  EXPECT_TRUE(g.try_dispatch(OpClass::kDecode, kBackstop + 1));
  EXPECT_TRUE(g.try_dispatch(OpClass::kDecode, kBackstop + 1));

  const auto s = g.snapshot();
  EXPECT_EQ(s.deferrals, 0u);
  EXPECT_EQ(s.rejected_backstop, 0u);
}

TEST(Governor, BackstopRejectsThrottledClassOverBudget) {
  BandwidthGovernor g;

  EXPECT_FALSE(g.try_admit(OpClass::kEncode, kBackstop + 1))
      << "bulk past the backstop must reject";
  EXPECT_TRUE(g.try_admit(OpClass::kEncode, kBackstop));
  EXPECT_FALSE(g.try_admit(OpClass::kEncode, 1))
      << "queued + in-flight past the backstop must reject";
  const auto s = g.snapshot();
  EXPECT_EQ(s.rejected_backstop, 2u);
  // The rejected bytes were never accounted.
  EXPECT_EQ(s.queued_bytes[static_cast<std::size_t>(OpClass::kEncode)],
            kBackstop);
}

TEST(Governor, OpportunisticDrainRequiresDegradedHeadroom) {
  GovernorConfig cfg;
  cfg.degraded_headroom_ratio = 1.5;
  BandwidthGovernor g(cfg);

  // A degraded read is outstanding, and its observed latency has blown
  // past ratio * floor: bulk must defer.
  ASSERT_TRUE(g.try_admit(OpClass::kDecode, 64 * kKiB));
  DriveEwmaLow(g);   // establish the low-pressure floor
  DriveEwmaHigh(g);  // then lose the headroom
  ASSERT_TRUE(g.try_admit(OpClass::kEncode, 64 * kKiB));
  EXPECT_FALSE(g.try_dispatch(OpClass::kEncode, 64 * kKiB));
  EXPECT_EQ(g.snapshot().deferrals, 1u);

  // Latency recovers -> the same batch drains opportunistically.
  DriveEwmaLow(g);
  EXPECT_TRUE(g.try_dispatch(OpClass::kEncode, 64 * kKiB));
  const auto s = g.snapshot();
  EXPECT_EQ(s.opportunistic_drains, 1u);
  EXPECT_EQ(s.forced_drains, 0u);
}

TEST(Governor, NoLatencyTrafficOutstandingBypassesHeadroom) {
  BandwidthGovernor g;
  DriveEwmaLow(g);
  DriveEwmaHigh(g);  // EWMA terrible, but nobody is waiting
  ASSERT_TRUE(g.try_admit(OpClass::kEncode, 64 * kKiB));
  EXPECT_TRUE(g.try_dispatch(OpClass::kEncode, 64 * kKiB))
      << "with no decode bytes outstanding there is nobody to shield; "
         "bulk must not be held back";
}

TEST(Governor, WatermarkHysteresisForcesDrainUntilLow) {
  GovernorConfig cfg;
  cfg.high_watermark_bytes = 1 * kMiB;
  cfg.low_watermark_bytes = 256 * kKiB;
  cfg.bulk_inflight_cap = 64 * kKiB;
  BandwidthGovernor g(cfg);

  // No headroom and a degraded read outstanding: the opportunistic
  // path is closed, so every grant below must come from the forced
  // drain.
  ASSERT_TRUE(g.try_admit(OpClass::kDecode, 64 * kKiB));
  DriveEwmaLow(g);
  DriveEwmaHigh(g);

  const std::uint64_t chunk = 64 * kKiB;
  const std::uint64_t total = 2 * kMiB;
  ASSERT_TRUE(g.try_admit(OpClass::kEncode, total));

  // Backlog (2 MiB) >= high watermark: drain engages and stays on
  // until the backlog falls to the low watermark.
  std::uint64_t drained = 0;
  while (drained + chunk <= total - cfg.low_watermark_bytes) {
    ASSERT_TRUE(g.try_dispatch(OpClass::kEncode, chunk))
        << "forced drain must ignore the headroom gate and the "
           "in-flight cap (drained so far: "
        << drained << ")";
    drained += chunk;
  }
  auto s = g.snapshot();
  EXPECT_EQ(s.high_crossings, 1u);
  EXPECT_TRUE(s.draining);
  EXPECT_EQ(s.forced_drains, drained / chunk);

  // Backlog now == low watermark: the next attempt disengages the
  // drain and falls back to the (closed) opportunistic path.
  EXPECT_FALSE(g.try_dispatch(OpClass::kEncode, chunk));
  s = g.snapshot();
  EXPECT_EQ(s.low_crossings, 1u);
  EXPECT_FALSE(s.draining);
  EXPECT_EQ(s.deferrals, 1u);
}

TEST(Governor, OversizedBatchBorrowsOnlyWhenClassIdle) {
  GovernorConfig cfg;
  cfg.bulk_inflight_cap = 1 * kMiB;
  BandwidthGovernor g(cfg);

  ASSERT_TRUE(g.try_admit(OpClass::kEncode, 8 * kMiB));
  // Idle class: a 4 MiB batch borrows past the 1 MiB budget.
  EXPECT_TRUE(g.try_dispatch(OpClass::kEncode, 4 * kMiB));
  // Busy class: the next one waits for the borrow to retire.
  EXPECT_FALSE(g.try_dispatch(OpClass::kEncode, 4 * kMiB));
  g.on_complete(OpClass::kEncode, 4 * kMiB);
  EXPECT_TRUE(g.try_dispatch(OpClass::kEncode, 4 * kMiB));
}

// Byte-conservation invariants under concurrent admit / dispatch /
// complete / drop from several threads — the CI tsan job runs this
// binary, so a data race in the governor fails there, and a lost or
// double-counted byte fails the exact equalities here.
TEST(Governor, ByteAccountingExactUnderConcurrency) {
  BandwidthGovernor g;

  // Each thread holds at most one 256 KiB request at a time, far below
  // the backstop, so every admission succeeds.
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<std::uint64_t> expect_admitted{0}, expect_dropped{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      for (int i = 0; i < kIters; ++i) {
        const auto op = static_cast<OpClass>(rng() % kOpClassCount);
        const std::uint64_t bytes = 1 + rng() % (256 * kKiB);
        ASSERT_TRUE(g.try_admit(op, bytes));
        expect_admitted.fetch_add(bytes, std::memory_order_relaxed);
        if (rng() % 8 == 0) {
          g.on_drop(op, bytes);  // cancelled before dispatch
          expect_dropped.fetch_add(bytes, std::memory_order_relaxed);
          continue;
        }
        if (!g.try_dispatch(op, bytes)) g.force_dispatch(op, bytes);
        g.observe_latency(op, 1e-4);
        g.on_complete(op, bytes);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto s = g.snapshot();
  std::uint64_t admitted = 0, dispatched = 0, completed = 0, dropped = 0;
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    EXPECT_EQ(s.queued_bytes[i], 0u) << "class " << i;
    EXPECT_EQ(s.inflight_bytes[i], 0u) << "class " << i;
    EXPECT_EQ(s.admitted_bytes[i], s.dispatched_bytes[i] + s.dropped_bytes[i])
        << "class " << i;
    EXPECT_EQ(s.dispatched_bytes[i], s.completed_bytes[i]) << "class " << i;
    admitted += s.admitted_bytes[i];
    dispatched += s.dispatched_bytes[i];
    completed += s.completed_bytes[i];
    dropped += s.dropped_bytes[i];
  }
  EXPECT_EQ(admitted, expect_admitted.load());
  EXPECT_EQ(dropped, expect_dropped.load());
  EXPECT_EQ(completed, dispatched);
}

/// Delegating codec that runs `before_encode` on the worker ahead of
/// every encode, so a test can park that worker (a busy-wait would not
/// let the dispatcher run ahead on a one-core box). Decodes stay fast.
class HookedEncodeCodec : public ec::Codec {
 public:
  HookedEncodeCodec(const ec::Codec& inner, std::function<void()> before_encode)
      : inner_(inner), before_encode_(std::move(before_encode)) {}
  std::string name() const override { return inner_.name(); }
  ec::CodeParams params() const override { return inner_.params(); }
  ec::SimdWidth simd() const override { return inner_.simd(); }
  void encode(std::size_t block_size,
              std::span<const std::byte* const> data,
              std::span<std::byte* const> parity) const override {
    before_encode_();
    inner_.encode(block_size, data, parity);
  }
  bool decode(std::size_t block_size, std::span<std::byte* const> blocks,
              std::span<const std::size_t> erasures) const override {
    return inner_.decode(block_size, blocks, erasures);
  }
  ec::EncodePlan encode_plan(std::size_t block_size,
                             const simmem::ComputeCost& cost) const override {
    return inner_.encode_plan(block_size, cost);
  }
  ec::EncodePlan decode_plan(
      std::size_t block_size, const simmem::ComputeCost& cost,
      std::span<const std::size_t> erasures) const override {
    return inner_.decode_plan(block_size, cost, erasures);
  }

 private:
  const ec::Codec& inner_;
  std::function<void()> before_encode_;
};

/// Latch that holds pool workers: park() blocks its caller until
/// open(); wait_parked() lets the test see a worker arrive.
class Gate {
 public:
  void park() {
    std::unique_lock<std::mutex> lk(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lk, [this] { return open_; });
  }
  bool wait_parked(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, 10s, [&] { return parked_ >= n; });
  }
  void open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0;
  bool open_ = false;
};

/// RS(4,2) over 16 KiB blocks: one stripe is 96 KiB of governed bytes.
constexpr StripeShape kShape{4, 2, 16 * 1024};

/// One stripe's k + m blocks; data blocks random, parity zeroed.
using Stripe = std::vector<std::vector<std::byte>>;

Stripe MakeStripe(std::mt19937_64& rng) {
  Stripe blocks(kShape.k + kShape.m,
                std::vector<std::byte>(kShape.block_size));
  for (std::size_t i = 0; i < kShape.k; ++i) {
    for (auto& x : blocks[i]) x = static_cast<std::byte>(rng());
  }
  return blocks;
}

EncodeRequest EncodeReq(Stripe& s, const ec::Codec* codec) {
  EncodeRequest req;
  req.shape = kShape;
  req.codec = codec;
  for (std::size_t i = 0; i < kShape.k; ++i) req.data.push_back(s[i].data());
  for (std::size_t j = 0; j < kShape.m; ++j) {
    req.parity.push_back(s[kShape.k + j].data());
  }
  return req;
}

/// Encode `s` serially so its parity is valid, keep block 0 in
/// `golden`, then blank it: the returned request reconstructs it.
DecodeRequest DegradedReq(Stripe& s, const ec::Codec& codec,
                          std::vector<std::byte>* golden) {
  const EncodeRequest enc = EncodeReq(s, &codec);
  codec.encode(kShape.block_size, enc.data, enc.parity);
  *golden = s[0];
  std::fill(s[0].begin(), s[0].end(), std::byte{0});
  DecodeRequest req;
  req.shape = kShape;
  req.codec = &codec;
  req.erasures = {0};
  for (auto& block : s) req.blocks.push_back(block.data());
  return req;
}

// Service-level bulk storm: a governed flood of bulk encodes with
// degraded reads interleaved at seeded positions. Every degraded read
// must be served bit-exact (none rejected, none starved into
// kDeadlineExceeded), every bulk future must resolve kOk, the
// governor's byte accounting must return to zero, and the storm must
// visibly have been shaped.
TEST(GovernedService, BulkStormNeverStarvesDegradedReads) {
  for (const std::uint64_t seed : chaos::Seeds()) {
    GovernorConfig gc;
    // Below one stripe's bytes ((k + m) * block = 96 KiB): every bulk
    // batch borrows alone, so a storm always defers — the shaping
    // assertion below cannot flake on a fast box.
    gc.bulk_inflight_cap = 64 * kKiB;
    gc.degraded_headroom_ratio = 2.5;
    gc.max_defer_ns = 20'000'000;
    BandwidthGovernor governor(gc);

    const ec::IsalCodec codec(kShape.k, kShape.m);
    // Bulk only: each encode parks its worker long enough for the
    // dispatcher to run ahead and find the bulk class busy.
    const HookedEncodeCodec slow(
        codec, [] { std::this_thread::sleep_for(300us); });
    constexpr std::size_t kBulk = 96;
    constexpr std::size_t kDeg = 24;

    std::mt19937_64 rng(seed);
    std::vector<Stripe> bulk_stripes(kBulk);
    for (Stripe& s : bulk_stripes) s = MakeStripe(rng);
    std::vector<Stripe> deg_stripes(kDeg);
    std::vector<std::vector<std::byte>> golden(kDeg);
    std::vector<DecodeRequest> deg_reqs;
    for (std::size_t d = 0; d < kDeg; ++d) {
      deg_stripes[d] = MakeStripe(rng);
      deg_reqs.push_back(DegradedReq(deg_stripes[d], codec, &golden[d]));
    }
    // The seed picks where the degraded reads sit among the bulk
    // submissions, so each seed runs its own schedule.
    std::vector<unsigned char> read_at(kBulk + kDeg, 0);
    std::fill_n(read_at.begin(), kDeg, 1);
    std::shuffle(read_at.begin(), read_at.end(), rng);

    StripeService::Config cfg;
    cfg.queue_capacity = 4096;
    cfg.max_batch = 1;
    cfg.governor = &governor;
    cfg.latency_pool_threads = 1;
    StripeService service(cfg);

    std::vector<std::future<Result>> bulk, degraded;
    std::size_t next_bulk = 0, next_deg = 0;
    for (const unsigned char is_read : read_at) {
      if (is_read != 0) {
        degraded.push_back(service.submit(std::move(deg_reqs[next_deg++])));
      } else {
        bulk.push_back(
            service.submit(EncodeReq(bulk_stripes[next_bulk++], &slow)));
      }
    }

    for (std::size_t d = 0; d < kDeg; ++d) {
      const Result r = degraded[d].get();
      ASSERT_EQ(r.status, StatusCode::kOk)
          << "seed " << seed << " degraded read " << d << ": "
          << to_string(r.status);
      EXPECT_EQ(deg_stripes[d][0], golden[d])
          << "seed " << seed << " reconstruction mismatch";
    }
    for (auto& f : bulk) EXPECT_EQ(f.get().status, StatusCode::kOk);
    service.shutdown();

    const auto gs = governor.snapshot();
    for (std::size_t i = 0; i < kOpClassCount; ++i) {
      EXPECT_EQ(gs.queued_bytes[i], 0u) << "seed " << seed << " class " << i;
      EXPECT_EQ(gs.inflight_bytes[i], 0u) << "seed " << seed << " class " << i;
    }
    // The storm must actually have been shaped, not waved through.
    EXPECT_GT(gs.deferrals + gs.forced_drains + gs.aged_drains, 0u)
        << "seed " << seed
        << " opportunistic=" << gs.opportunistic_drains;
  }
}

// The latency side pool keeps degraded reads off the main pool: with
// the only main worker parked inside a bulk encode, a decode still
// resolves, bit-exact, on the side pool.
TEST(GovernedService, SidePoolServesDecodesWhileBulkHoldsEveryWorker) {
  std::mt19937_64 rng(7);
  const ec::IsalCodec codec(kShape.k, kShape.m);
  Gate gate;
  const HookedEncodeCodec parked(codec, [&gate] { gate.park(); });
  Stripe bulk_stripe = MakeStripe(rng);
  Stripe read_stripe = MakeStripe(rng);
  std::vector<std::byte> golden;
  DecodeRequest read = DegradedReq(read_stripe, codec, &golden);

  BandwidthGovernor governor;
  StripeService::Config cfg;
  cfg.pool_threads = 1;
  cfg.latency_pool_threads = 1;
  cfg.max_batch = 1;
  cfg.governor = &governor;
  StripeService service(cfg);

  auto bulk = service.submit(EncodeReq(bulk_stripe, &parked));
  const bool held = gate.wait_parked(1);
  auto degraded = service.submit(std::move(read));
  const bool served =
      held && degraded.wait_for(10s) == std::future_status::ready;
  const bool bulk_parked = bulk.wait_for(0s) == std::future_status::timeout;
  gate.open();  // before any ASSERT, so a failure cannot hang teardown

  ASSERT_TRUE(held) << "the bulk encode never reached the main worker";
  ASSERT_TRUE(served) << "the degraded read queued behind parked bulk";
  EXPECT_TRUE(bulk_parked) << "the read must be served while bulk is held";
  const Result r = degraded.get();
  EXPECT_EQ(r.status, StatusCode::kOk) << to_string(r.status);
  EXPECT_EQ(read_stripe[0], golden) << "reconstruction mismatch";
  EXPECT_EQ(bulk.get().status, StatusCode::kOk);
}

// Aging bounds how long bulk can be held back. With bulk A parked in
// flight, bulk B is over the in-flight cap, and the backlog is far
// below both watermarks: only max_defer_ns can grant B.
TEST(GovernedService, AgingDispatchesDeferredBulkWhileTheClassStaysBusy) {
  std::mt19937_64 rng(11);
  const ec::IsalCodec codec(kShape.k, kShape.m);
  Gate gate;
  const HookedEncodeCodec parked(codec, [&gate] { gate.park(); });
  Stripe stripe_a = MakeStripe(rng);
  Stripe stripe_b = MakeStripe(rng);

  GovernorConfig gc;
  gc.bulk_inflight_cap = 64 * kKiB;  // below one 96 KiB stripe
  gc.max_defer_ns = 20'000'000;
  BandwidthGovernor governor(gc);
  StripeService::Config cfg;
  cfg.pool_threads = 2;
  cfg.max_batch = 1;
  cfg.governor = &governor;
  StripeService service(cfg);

  auto a = service.submit(EncodeReq(stripe_a, &parked));
  const bool held = gate.wait_parked(1);
  auto b = service.submit(EncodeReq(stripe_b, &codec));
  const bool b_done = held && b.wait_for(10s) == std::future_status::ready;
  const bool a_parked = a.wait_for(0s) == std::future_status::timeout;
  const GovernorStats gs = governor.snapshot();
  gate.open();  // before any ASSERT, so a failure cannot hang teardown

  ASSERT_TRUE(held) << "bulk A never reached a worker";
  ASSERT_TRUE(b_done) << "deferred bulk B never aged out";
  EXPECT_TRUE(a_parked) << "B must be granted while A still holds the class";
  const Result rb = b.get();
  EXPECT_EQ(rb.status, StatusCode::kOk) << to_string(rb.status);
  EXPECT_GE(rb.service_seconds, 0.020);
  EXPECT_EQ(gs.aged_drains, 1u);
  EXPECT_EQ(gs.forced_drains, 0u);
  EXPECT_EQ(a.get().status, StatusCode::kOk);
}

}  // namespace
}  // namespace svc
