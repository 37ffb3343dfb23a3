#include "dialga/dialga.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "ec/executor.h"
#include "ec/isal.h"
#include "obs/metrics.h"

namespace dialga {
namespace {

struct Blocks {
  std::vector<std::vector<std::byte>> storage;
  std::vector<const std::byte*> data_ptrs;
  std::vector<std::byte*> parity_ptrs;
  std::vector<std::byte*> all_ptrs;
};

Blocks MakeBlocks(std::size_t k, std::size_t m, std::size_t bs,
                  std::uint64_t seed) {
  Blocks b;
  std::mt19937_64 rng(seed);
  b.storage.resize(k + m, std::vector<std::byte>(bs));
  for (std::size_t i = 0; i < k; ++i)
    for (auto& byte : b.storage[i]) byte = static_cast<std::byte>(rng());
  for (std::size_t i = 0; i < k; ++i) b.data_ptrs.push_back(b.storage[i].data());
  for (std::size_t j = 0; j < m; ++j)
    b.parity_ptrs.push_back(b.storage[k + j].data());
  for (auto& s : b.storage) b.all_ptrs.push_back(s.data());
  return b;
}

TEST(DialgaCodec, FunctionallyIdenticalToIsal) {
  // DIALGA only reschedules prefetches; the bytes must be bit-identical
  // to stock ISA-L.
  const std::size_t k = 10, m = 4, bs = 1024;
  const DialgaCodec dialga(k, m);
  const ec::IsalCodec isal(k, m);
  Blocks a = MakeBlocks(k, m, bs, 13);
  Blocks b = MakeBlocks(k, m, bs, 13);
  dialga.encode(bs, a.data_ptrs, a.parity_ptrs);
  isal.encode(bs, b.data_ptrs, b.parity_ptrs);
  EXPECT_EQ(a.storage, b.storage);
}

TEST(DialgaCodec, DecodeRoundTrips) {
  const std::size_t k = 8, m = 3, bs = 512;
  const DialgaCodec dialga(k, m);
  Blocks b = MakeBlocks(k, m, bs, 14);
  dialga.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  const std::vector<std::size_t> erasures{1, 5, 9};
  for (const std::size_t e : erasures)
    std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0});
  ASSERT_TRUE(dialga.decode(bs, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(DialgaCodec, StaticPlanContainsPrefetches) {
  const DialgaCodec dialga(12, 4);
  const simmem::ComputeCost cost{};
  const ec::EncodePlan plan = dialga.encode_plan(1024, cost);
  EXPECT_GT(plan.count(ec::PlanOp::Kind::kPrefetch), 0u);
  // Same load/store structure as ISA-L.
  EXPECT_EQ(plan.count(ec::PlanOp::Kind::kLoad), 12u * 16u);
  EXPECT_EQ(plan.count(ec::PlanOp::Kind::kStore), 4u * 16u);
}

TEST(DialgaProvider, CachesPlansPerStrategy) {
  const DialgaCodec dialga(12, 4);
  simmem::SimConfig cfg;
  auto provider = dialga.make_encode_provider({12, 4, 1024, 1}, cfg);
  simmem::MemorySystem mem(cfg, 1);
  const ec::EncodePlan& p1 = provider->next_plan(0, mem);
  const ec::EncodePlan& p2 = provider->next_plan(0, mem);
  EXPECT_EQ(&p1, &p2) << "same strategy must return the cached plan";
  EXPECT_EQ(provider->plans_built(), 1u);
}

TEST(DialgaProvider, AdaptsDuringTimedRun) {
  const DialgaCodec dialga(12, 4);
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 12;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;
  auto provider = dialga.make_encode_provider({12, 4, 1024, 1}, cfg);
  const auto r = bench_util::RunTimed(cfg, wl, *provider);
  EXPECT_GT(provider->coordinator().samples_taken(), 3u);
  EXPECT_GT(provider->plans_built(), 1u)
      << "hill climbing must have materialized several distances";
  EXPECT_GT(r.pmu.sw_prefetches_issued, 0u);
}

TEST(DialgaTimed, BeatsIsalOnSmallBlockPmEncode) {
  // The headline claim (Fig. 10): 1 KiB blocks on PM, narrow stripe.
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 12;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;

  const ec::IsalCodec isal(12, 4);
  const auto base = bench_util::RunEncode(cfg, wl, isal);

  const DialgaCodec dialga(12, 4);
  auto provider = dialga.make_encode_provider({12, 4, 1024, 1}, cfg);
  const auto ours = bench_util::RunTimed(cfg, wl, *provider);

  EXPECT_GT(ours.gbps, base.gbps * 1.3);
}

TEST(DialgaTimed, RescuesWideStripeCollapse) {
  // k > 32 kills the HW streamer (Observation 3); software prefetch
  // must recover most of the loss.
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 48;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;

  const ec::IsalCodec isal(48, 4);
  const auto base = bench_util::RunEncode(cfg, wl, isal);

  const DialgaCodec dialga(48, 4);
  auto provider = dialga.make_encode_provider({48, 4, 1024, 1}, cfg);
  const auto ours = bench_util::RunTimed(cfg, wl, *provider);

  EXPECT_GT(ours.gbps, base.gbps * 2.0);
}

TEST(DialgaTimed, HighConcurrencyUsesBufferFriendlyMode) {
  simmem::SimConfig cfg;
  const DialgaCodec dialga(28, 24);
  auto provider = dialga.make_encode_provider({28, 24, 1024, 16}, cfg);
  EXPECT_FALSE(provider->coordinator().initial_strategy().hw_prefetch);
  EXPECT_TRUE(provider->coordinator().initial_strategy().widen_to_xpline);

  bench_util::WorkloadConfig wl;
  wl.k = 28;
  wl.m = 24;
  wl.block_size = 1024;
  wl.threads = 16;
  wl.total_data_bytes = 16ull << 20;
  const auto ours = bench_util::RunTimed(cfg, wl, *provider);

  const ec::IsalCodec isal(28, 24);
  const auto base = bench_util::RunEncode(cfg, wl, isal);
  EXPECT_GT(ours.gbps, base.gbps);
  EXPECT_LT(ours.media_amplification(), base.media_amplification())
      << "BF mode must reduce PM media read amplification (Fig. 19)";
}

TEST(DialgaTimed, BreakdownFeaturesAreCumulative) {
  // Fig. 18: Vanilla <= +SW <= +SW+HW <= full (allowing small noise).
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 12;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;

  auto run = [&](Features f) {
    const DialgaCodec codec(12, 4, ec::SimdWidth::kAvx512, f);
    auto provider = codec.make_encode_provider({12, 4, 1024, 1}, cfg);
    return bench_util::RunTimed(cfg, wl, *provider).gbps;
  };
  const double vanilla = run(Features::vanilla());
  const double sw = run(Features::sw_only());
  const double sw_hw = run(Features::sw_hw());
  const double full = run(Features::all());
  EXPECT_GT(sw, vanilla);
  EXPECT_GT(sw_hw, sw * 0.95);
  EXPECT_GT(full, sw_hw * 0.95);
  EXPECT_GT(full, vanilla * 1.2);
}

TEST(DialgaCodec, NameAndAccessors) {
  const DialgaCodec d(12, 4);
  EXPECT_EQ(d.name(), "DIALGA");
  EXPECT_EQ(d.params().k, 12u);
  EXPECT_TRUE(d.features().buffer_friendly);
  EXPECT_EQ(d.inner().name(), "ISA-L");
}

// --- Host face: pure strategy -------------------------------------------

TEST(DialgaHostFace, EncodesPublishNoCoordinatorMetrics) {
  // RS(48,4) runs pd 48, not the default strategy: a per-call
  // Coordinator used to count a strategy flip on every encode and
  // overwrite the live coordinator's gauges.
  const DialgaCodec codec(48, 4);
  constexpr std::size_t kBs = 64 * 1024;
  ASSERT_FALSE(codec.host_strategy(kBs) == Strategy{});
  Blocks b = MakeBlocks(48, 4, kBs, 17);
  const obs::Counter& flips = obs::Registry::Global().counter(
      "dialga_coord_strategy_flips_total");
  const std::uint64_t before = flips.value();
  for (int i = 0; i < 100; ++i) {
    codec.encode(kBs, b.data_ptrs, b.parity_ptrs);
  }
  EXPECT_EQ(flips.value(), before);
}

TEST(DialgaHostFace, StrategyMatchesCoordinatorInitialStrategy) {
  // The golden_plan_test shapes plus the paper's narrow, small-block
  // and wide shapes.
  const PatternInfo shapes[] = {
      {2, 1, 128, 1},    {1, 1, 256, 1},   {2, 1, 512, 1},
      {2, 1, 256, 1},    {12, 4, 1024, 1}, {12, 4, 4096, 1},
      {12, 4, 65636, 1}, {48, 4, 65536, 1}};
  for (const PatternInfo& p : shapes) {
    SCOPED_TRACE(::testing::Message() << "RS(" << p.k << "," << p.m
                                      << ") block " << p.block_size);
    const Coordinator coord(p, Features::all(), Thresholds{}, 0);
    const DialgaCodec codec(p.k, p.m);
    EXPECT_EQ(codec.host_strategy(p.block_size), coord.initial_strategy());
  }
}

// --- Phase shift: the section 4.1 ladder + hill climb under a moving shape

/// One phase of the 1 <-> 16-thread alternation, measured in sampling
/// windows.
struct PhaseOutcome {
  std::size_t nthreads = 0;
  std::size_t windows = 0;   ///< sampling windows inside the phase
  std::size_t to_95 = 0;     ///< windows until >= 95 % of steady state
  double steady_gbps = 0.0;  ///< median of the phase's second half
};

struct ShiftRun {
  std::vector<PhaseOutcome> phases;
  std::vector<WindowRecord> windows;
};

/// Drive 8 phases alternating RS(12,4)/1 KiB encodes between 1 and 16
/// threads through one adaptive provider over one persistent memory
/// system, so the coordinator's sampling state carries across the
/// shifts as it would in a long-lived service process. ec::RunThreads
/// runs each phase directly (bench_util::RunTimed would build a fresh
/// MemorySystem and restart the clock).
ShiftRun RunPhaseShift() {
  constexpr std::size_t kK = 12, kM = 4, kBlock = 1024, kMaxThreads = 16;
  constexpr std::size_t kPhases = 8;
  const simmem::SimConfig sim;
  Thresholds thr;
  // Dense sampling: recovery is counted in windows, so a phase must
  // span enough of them for "within 3 windows" to constrain anything.
  thr.sample_interval_ns = 2.0e5;
  const DialgaCodec codec(kK, kM, ec::SimdWidth::kAvx512, Features::all(),
                          thr);
  auto provider = codec.make_encode_provider({kK, kM, kBlock, 1}, sim);
  provider->coordinator().set_record_windows(true);

  simmem::MemorySystem mem(sim, kMaxThreads);
  std::vector<std::size_t> phase_start;
  for (std::size_t p = 0; p < kPhases; ++p) {
    const std::size_t nthreads = p % 2 == 0 ? 1 : kMaxThreads;
    provider->observe_pattern({kK, kM, kBlock, nthreads});
    phase_start.push_back(provider->coordinator().windows().size());

    bench_util::WorkloadConfig wc;
    wc.k = kK;
    wc.m = kM;
    wc.block_size = kBlock;
    wc.threads = nthreads;
    wc.total_data_bytes = nthreads == 1 ? (3ull << 20) : (24ull << 20);
    wc.seed = 100 + p;
    bench_util::Workload wl = bench_util::BuildWorkload(wc);
    for (ec::ThreadWork& w : wl.work) w.provider = provider.get();
    ec::RunThreads(mem, wl.work);
    // Bring every core to the same clock before the next phase: a
    // 1-thread phase leaves core 0 far ahead, and the next 16-thread
    // phase would otherwise interleave "in the past".
    const double clock = mem.max_clock();
    for (std::size_t t = 0; t < kMaxThreads; ++t) mem.advance_to(t, clock);
  }

  ShiftRun run;
  run.windows = provider->coordinator().windows();
  for (std::size_t p = 0; p < kPhases; ++p) {
    const std::size_t lo = phase_start[p];
    const std::size_t hi =
        p + 1 < kPhases ? phase_start[p + 1] : run.windows.size();
    PhaseOutcome out;
    out.nthreads = p % 2 == 0 ? 1 : kMaxThreads;
    out.windows = hi - lo;
    std::vector<double> tail;
    for (std::size_t i = lo + out.windows / 2; i < hi; ++i) {
      tail.push_back(run.windows[i].gbps);
    }
    std::sort(tail.begin(), tail.end());
    out.steady_gbps = tail.empty() ? 0.0 : tail[tail.size() / 2];
    out.to_95 = out.windows;  // "never" until a window reaches it
    for (std::size_t i = lo; i < hi; ++i) {
      if (run.windows[i].gbps >= 0.95 * out.steady_gbps) {
        out.to_95 = i - lo;
        break;
      }
    }
    run.phases.push_back(out);
  }
  return run;
}

TEST(DialgaTimed, PhaseShiftRecoversWithinThreeWindowsAndReplays) {
  const ShiftRun a = RunPhaseShift();
  for (std::size_t p = 0; p < a.phases.size(); ++p) {
    const PhaseOutcome& o = a.phases[p];
    std::printf("phase %zu  threads %2zu  windows %2zu  to_95 %zu  "
                "steady %.3f GB/s\n",
                p, o.nthreads, o.windows, o.to_95, o.steady_gbps);
    SCOPED_TRACE(::testing::Message() << "phase " << p);
    EXPECT_GE(o.windows, 6u);
    EXPECT_LE(o.to_95, 3u);
  }
  // Decisions are a pure function of the window sequence: no seed, no
  // state outside the coordinator.
  EXPECT_EQ(a.windows, RunPhaseShift().windows);
}

}  // namespace
}  // namespace dialga
