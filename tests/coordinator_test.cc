#include "dialga/coordinator.h"

#include <gtest/gtest.h>

#include <set>

#include "dialga/policy.h"
#include "simmem/address_space.h"

namespace dialga {
namespace {

constexpr std::size_t kBuffer = 96 * 1024;

TEST(MaxDistanceForBuffer, Equation1) {
  // Paper's example: 6-channel 96 KB buffer, RS(28,24)-ish encode with
  // NT stores (m = 0): thrashing beyond 12 threads.
  // 12 threads x 28 blocks x 256 B = 86016 <= 98304: one wrap allowed.
  EXPECT_GE(MaxDistanceForBuffer(12, 28, 0, kBuffer), 28u);
  // 18 threads: 129024 > 98304: only the floor distance remains.
  EXPECT_EQ(MaxDistanceForBuffer(18, 28, 0, kBuffer), 8u);
  // Tiny workloads allow enormous distances.
  EXPECT_GT(MaxDistanceForBuffer(1, 4, 2, kBuffer), 100u);
}

TEST(Strategy, PlanOptionsRealization) {
  Strategy s;
  s.hw_prefetch = false;
  s.sw_distance = 24;
  s.xpline_first_distance = 28;
  s.widen_to_xpline = true;
  const ec::IsalPlanOptions o = s.to_plan_options();
  EXPECT_TRUE(o.shuffle_rows);
  EXPECT_EQ(o.prefetch_distance, 24u);
  EXPECT_EQ(o.xpline_first_distance, 28u);
  EXPECT_TRUE(o.widen_to_xpline);
}

TEST(Strategy, KeyDistinguishesStrategies) {
  Strategy a;
  a.sw_distance = 10;
  Strategy b = a;
  b.sw_distance = 11;
  Strategy c = a;
  c.hw_prefetch = false;
  Strategy d = a;
  d.widen_to_xpline = true;
  Strategy e = a;
  e.xpline_first_distance = 14;
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_NE(a.key(), d.key());
  EXPECT_NE(a.key(), e.key());
  EXPECT_EQ(a.key(), Strategy{a}.key());
}

TEST(Coordinator, InitialStrategyNarrowStripeLowThreads) {
  const PatternInfo p{12, 4, 1024, 1};
  const Coordinator c(p, Features::all(), Thresholds{}, kBuffer);
  const Strategy& s = c.initial_strategy();
  EXPECT_TRUE(s.hw_prefetch) << "low pressure keeps the streamer on";
  EXPECT_EQ(s.sw_distance, 12u) << "search starts at d = k";
  EXPECT_EQ(s.xpline_first_distance, 16u) << "BF low pressure: k + 4";
  EXPECT_FALSE(s.widen_to_xpline);
}

TEST(Coordinator, HighConcurrencyDisablesHwAndWidens) {
  const PatternInfo p{28, 24, 1024, 18};
  const Coordinator c(p, Features::all(), Thresholds{}, kBuffer);
  const Strategy& s = c.initial_strategy();
  EXPECT_FALSE(s.hw_prefetch) << "threads > 12 must defeat the streamer";
  EXPECT_TRUE(s.widen_to_xpline);
  EXPECT_LE(s.sw_distance, MaxDistanceForBuffer(18, 28, 24, kBuffer));
  EXPECT_EQ(s.xpline_first_distance, 0u) << "split distances are low-"
                                            "pressure only";
}

TEST(Coordinator, WideStripesLeaveStreamerAlone) {
  const PatternInfo p{48, 4, 1024, 1};
  const Coordinator c(p, Features::all(), Thresholds{}, kBuffer);
  EXPECT_TRUE(c.initial_strategy().hw_prefetch)
      << "k > 32: the streamer self-disables; don't pay for shuffle";
}

TEST(Coordinator, Aligned4KbBlocksRelyOnStreamerAlone) {
  // Fig. 12: the streamer is at peak efficiency on 4 KiB-aligned
  // blocks; software prefetching is withheld under low pressure.
  const PatternInfo p{12, 4, 4096, 1};
  const Coordinator c(p, Features::all(), Thresholds{}, kBuffer);
  EXPECT_TRUE(c.initial_strategy().hw_prefetch);
  EXPECT_EQ(c.initial_strategy().sw_distance, 0u);

  // 5 KiB is not 4 KiB-aligned: software prefetching stays on.
  const Coordinator c5(PatternInfo{12, 4, 5120, 1}, Features::all(),
                       Thresholds{}, kBuffer);
  EXPECT_GT(c5.initial_strategy().sw_distance, 0u);

  // Wide stripes at 4 KiB: the streamer is dead, software prefetch is
  // essential.
  const Coordinator cw(PatternInfo{48, 4, 4096, 1}, Features::all(),
                       Thresholds{}, kBuffer);
  EXPECT_GT(cw.initial_strategy().sw_distance, 0u);

  // High concurrency at 4 KiB: buffer-friendly mode re-engages.
  const Coordinator ch(PatternInfo{28, 24, 4096, 18}, Features::all(),
                       Thresholds{}, kBuffer);
  EXPECT_GT(ch.initial_strategy().sw_distance, 0u);
  EXPECT_TRUE(ch.initial_strategy().widen_to_xpline);
}

TEST(Coordinator, FeatureGates) {
  const PatternInfo p{12, 4, 1024, 1};
  {
    const Coordinator c(p, Features::vanilla(), Thresholds{}, kBuffer);
    const Strategy& s = c.initial_strategy();
    EXPECT_FALSE(s.hw_prefetch);
    EXPECT_EQ(s.sw_distance, 0u);
    EXPECT_FALSE(s.widen_to_xpline);
    EXPECT_EQ(s.xpline_first_distance, 0u);
  }
  {
    const Coordinator c(p, Features::sw_only(), Thresholds{}, kBuffer);
    const Strategy& s = c.initial_strategy();
    EXPECT_FALSE(s.hw_prefetch);
    EXPECT_GT(s.sw_distance, 0u);
    EXPECT_EQ(s.xpline_first_distance, 0u);
  }
  {
    const Coordinator c(p, Features::sw_hw(), Thresholds{}, kBuffer);
    const Strategy& s = c.initial_strategy();
    EXPECT_TRUE(s.hw_prefetch);
    EXPECT_GT(s.sw_distance, 0u);
    EXPECT_EQ(s.xpline_first_distance, 0u);
  }
}

TEST(Coordinator, SamplesAtConfiguredInterval) {
  const PatternInfo p{12, 4, 1024, 1};
  Thresholds thr;
  thr.sample_interval_ns = 1000.0;
  Coordinator c(p, Features::all(), thr, kBuffer);

  simmem::SimConfig cfg;
  simmem::MemorySystem mem(cfg, 1);
  c.strategy(mem);  // clock 0: no sample yet
  EXPECT_EQ(c.samples_taken(), 0u);
  mem.advance_to(0, 1500.0);
  c.strategy(mem);
  EXPECT_EQ(c.samples_taken(), 1u);
  c.strategy(mem);  // same window: no double sampling
  EXPECT_EQ(c.samples_taken(), 1u);
  mem.advance_to(0, 3000.0);
  c.strategy(mem);
  EXPECT_EQ(c.samples_taken(), 2u);
}

TEST(Coordinator, DetectsContentionFromLatencyRegression) {
  const PatternInfo p{12, 4, 1024, 8};
  Thresholds thr;
  thr.sample_interval_ns = 100.0;
  Coordinator c(p, Features::all(), thr, kBuffer);

  simmem::SimConfig cfg;
  simmem::MemorySystem mem(cfg, 1);

  // Window 1: cheap loads (all L1 hits after the first) -> baseline.
  mem.load(0, simmem::kDramBase);
  for (int i = 0; i < 100; ++i) mem.load(0, simmem::kDramBase + 32);
  mem.advance_to(0, 200.0);
  c.strategy(mem);
  ASSERT_EQ(c.samples_taken(), 1u);
  EXPECT_FALSE(c.contention());

  // Window 2: every load is a cold PM miss -> >110 % of baseline.
  for (int i = 0; i < 100; ++i) {
    mem.load(0, simmem::kPmBase + i * simmem::kPageBytes);
  }
  c.strategy(mem);
  ASSERT_EQ(c.samples_taken(), 2u);
  EXPECT_TRUE(c.contention());
}

// Regression for the stale low-pressure baseline: one anomalously
// quiet calibration window used to pin the lifetime-minimum baseline
// forever, reporting contention for the rest of the run even when the
// workload settled into a steady (higher-latency but uncontended)
// state. The sliding-window baseline forgets the outlier once it ages
// out of the ring.
TEST(Coordinator, BaselineRecoversAfterAnomalouslyQuietWindow) {
  const PatternInfo p{12, 4, 1024, 8};
  Thresholds thr;
  thr.sample_interval_ns = 100.0;
  thr.baseline_window = 4;
  Coordinator c(p, Features::all(), thr, kBuffer);

  simmem::SimConfig cfg;
  simmem::MemorySystem mem(cfg, 1);

  // Window 1: unrepresentatively cheap (all L1 hits after the first)
  // — the anomalous calibration window.
  mem.load(0, simmem::kDramBase);
  for (int i = 0; i < 100; ++i) mem.load(0, simmem::kDramBase + 32);
  mem.advance_to(0, 200.0);
  c.strategy(mem);
  ASSERT_EQ(c.samples_taken(), 1u);

  // Every later window is the workload's steady state: cold PM misses,
  // far above the quiet window but stable from window to window.
  auto steady_window = [&](int w) {
    for (int i = 0; i < 100; ++i) {
      mem.load(0, simmem::kPmBase +
                      static_cast<std::size_t>(w * 100 + i) *
                          simmem::kPageBytes);
    }
    mem.advance_to(0, 200.0 + w * 150.0);
    c.strategy(mem);
  };

  steady_window(1);
  ASSERT_EQ(c.samples_taken(), 2u);
  EXPECT_TRUE(c.contention())
      << "right after the quiet window, steady-state latency reads as "
         "contention — expected";
  const double stale_baseline = c.baseline_latency_ns();

  // Run enough steady windows for the quiet observation to age out of
  // the 4-sample ring; the baseline then reflects the steady state and
  // the contention bit clears.
  for (int w = 2; w <= 6; ++w) steady_window(w);
  EXPECT_GT(c.baseline_latency_ns(), stale_baseline)
      << "baseline must forget the quiet window once it leaves the ring";
  EXPECT_FALSE(c.contention())
      << "steady uncontended traffic must stop reading as contention "
         "once the anomalous baseline ages out";
}

// baseline_window = 0 would size an empty baseline ring (the ring
// index is taken modulo its size); the coordinator clamps it to one
// window, so each window is its own baseline and never reads as
// contention against itself.
TEST(Coordinator, ZeroBaselineWindowClampsToOne) {
  const PatternInfo p{12, 4, 1024, 8};
  Thresholds thr;
  thr.sample_interval_ns = 100.0;
  thr.baseline_window = 0;
  Coordinator c(p, Features::all(), thr, kBuffer);

  simmem::SimConfig cfg;
  simmem::MemorySystem mem(cfg, 1);

  mem.load(0, simmem::kDramBase);
  for (int i = 0; i < 100; ++i) mem.load(0, simmem::kDramBase + 32);
  mem.advance_to(0, 200.0);
  c.strategy(mem);
  const double quiet_baseline = c.baseline_latency_ns();

  for (int w = 1; w <= 3; ++w) {
    for (int i = 0; i < 100; ++i) {
      mem.load(0, simmem::kPmBase +
                      static_cast<std::size_t>(w * 100 + i) *
                          simmem::kPageBytes);
    }
    mem.advance_to(0, 200.0 + w * 150.0);
    c.strategy(mem);
  }
  ASSERT_EQ(c.samples_taken(), 4u);
  EXPECT_GT(c.baseline_latency_ns(), quiet_baseline)
      << "a one-window baseline holds only the latest window";
  EXPECT_FALSE(c.contention());
}

TEST(Coordinator, AdaptiveDistanceFollowsClimber) {
  const PatternInfo p{12, 4, 1024, 1};
  Thresholds thr;
  thr.sample_interval_ns = 100.0;
  Coordinator c(p, Features::all(), thr, kBuffer);

  simmem::SimConfig cfg;
  simmem::MemorySystem mem(cfg, 1);
  std::set<std::size_t> distances;
  for (int w = 0; w < 40; ++w) {
    mem.load(0, simmem::kPmBase + w * simmem::kPageBytes);
    mem.advance_to(0, (w + 1) * 150.0);
    distances.insert(c.strategy(mem).sw_distance);
  }
  EXPECT_GT(distances.size(), 1u)
      << "hill climbing must explore multiple distances";
}

}  // namespace
}  // namespace dialga
