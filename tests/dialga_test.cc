#include "dialga/dialga.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>

#include "bench_util/runner.h"
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

// --- Host face: pure strategy, read-only plan cache ----------------------

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
  SelectorOptions empty_cache;  // selector on, nothing cached
  empty_cache.enabled = true;
  for (const PatternInfo& p : shapes) {
    SCOPED_TRACE(::testing::Message() << "RS(" << p.k << "," << p.m
                                      << ") block " << p.block_size);
    const Coordinator coord(p, Features::all(), Thresholds{}, 0);
    DialgaCodec codec(p.k, p.m);
    EXPECT_EQ(codec.host_strategy(p.block_size), coord.initial_strategy());
    codec.set_selector_options(empty_cache);
    EXPECT_EQ(codec.host_strategy(p.block_size), coord.initial_strategy());
  }
}

TEST(DialgaHostFace, PlanCacheIsReadOnly) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dialga_host_face_cache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "plans.bin";
  constexpr std::size_t kBs = 4096;
  Blocks b = MakeBlocks(8, 3, kBs, 3);
  auto exercise = [&] {
    DialgaCodec codec(8, 3);
    SelectorOptions opts;
    opts.enabled = true;
    opts.learn = true;
    opts.plan_cache_path = path.string();
    codec.set_selector_options(opts);
    for (int i = 0; i < 4; ++i) {
      codec.encode(kBs, b.data_ptrs, b.parity_ptrs);
      const std::vector<std::size_t> erasures{1};
      EXPECT_TRUE(codec.decode(kBs, b.all_ptrs, erasures));
    }
    return codec.host_strategy(kBs);
  };

  // Cold: a miss must not create the file.
  exercise();
  EXPECT_FALSE(fs::exists(path));

  // Warm: a hit replays the cached plan and leaves the file untouched.
  Strategy cached;
  cached.sw_distance = 24;
  PlanCache cache;
  cache.insert(ShapeKey({8, 3, kBs, 1}), {cached.key(), 0.5});
  ASSERT_TRUE(cache.flush(path.string()));
  auto slurp = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string bytes = slurp();
  const auto mtime = fs::last_write_time(path);
  EXPECT_EQ(exercise(), cached);
  EXPECT_EQ(slurp(), bytes);
  EXPECT_EQ(fs::last_write_time(path), mtime);
  fs::remove_all(dir);
}

TEST(DialgaHostFace, PlanCacheReplayHonoursFeatureGates) {
  // A cached entry is a full Strategy; replaying it must apply the same
  // Features gates as the coordinator does, so a codec built without
  // software prefetch runs pd 0 with or without a cache entry.
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "dialga_host_face_gates.bin";
  constexpr std::size_t kBs = 4096;
  const PatternInfo pattern{8, 3, kBs, 1};
  Strategy cached;
  cached.sw_distance = 24;
  cached.xpline_first_distance = 28;
  PlanCache cache;
  cache.insert(ShapeKey(pattern), {cached.key(), 0.5});
  ASSERT_TRUE(cache.flush(path.string()));

  SelectorOptions opts;
  opts.enabled = true;
  opts.learn = false;
  opts.plan_cache_path = path.string();
  for (const Features& f :
       {Features::vanilla(), Features::sw_only(), Features::all()}) {
    SCOPED_TRACE(::testing::Message() << "sw_prefetch " << f.sw_prefetch
                                      << " hw_prefetch " << f.hw_prefetch);
    DialgaCodec codec(8, 3, ec::SimdWidth::kAvx512, f);
    const Strategy cold = codec.host_strategy(kBs);
    codec.set_selector_options(opts);
    const Strategy warm = codec.host_strategy(kBs);
    if (!f.sw_prefetch) {
      EXPECT_EQ(cold.sw_distance, 0u);
      EXPECT_EQ(warm.sw_distance, 0u)
          << "a cached pd-24 entry must not switch software prefetch on";
    }
    EXPECT_EQ(warm, ReplayStrategy(cached, f));
    // Where the coordinator consults the cache, both faces replay alike.
    if (f.adaptive && f.sw_prefetch) {
      const Coordinator coord(pattern, f, Thresholds{}, 0, opts);
      EXPECT_EQ(warm, coord.initial_strategy());
    }
  }
  fs::remove(path);
}

}  // namespace
}  // namespace dialga
