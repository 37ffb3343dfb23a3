// Plan-cache strategy selection (src/dialga/selector.*): the pinned
// shape key, plan-cache round-trip including corrupt-file rejection and
// files written by earlier builds, the selector's credit, commit and
// eviction rules and its replayability, and the coordinator-level
// replay/warm-start contracts.
#include "dialga/selector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dialga/coordinator.h"
#include "integrity/checksum.h"
#include "simmem/address_space.h"
#include "simmem/memory_system.h"

namespace dialga {
namespace {

constexpr PatternInfo kShape{12, 4, 1024, 4};

std::string TempPath(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dialga_selector_test_") + stem))
      .string();
}

// --- Shape key -------------------------------------------------------

TEST(ShapeKey, PinnedSoExistingCacheFilesKeepHit) {
  // Every cache file on disk is keyed by these values; changing the
  // packing orphans all of them.
  EXPECT_EQ(ShapeKey({12, 4, 1024, 1}), 0x4A04000Cu);
  EXPECT_EQ(ShapeKey({12, 4, 1024, 16}), 0x40A04000Cu);
  EXPECT_EQ(ShapeKey({48, 4, 65536, 1}), 0x50040030u);

  // Each shape field moves the key.
  PatternInfo b = kShape;
  b.nthreads = kShape.nthreads + 1;
  EXPECT_NE(ShapeKey(kShape), ShapeKey(b));
  b = kShape;
  b.k = kShape.k + 1;
  EXPECT_NE(ShapeKey(kShape), ShapeKey(b));
  b = kShape;
  b.block_size = kShape.block_size * 2;
  EXPECT_NE(ShapeKey(kShape), ShapeKey(b));
}

// --- Strategy::from_key round-trip ------------------------------------

TEST(Strategy, KeyRoundTrips) {
  Strategy s;
  s.hw_prefetch = false;
  s.sw_distance = 48;
  s.xpline_first_distance = 52;
  s.widen_to_xpline = true;
  s.sw_tail_offset = 8192;
  EXPECT_EQ(Strategy::from_key(s.key()), s);
  EXPECT_EQ(Strategy::from_key(Strategy{}.key()), Strategy{});
}

// --- Plan cache -------------------------------------------------------

TEST(PlanCache, RoundTripsThroughFile) {
  const std::string path = TempPath("roundtrip");
  std::remove(path.c_str());

  PlanCache cache;
  Strategy s;
  s.hw_prefetch = false;
  s.sw_distance = 64;
  cache.insert(0x1234, {s.key(), 0.75});
  cache.insert(0x5678, {Strategy{}.key(), -0.25});
  ASSERT_TRUE(cache.dirty());
  ASSERT_TRUE(cache.flush(path));
  EXPECT_FALSE(cache.dirty());

  PlanCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 2u);
  const PlanCache::Entry* e = loaded.lookup(0x1234);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->strategy_key, s.key());
  EXPECT_DOUBLE_EQ(e->reward, 0.75);
  EXPECT_EQ(loaded.lookup(0x9999), nullptr);
  std::remove(path.c_str());
}

TEST(PlanCache, SerializationIsCanonical) {
  // Insertion order must not leak into the bytes (entries sort by key),
  // so identical contents always produce identical files.
  PlanCache a, b;
  a.insert(1, {10, 0.0});
  a.insert(2, {20, 0.0});
  b.insert(2, {20, 0.0});
  b.insert(1, {10, 0.0});
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(PlanCache, CorruptFileIsRejectedAndIgnored) {
  const std::string path = TempPath("corrupt");
  PlanCache cache;
  cache.insert(0xAB, {Strategy{}.key(), 1.0});
  ASSERT_TRUE(cache.flush(path));

  // Flip one byte in the middle: the CRC-32C trailer must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(18);
    char c;
    f.seekg(18);
    f.get(c);
    f.seekp(18);
    f.put(static_cast<char>(c ^ 0x40));
  }
  PlanCache corrupt;
  EXPECT_FALSE(corrupt.load(path));
  EXPECT_EQ(corrupt.size(), 0u) << "corrupt cache must load empty";

  // Truncated file.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write("DPLC", 4);
  }
  EXPECT_FALSE(corrupt.load(path));
  EXPECT_EQ(corrupt.size(), 0u);

  // Version skew: valid CRC, wrong version.
  {
    PlanCache v;
    v.insert(0xCD, {Strategy{}.key(), 0.5});
    auto bytes = v.serialize();
    bytes[4] ^= 0x01;  // bump version field...
    // ...and re-seal the checksum so only the version mismatches.
    const std::size_t body = bytes.size() - 4;
    const std::uint32_t crc = integrity::Crc32c(bytes.data(), body);
    for (int i = 0; i < 4; ++i) {
      bytes[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    PlanCache skewed;
    EXPECT_FALSE(skewed.deserialize(bytes));
  }
  std::remove(path.c_str());
}

TEST(PlanCache, FileWrittenBeforeTheKeyRefactorStillHits) {
  // A version-1 file as PlanCache::flush wrote it while the key was
  // computed from the selector's per-window feature struct: RS(12,4)
  // 1 KiB at 1 and 16 threads, and RS(48,4) 64 KiB at 1 thread.
  const std::vector<std::uint8_t> golden = {
      0x44, 0x50, 0x4C, 0x43, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0C, 0x00, 0x04, 0x4A, 0x00, 0x00, 0x00, 0x00,
      0xC1, 0x00, 0x00, 0x34, 0x00, 0x00, 0x00, 0x00, 0xE8, 0x03, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x30, 0x00, 0x04, 0x50, 0x00, 0x00, 0x00, 0x00,
      0xC1, 0x00, 0x00, 0x34, 0x00, 0x00, 0x00, 0x00, 0xF4, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0C, 0x00, 0x04, 0x0A, 0x04, 0x00, 0x00, 0x00,
      0x80, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE8, 0x03, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xF8, 0x2F, 0xC6, 0x30,
  };
  const std::string path = TempPath("golden_v1");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(golden.data()),
            static_cast<std::streamsize>(golden.size()));
  }
  PlanCache cache;
  ASSERT_TRUE(cache.load(path));
  EXPECT_EQ(cache.serialize(), golden) << "the file format must not move";

  Strategy narrow;  // the 1-thread and the wide entry
  narrow.sw_distance = 48;
  narrow.xpline_first_distance = 52;
  Strategy contended;  // the 16-thread entry
  contended.hw_prefetch = false;
  contended.sw_distance = 96;
  const PlanCache::Entry* e = cache.lookup(ShapeKey({12, 4, 1024, 1}));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(Strategy::from_key(e->strategy_key), narrow);
  e = cache.lookup(ShapeKey({48, 4, 65536, 1}));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(Strategy::from_key(e->strategy_key), narrow);
  EXPECT_DOUBLE_EQ(e->reward, 0.5);

  // A coordinator pointed at the file replays the entry on its first
  // stripe.
  SelectorOptions opts;
  opts.enabled = true;
  opts.learn = false;
  opts.plan_cache_path = path;
  const Coordinator c({12, 4, 1024, 16}, Features::all(), Thresholds{},
                      96 * 1024, opts);
  EXPECT_EQ(c.initial_strategy(), contended);
  EXPECT_EQ(c.selector()->stats().cache_hits, 1u);
  std::remove(path.c_str());
}

// --- Selector ---------------------------------------------------------

TEST(StrategySelector, CacheMissDefersToTheSearch) {
  SelectorOptions opts;
  opts.enabled = true;
  StrategySelector sel(opts);

  // Nothing committed: the ladder + hill climb decide the window.
  EXPECT_FALSE(sel.decide(kShape).has_value());
  EXPECT_EQ(sel.stats().fallbacks, 1u);
  EXPECT_EQ(sel.stats().cache_misses, 1u);

  Strategy converged;
  converged.sw_distance = 32;
  sel.commit(kShape, converged);
  EXPECT_EQ(sel.decide(kShape), converged);
  EXPECT_EQ(sel.stats().cache_hits, 1u);
  EXPECT_EQ(sel.stats().fallbacks, 1u);

  StrategySelector off{SelectorOptions{}};
  EXPECT_FALSE(off.decide(kShape).has_value());
  EXPECT_EQ(off.stats().fallbacks, 0u) << "a disabled selector counts nothing";
}

TEST(StrategySelector, EvidenceBatchCommitsBestRepeatedStrategy) {
  SelectorOptions opts;
  opts.enabled = true;
  StrategySelector sel(opts);

  Strategy slow, lucky, fast;
  slow.sw_distance = 12;
  lucky.sw_distance = 64;
  fast.sw_distance = 24;
  // Eight searched windows: `lucky` is the single fastest window, but a
  // strategy seen once never qualifies; `fast` has the best mean among
  // the repeated ones.
  const std::pair<Strategy, double> windows[] = {
      {slow, 10.0}, {fast, 12.0}, {lucky, 50.0}, {slow, 10.0},
      {fast, 12.0}, {slow, 10.0}, {fast, 12.0}, {fast, 12.0},
  };
  for (std::size_t i = 0; i < std::size(windows); ++i) {
    ASSERT_FALSE(sel.decide(kShape).has_value());
    sel.note_applied(windows[i].first);
    sel.credit(windows[i].second);
    EXPECT_EQ(sel.stats().commits, i + 1 < std::size(windows) ? 0u : 1u);
  }
  EXPECT_EQ(sel.decide(kShape), fast);
}

TEST(StrategySelector, BadStreakEvictsCachedEntry) {
  SelectorOptions opts;
  opts.enabled = true;
  StrategySelector sel(opts);
  Strategy cached;
  cached.sw_distance = 40;
  sel.commit(kShape, cached);

  // One window at the shape's peak, then a cached strategy that keeps
  // running far below it: the eighth bad window in a row evicts it.
  ASSERT_EQ(sel.decide(kShape), cached);
  sel.note_applied(cached);
  sel.credit(10.0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(sel.decide(kShape), cached) << "evicted after " << i;
    sel.note_applied(cached);
    sel.credit(1.0);
  }
  EXPECT_FALSE(sel.decide(kShape).has_value());
  EXPECT_EQ(sel.plan_cache().size(), 0u);
}

TEST(StrategySelector, OnlineUpdatesConvergeOnSyntheticRewards) {
  // Credits alone teach the cache. A search cycling through four
  // distances on a synthetic landscape (pd 32 is the optimum; every
  // window carries a small deterministic ripple) commits the optimum
  // after one evidence batch. The cached optimum then survives one
  // lucky 50 GB/s window: the shape's peak decays, so the steady state
  // is back above the eviction bar before a bad streak can form.
  SelectorOptions opts;
  opts.enabled = true;
  StrategySelector sel(opts);
  const auto landscape = [](const Strategy& s, int window) {
    const double ripple = 0.1 * (window % 3);
    return (s.sw_distance == 32 ? 12.0 : 9.0 - s.sw_distance / 32.0) + ripple;
  };

  int window = 0;
  for (; sel.stats().commits == 0; ++window) {
    ASSERT_LT(window, 8) << "one evidence batch must suffice";
    ASSERT_FALSE(sel.decide(kShape).has_value());
    Strategy probe;
    probe.sw_distance = 16 * (1 + window % 4);
    sel.note_applied(probe);
    sel.credit(landscape(probe, window));
  }
  EXPECT_EQ(window, 8);

  Strategy best;
  best.sw_distance = 32;
  for (int i = 0; i < 16; ++i, ++window) {
    const std::optional<Strategy> d = sel.decide(kShape);
    ASSERT_EQ(d, best) << "window " << window;
    sel.note_applied(*d);
    sel.credit(i == 2 ? 50.0 : landscape(*d, window));
  }
  EXPECT_EQ(sel.stats().commits, 1u);
  EXPECT_EQ(sel.stats().fallbacks, 8u);
  EXPECT_EQ(sel.plan_cache().size(), 1u);
}

TEST(StrategySelector, ColdModelFallsBackUntilMinUpdates) {
  // An empty cache leaves every window to the search, each counted as a
  // fallback, until a full evidence batch of credited windows (eight)
  // commits. An idle window (no throughput) is not evidence. From the
  // commit on, the shape never falls back again.
  SelectorOptions opts;
  opts.enabled = true;
  StrategySelector sel(opts);
  Strategy searched;
  searched.sw_distance = 24;

  std::uint64_t windows = 0;
  for (int credited = 0; credited < 8; ++windows) {
    ASSERT_FALSE(sel.decide(kShape).has_value()) << "window " << windows;
    EXPECT_EQ(sel.stats().fallbacks, windows + 1);
    sel.note_applied(searched);
    if (windows % 3 == 1) {
      sel.credit(0.0);  // idle window
    } else {
      sel.credit(6.0);
      ++credited;
    }
    EXPECT_EQ(sel.stats().commits, credited < 8 ? 0u : 1u);
  }
  EXPECT_GT(windows, 8u) << "idle windows must not count toward the batch";

  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(sel.decide(kShape), searched);
    sel.note_applied(searched);
    sel.credit(6.0);
  }
  EXPECT_EQ(sel.stats().fallbacks, windows);
}

TEST(StrategySelector, LowConfidenceMarginTriggersFallback) {
  // A batch in which no strategy ran twice is too thin to trust (any of
  // its windows may be a startup or noise outlier), so nothing commits
  // and the search keeps deciding. The commit waits for a batch in
  // which a strategy repeats.
  SelectorOptions opts;
  opts.enabled = true;
  StrategySelector sel(opts);
  for (int w = 0; w < 8; ++w) {
    ASSERT_FALSE(sel.decide(kShape).has_value());
    Strategy probe;
    probe.sw_distance = 8 * static_cast<std::size_t>(w + 1);  // each once
    sel.note_applied(probe);
    sel.credit(20.0 - w);
  }
  EXPECT_EQ(sel.stats().commits, 0u);
  EXPECT_EQ(sel.plan_cache().size(), 0u);

  Strategy repeated;
  repeated.sw_distance = 40;
  for (int w = 0; w < 8; ++w) {
    ASSERT_FALSE(sel.decide(kShape).has_value()) << "committed early at " << w;
    sel.note_applied(repeated);
    sel.credit(15.0);
  }
  EXPECT_EQ(sel.stats().fallbacks, 16u);
  EXPECT_EQ(sel.decide(kShape), repeated);
}

TEST(StrategySelector, CreditTrainsThePendingEpisode) {
  // A credit counts once, for the window decide() opened, under the
  // strategy note_applied() reported as run. The first window after a
  // shape switch straddles the boundary and is dropped.
  SelectorOptions opts;
  opts.enabled = true;
  StrategySelector sel(opts);
  Strategy applied;
  applied.hw_prefetch = false;
  applied.sw_distance = 16;

  sel.credit(10.0);  // no window open: ignored
  for (int i = 0; i < 8; ++i) {
    ASSERT_FALSE(sel.decide(kShape).has_value());
    sel.note_applied(applied);
    sel.credit(10.0);
    sel.credit(10.0);  // the episode is closed: ignored
    EXPECT_EQ(sel.stats().commits, i < 7 ? 0u : 1u) << "window " << i;
  }
  EXPECT_EQ(sel.decide(kShape), applied)
      << "the evidence belongs to the strategy that ran";
  sel.credit(10.0);

  PatternInfo other = kShape;
  other.nthreads = 16;
  for (int i = 0; i < 9; ++i) {
    ASSERT_FALSE(sel.decide(other).has_value());
    sel.note_applied(applied);
    sel.credit(10.0);
    EXPECT_EQ(sel.stats().commits, i < 8 ? 1u : 2u)
        << "window " << i << " after the switch";
  }
}

TEST(StrategySelector, DecisionsAreSeedReplayable) {
  // The selector's seed is the plan cache it starts from. The same seed
  // and the same (shape, throughput) sequence give the same decisions,
  // through commits, replays and an eviction; another seed gives
  // others.
  Strategy seeded;
  seeded.hw_prefetch = false;
  seeded.sw_distance = 96;
  PatternInfo wide = kShape;
  wide.nthreads = 16;
  const auto run = [&](bool seed_cache) {
    SelectorOptions opts;
    opts.enabled = true;
    StrategySelector sel(opts);
    if (seed_cache) {
      sel.plan_cache().insert(ShapeKey(wide), {seeded.key(), 1.0});
    }
    std::vector<std::int64_t> stream;
    for (int w = 0; w < 48; ++w) {
      const bool narrow = (w / 12) % 2 == 0;
      const std::optional<Strategy> d = sel.decide(narrow ? kShape : wide);
      stream.push_back(d ? static_cast<std::int64_t>(d->key()) : -1);
      Strategy ran = d.value_or(Strategy{});
      if (!d) ran.sw_distance = 16 * static_cast<std::size_t>(1 + w % 3);
      sel.note_applied(ran);
      // The narrow shape's committed entry runs far below the shape's
      // peak from window 26 on, until it is evicted.
      sel.credit(narrow && d && w >= 26 ? 0.5 : 4.0 + w % 3);
    }
    return stream;
  };
  const auto a = run(true);
  ASSERT_EQ(a.size(), 48u);
  EXPECT_EQ(a.front(), -1) << "the narrow shape starts uncached";
  EXPECT_EQ(a[12], static_cast<std::int64_t>(seeded.key()));
  EXPECT_NE(a[24], -1) << "the narrow shape committed in its first phase";
  EXPECT_EQ(a[35], -1) << "and its entry was evicted in its second";
  EXPECT_EQ(a, run(true));
  EXPECT_NE(a, run(false));
}

TEST(StrategySelector, WarmCacheSkipsExplorationEntirely) {
  const std::string path = TempPath("warm");
  std::remove(path.c_str());
  Strategy converged;
  converged.hw_prefetch = false;
  converged.sw_distance = 48;

  {
    SelectorOptions opts;
    opts.enabled = true;
    opts.plan_cache_path = path;
    StrategySelector sel(opts);
    sel.commit(kShape, converged);
    // Destructor is the graceful-shutdown flush.
  }

  SelectorOptions warm;
  warm.enabled = true;
  warm.plan_cache_path = path;
  StrategySelector sel(warm);
  for (int i = 0; i < 16; ++i) {
    const std::optional<Strategy> d = sel.decide(kShape);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, converged);
    sel.note_applied(*d);
    sel.credit(5.0);
  }
  EXPECT_EQ(sel.stats().fallbacks, 0u)
      << "a populated plan cache must skip exploration entirely";
  std::remove(path.c_str());
}

TEST(StrategySelector, PeriodicFlushFollowsInjectedClock) {
  const std::string path = TempPath("periodic");
  std::remove(path.c_str());
  std::uint64_t now = 0;

  SelectorOptions opts;
  opts.enabled = true;
  opts.plan_cache_path = path;
  opts.flush_period_ns = 1'000'000;
  opts.time = VirtualTime::Manual(&now);
  StrategySelector sel(opts);

  sel.commit(kShape, Strategy{});
  sel.maybe_flush();
  EXPECT_EQ(sel.stats().flushes, 0u) << "period not yet elapsed";
  now += 2'000'000;
  sel.maybe_flush();
  EXPECT_EQ(sel.stats().flushes, 1u);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::remove(path.c_str());
}

TEST(StrategySelector, NoLearnFreezesModelAndCache) {
  const std::string path = TempPath("frozen");
  std::remove(path.c_str());
  SelectorOptions opts;
  opts.enabled = true;
  opts.learn = false;
  opts.plan_cache_path = path;
  {
    StrategySelector sel(opts);
    sel.commit(kShape, Strategy{});  // no-op when frozen
    for (int i = 0; i < 16; ++i) {  // two evidence batches
      EXPECT_FALSE(sel.decide(kShape).has_value());
      sel.note_applied(Strategy{});
      sel.credit(7.0);
    }
    EXPECT_EQ(sel.stats().commits, 0u);
    EXPECT_EQ(sel.plan_cache().size(), 0u);
  }
  EXPECT_FALSE(std::filesystem::exists(path))
      << "a frozen selector must never write the cache";
}

// --- Env hardening ----------------------------------------------------

TEST(SelectorOptions, FromEnvParsesAndHardens) {
  setenv("DIALGA_PLAN_CACHE", "/tmp/dialga_env_cache", 1);
  SelectorOptions opts = SelectorOptions::FromEnv();
  EXPECT_TRUE(opts.enabled);
  EXPECT_EQ(opts.plan_cache_path, "/tmp/dialga_env_cache");

  // Flag hardening: garbage keeps the default, off disables.
  setenv("DIALGA_SELECTOR", "maybe", 1);
  EXPECT_TRUE(SelectorOptions::FromEnv().enabled);
  setenv("DIALGA_SELECTOR", "off", 1);
  EXPECT_FALSE(SelectorOptions::FromEnv().enabled);

  unsetenv("DIALGA_PLAN_CACHE");
  unsetenv("DIALGA_SELECTOR");
}

// --- Coordinator integration ------------------------------------------

constexpr std::size_t kBuffer = 96 * 1024;

TEST(CoordinatorSelector, DefaultConstructionHasNoSelector) {
  const PatternInfo pattern{12, 4, 1024, 1};
  Coordinator c(pattern, Features::all(), Thresholds{}, kBuffer);
  EXPECT_EQ(c.selector(), nullptr);
}

TEST(CoordinatorSelector, DisabledOptionsMatchLegacyInitialStrategy) {
  const PatternInfo pattern{12, 4, 1024, 1};
  Coordinator legacy(pattern, Features::all(), Thresholds{}, kBuffer);
  Coordinator with_opts(pattern, Features::all(), Thresholds{}, kBuffer,
                        SelectorOptions{});
  EXPECT_EQ(legacy.initial_strategy(), with_opts.initial_strategy());
}

TEST(CoordinatorSelector, WarmCacheDecidesFirstStripe) {
  const std::string path = TempPath("coord_warm");
  std::remove(path.c_str());
  const PatternInfo pattern{12, 4, 1024, 1};

  Strategy converged;
  converged.hw_prefetch = false;
  converged.sw_distance = 96;
  {
    SelectorOptions opts;
    opts.enabled = true;
    opts.plan_cache_path = path;
    StrategySelector sel(opts);
    sel.commit(pattern, converged);
  }

  SelectorOptions opts;
  opts.enabled = true;
  opts.plan_cache_path = path;
  opts.learn = false;
  Coordinator c(pattern, Features::all(), Thresholds{}, kBuffer, opts);
  ASSERT_NE(c.selector(), nullptr);
  // The cached plan must be in force before any sampling happens.
  EXPECT_EQ(c.initial_strategy(), converged);
  EXPECT_EQ(c.selector()->stats().fallbacks, 0u);
  std::remove(path.c_str());
}

TEST(CoordinatorSelector, WindowsAreReplayableFromSeedAndCache) {
  // Two coordinators with identical options and plan-cache state,
  // driven through an identical window sequence (the hill climb from
  // its d = k seed on a miss, then a shift onto a cached shape), must
  // record identical (strategy, cache hit) streams — decisions are
  // bit-replayable from the cache state alone.
  const PatternInfo searched{12, 4, 1024, 1};
  const PatternInfo cached{12, 4, 1024, 16};
  Strategy plan;
  plan.hw_prefetch = false;
  plan.sw_distance = 16;
  const auto run = [&] {
    Thresholds thr;
    thr.sample_interval_ns = 1000.0;
    SelectorOptions opts;
    opts.enabled = true;
    Coordinator c(searched, Features::all(), thr, kBuffer, opts);
    c.selector()->plan_cache().insert(ShapeKey(cached), {plan.key(), 1.0});
    c.set_record_windows(true);

    simmem::SimConfig cfg;
    simmem::MemorySystem mem(cfg, 1);
    for (int w = 0; w < 24; ++w) {
      if (w == 16) c.update_pattern(cached);
      for (int i = 0; i < 8; ++i) {
        mem.load(0, simmem::kPmBase + static_cast<std::size_t>(w * 8 + i) *
                                          simmem::kPageBytes);
      }
      mem.advance_to(0, 1500.0 + 1500.0 * w);
      c.strategy(mem);
    }
    std::vector<std::pair<std::uint64_t, bool>> out;
    for (const WindowRecord& r : c.windows()) {
      out.emplace_back(r.strategy_key, r.cache_hit);
    }
    return out;
  };
  const auto a = run();
  ASSERT_EQ(a.size(), 24u);
  EXPECT_FALSE(a.front().second) << "the searched shape has no entry";
  EXPECT_TRUE(a.back().second) << "the shifted-to shape replays its entry";
  EXPECT_EQ(a, run());
}

}  // namespace
}  // namespace dialga
