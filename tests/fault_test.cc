// fault::Injector semantics: deterministic replay of seeded schedules,
// the three trigger kinds (nth list, every-Nth, probability) and their
// OR-combination, max_fires capping, scoped plan lifetime against the
// global instance, thread-safe counters under concurrent fire(), the
// spec-string parser including its rejection diagnostics, the
// environment install (DIALGA_FAULT_SEED / DIALGA_FAULT_PLAN), and the
// strict CHAOS_SEED parse the seeded suites share.
//
// Every test runs against Injector::Global() (that is what the built-in
// sites consult) and clears it on entry/exit so tests cannot leak plans
// into each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos_seeds.h"
#include "fault/injector.h"

namespace fault {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Injector::Global().clear(); }
  void TearDown() override { Injector::Global().clear(); }
};

/// Drive `site` for `ops` operations and return the 1-based operation
/// numbers that fired.
std::vector<std::uint64_t> FiringOps(const std::string& site,
                                     std::uint64_t ops) {
  std::vector<std::uint64_t> fired;
  for (std::uint64_t op = 1; op <= ops; ++op) {
    if (Injector::Global().fire(site) != 0) fired.push_back(op);
  }
  return fired;
}

TEST_F(FaultTest, InactiveByDefault) {
  EXPECT_FALSE(Injector::Global().active());
  EXPECT_EQ(FireErrno("shard.read"), 0);
  EXPECT_FALSE(Fires("svc.admission"));
  EXPECT_NO_THROW(MaybeThrow("svc.codec"));
  // Consulting an inactive injector records nothing.
  EXPECT_EQ(Injector::Global().stats("shard.read").ops, 0u);
}

TEST_F(FaultTest, NthTriggersAreOneBasedAndExact) {
  SitePlan plan;
  plan.nth = {2, 5, 9};
  ScopedPlan scoped("t.nth", plan);
  EXPECT_EQ(FiringOps("t.nth", 12),
            (std::vector<std::uint64_t>{2, 5, 9}));
  const SiteStats st = Injector::Global().stats("t.nth");
  EXPECT_EQ(st.ops, 12u);
  EXPECT_EQ(st.fires, 3u);
}

TEST_F(FaultTest, EveryTriggerFiresOnMultiples) {
  SitePlan plan;
  plan.every = 4;
  ScopedPlan scoped("t.every", plan);
  EXPECT_EQ(FiringOps("t.every", 13),
            (std::vector<std::uint64_t>{4, 8, 12}));
}

TEST_F(FaultTest, TriggersCombineWithOr) {
  SitePlan plan;
  plan.every = 5;
  plan.nth = {2};
  ScopedPlan scoped("t.or", plan);
  EXPECT_EQ(FiringOps("t.or", 11),
            (std::vector<std::uint64_t>{2, 5, 10}));
}

TEST_F(FaultTest, MaxFiresCapsTheSchedule) {
  SitePlan plan;
  plan.every = 1;  // would otherwise fire on every op
  plan.max_fires = 3;
  ScopedPlan scoped("t.max", plan);
  EXPECT_EQ(FiringOps("t.max", 10),
            (std::vector<std::uint64_t>{1, 2, 3}));
  // The counter keeps advancing after the cap; only fires stop.
  EXPECT_EQ(Injector::Global().stats("t.max").ops, 10u);
}

TEST_F(FaultTest, ProbabilityScheduleReplaysForAFixedSeed) {
  const auto run = [](std::uint64_t seed) {
    Injector::Global().clear();
    Injector::Global().set_seed(seed);
    SitePlan plan;
    plan.probability = 0.2;
    Injector::Global().install("t.prob", plan);
    return FiringOps("t.prob", 500);
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);  // same seed => identical schedule
  EXPECT_NE(a, c);  // different seed => different schedule
  // p=0.2 over 500 ops lands well inside [40, 160] with any sane coin.
  EXPECT_GT(a.size(), 40u);
  EXPECT_LT(a.size(), 160u);
}

TEST_F(FaultTest, ProbabilityIsPerSiteNotShared) {
  Injector::Global().set_seed(7);
  SitePlan plan;
  plan.probability = 0.3;
  ScopedPlan sa("t.site_a", plan);
  ScopedPlan sb("t.site_b", plan);
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t op = 1; op <= 300; ++op) {
    if (Fires("t.site_a")) a.push_back(op);
    if (Fires("t.site_b")) b.push_back(op);
  }
  // The coin mixes the site name, so two sites with the same plan and
  // seed draw different schedules.
  EXPECT_NE(a, b);
}

TEST_F(FaultTest, InstalledErrnoIsDelivered) {
  SitePlan plan;
  plan.nth = {1};
  plan.error = ENOSPC;
  ScopedPlan scoped("t.err", plan);
  EXPECT_EQ(FireErrno("t.err"), ENOSPC);
  EXPECT_EQ(FireErrno("t.err"), 0);
}

TEST_F(FaultTest, MaybeThrowCarriesSiteAndErrno) {
  SitePlan plan;
  plan.nth = {1};
  plan.error = EINTR;
  ScopedPlan scoped("t.throw", plan);
  try {
    MaybeThrow("t.throw");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.error(), EINTR);
    EXPECT_NE(std::string(e.what()).find("t.throw"), std::string::npos);
  }
}

TEST_F(FaultTest, ScopedPlanDeactivatesOnExit) {
  {
    SitePlan plan;
    plan.every = 1;
    ScopedPlan scoped("t.scoped", plan);
    EXPECT_TRUE(Injector::Global().active());
    EXPECT_TRUE(Fires("t.scoped"));
  }
  EXPECT_FALSE(Injector::Global().active());
  EXPECT_FALSE(Fires("t.scoped"));
}

TEST_F(FaultTest, ReinstallResetsCounters) {
  SitePlan plan;
  plan.every = 2;
  Injector::Global().install("t.reset", plan);
  (void)FiringOps("t.reset", 5);
  EXPECT_EQ(Injector::Global().stats("t.reset").ops, 5u);
  Injector::Global().install("t.reset", plan);
  EXPECT_EQ(Injector::Global().stats("t.reset").ops, 0u);
  // Fresh counter: op #2 after reinstall fires again.
  EXPECT_EQ(FiringOps("t.reset", 2), (std::vector<std::uint64_t>{2}));
}

TEST_F(FaultTest, ConcurrentFiresCountEveryOperationExactlyOnce) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 2000;
  SitePlan plan;
  plan.every = 7;
  ScopedPlan scoped("t.mt", plan);

  std::atomic<std::uint64_t> observed_fires{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        if (Fires("t.mt")) ++local;
      }
      observed_fires.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t total = kThreads * kOpsPerThread;
  const SiteStats st = Injector::Global().stats("t.mt");
  EXPECT_EQ(st.ops, total);
  // every=7 is interleaving-independent: exactly floor(total/7) of the
  // 1-based op numbers are multiples of 7, whichever thread draws them.
  EXPECT_EQ(st.fires, total / 7);
  EXPECT_EQ(observed_fires.load(), total / 7);
}

TEST_F(FaultTest, AllStatsIsSortedByName) {
  SitePlan plan;
  plan.nth = {1};
  ScopedPlan sb("t.bbb", plan);
  ScopedPlan sa("t.aaa", plan);
  (void)Fires("t.bbb");
  const auto all = Injector::Global().all_stats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "t.aaa");
  EXPECT_EQ(all[1].first, "t.bbb");
  EXPECT_EQ(all[1].second.ops, 1u);
  EXPECT_EQ(all[1].second.fires, 1u);
}

TEST_F(FaultTest, SpecParsesSeedSitesAndAllKeys) {
  std::string err;
  ASSERT_TRUE(Injector::Global().install_spec(
      "seed=99;shard.read:p=0.5,err=EINTR;svc.admission:nth=2+5,max=1;"
      "shard.write:every=3,err=12",
      &err))
      << err;
  EXPECT_EQ(Injector::Global().seed(), 99u);
  EXPECT_TRUE(Injector::Global().active());
  // nth=2+5 with max=1: only op #2 fires.
  EXPECT_EQ(FiringOps("svc.admission", 6),
            (std::vector<std::uint64_t>{2}));
  // err=EINTR is delivered symbolically, err=12 numerically.
  EXPECT_EQ(FiringOps("shard.write", 2),
            std::vector<std::uint64_t>{});  // 3rd op fires, not 1st/2nd
  EXPECT_EQ(Injector::Global().fire("shard.write"), 12);
}

TEST_F(FaultTest, SpecRejectsMalformedInput) {
  const char* bad[] = {
      "seed=nope;a.b:p=0.1",      // unparsable seed
      "no-colon-here",            // missing site:kv
      ":p=0.1",                   // empty site name
      "a.b:p",                    // kv without '='
      "a.b:p=1.5",                // probability out of range
      "a.b:p=abc",                // probability not a number
      "a.b:nth=0",                // nth is 1-based
      "a.b:nth=2+x",              // junk in the nth list
      "a.b:every=0",              // every=0 means "off", not a trigger
      "a.b:max=x",                // unparsable cap
      "a.b:err=EWHAT",            // unknown errno name
      "a.b:err=-3",               // errno must be positive
      "a.b:bogus=1",              // unknown key
      "a.b:max=3",                // cap alone is not a trigger
  };
  for (const char* spec : bad) {
    Injector::Global().clear();
    std::string err;
    EXPECT_FALSE(Injector::Global().install_spec(spec, &err))
        << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST_F(FaultTest, SpecEmptyAndSeedOnlyAreValid) {
  std::string err;
  EXPECT_TRUE(Injector::Global().install_spec("", &err)) << err;
  EXPECT_FALSE(Injector::Global().active());
  EXPECT_TRUE(Injector::Global().install_spec("seed=5", &err)) << err;
  EXPECT_EQ(Injector::Global().seed(), 5u);
  EXPECT_FALSE(Injector::Global().active());
}

TEST_F(FaultTest, ClearDropsPlansCountersAndSeed) {
  Injector::Global().set_seed(11);
  SitePlan plan;
  plan.every = 1;
  Injector::Global().install("t.clear", plan);
  (void)Fires("t.clear");
  Injector::Global().clear();
  EXPECT_FALSE(Injector::Global().active());
  EXPECT_EQ(Injector::Global().seed(), 0u);
  EXPECT_EQ(Injector::Global().stats("t.clear").ops, 0u);
  EXPECT_TRUE(Injector::Global().all_stats().empty());
}

TEST_F(FaultTest, NodeSiteSpelling) {
  EXPECT_EQ(NodeSite(3, "shard.read"), "n3.shard.read");
  EXPECT_EQ(NodeSite(0, "cluster.send"), "n0.cluster.send");
}

TEST_F(FaultTest, NodeScopedPlanHitsOnlyThatNode) {
  SitePlan plan;
  plan.every = 1;
  plan.error = EIO;
  ScopedPlan scoped("n3.cluster.recv", plan);
  EXPECT_EQ(FireErrnoAt(3, "cluster.recv"), EIO);
  EXPECT_EQ(FireErrnoAt(2, "cluster.recv"), 0);
  EXPECT_FALSE(FiresAt(7, "cluster.recv"));
  EXPECT_TRUE(FiresAt(3, "cluster.recv"));
}

TEST_F(FaultTest, PlainSiteStillHitsEveryNode) {
  SitePlan plan;
  plan.every = 1;
  plan.error = ETIMEDOUT;
  ScopedPlan scoped("cluster.send", plan);
  EXPECT_EQ(FireErrnoAt(1, "cluster.send"), ETIMEDOUT);
  EXPECT_EQ(FireErrnoAt(9, "cluster.send"), ETIMEDOUT);
  EXPECT_EQ(FireErrno("cluster.send"), ETIMEDOUT);
}

TEST_F(FaultTest, NodeScopedAndGlobalPlansCompose) {
  // Node plan consulted first: its errno wins on node 2; other nodes
  // fall through to the global plan.
  SitePlan node_plan;
  node_plan.every = 1;
  node_plan.error = ENOSPC;
  ScopedPlan node_scoped("n2.shard.write", node_plan);
  SitePlan global_plan;
  global_plan.every = 1;
  global_plan.error = EIO;
  ScopedPlan global_scoped("shard.write", global_plan);
  EXPECT_EQ(FireErrnoAt(2, "shard.write"), ENOSPC);
  EXPECT_EQ(FireErrnoAt(4, "shard.write"), EIO);
}

TEST_F(FaultTest, NodeScopedSpecParses) {
  std::string err;
  ASSERT_TRUE(Injector::Global().install_spec(
      "n3.shard.read:p=1.0,err=EIO", &err))
      << err;
  EXPECT_TRUE(FiresAt(3, "shard.read"));
  EXPECT_FALSE(FiresAt(1, "shard.read"));
  EXPECT_FALSE(Fires("shard.read"));
}

/// install_from_env reads DIALGA_FAULT_SEED and DIALGA_FAULT_PLAN.
/// Each test starts with both unset and sets them in-process; TearDown
/// restores whatever the run started with.
class FaultEnvTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    for (auto& [name, value] : saved_) {
      if (const char* v = std::getenv(name)) value = v;
      ::unsetenv(name);
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value) {
        ::setenv(name, value->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
    FaultTest::TearDown();
  }

 private:
  std::pair<const char*, std::optional<std::string>> saved_[2] = {
      {"DIALGA_FAULT_SEED", std::nullopt},
      {"DIALGA_FAULT_PLAN", std::nullopt}};
};

// A seed that is not a whole unsigned decimal warns and keeps the
// current seed: a lenient parse would run "abc" as seed 0.
TEST_F(FaultEnvTest, MalformedSeedKeepsTheCurrentSeed) {
  Injector::Global().set_seed(11);
  for (const char* bad : {"abc", "3x", "-1", ""}) {
    ::setenv("DIALGA_FAULT_SEED", bad, 1);
    ::testing::internal::CaptureStderr();
    std::string err;
    EXPECT_TRUE(Injector::Global().install_from_env(&err)) << err;
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(Injector::Global().seed(), 11u) << "'" << bad << "'";
    EXPECT_NE(warning.find("keeping seed 11"), std::string::npos) << warning;
  }
}

TEST_F(FaultEnvTest, ValidSeedIsApplied) {
  ::setenv("DIALGA_FAULT_SEED", "42", 1);
  std::string err;
  EXPECT_TRUE(Injector::Global().install_from_env(&err)) << err;
  EXPECT_EQ(Injector::Global().seed(), 42u);
  EXPECT_FALSE(Injector::Global().active());  // a seed installs no plan
}

TEST_F(FaultEnvTest, BadPlanIsRejectedWithADiagnostic) {
  ::setenv("DIALGA_FAULT_PLAN", "bogus", 1);
  std::string err;
  EXPECT_FALSE(Injector::Global().install_from_env(&err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Injector::Global().active());
}

TEST_F(FaultEnvTest, GoodPlanInstalls) {
  ::setenv("DIALGA_FAULT_SEED", "7", 1);
  ::setenv("DIALGA_FAULT_PLAN", "shard.read:every=2,err=EINTR", 1);
  std::string err;
  ASSERT_TRUE(Injector::Global().install_from_env(&err)) << err;
  EXPECT_TRUE(Injector::Global().active());
  EXPECT_EQ(Injector::Global().seed(), 7u);
  EXPECT_EQ(FiringOps("shard.read", 4), (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(Injector::Global().fire("shard.read"), 0);  // op 5
  EXPECT_EQ(Injector::Global().fire("shard.read"), EINTR);
}

// A CHAOS_SEED that is not a whole unsigned 64-bit decimal is rejected:
// a lenient parse would quietly run another seed ("abc" as 0, "-1" as
// 2^64 - 1).
TEST(ChaosSeed, ParseAcceptsOnlyAWholeUnsignedDecimal) {
  EXPECT_EQ(chaos::ParseSeed("3"), std::optional<std::uint64_t>(3));
  EXPECT_EQ(chaos::ParseSeed("18446744073709551615"),
            std::optional<std::uint64_t>(UINT64_MAX));
  for (const char* bad : {"", "abc", "3x", "-1", "123456789012345678901"}) {
    EXPECT_EQ(chaos::ParseSeed(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace fault
