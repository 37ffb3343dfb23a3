#include "dialga/hill_climb.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dialga {
namespace {

/// Drive the climber against an objective function until convergence
/// (or the step limit). Returns the locked-in distance.
std::size_t Converge(HillClimber& hc, double (*objective)(std::size_t),
                     std::size_t max_steps = 500) {
  for (std::size_t step = 0; step < max_steps && !hc.converged(); ++step) {
    hc.observe(objective(hc.current()));
  }
  return hc.current();
}

double Convex(std::size_t d) {
  const double x = static_cast<double>(d) - 40.0;
  return x * x;  // minimum at 40
}

TEST(HillClimber, FindsConvexMinimumFromBelow) {
  HillClimber hc(12, 4, 256, 16);
  EXPECT_EQ(Converge(hc, Convex), 40u);
  EXPECT_TRUE(hc.converged());
}

TEST(HillClimber, FindsConvexMinimumFromAbove) {
  HillClimber hc(100, 4, 256, 16);
  EXPECT_EQ(Converge(hc, Convex), 40u);
}

TEST(HillClimber, StaysAtMinimumWhenStartedThere) {
  HillClimber hc(40, 4, 256, 16);
  EXPECT_EQ(Converge(hc, Convex), 40u);
}

TEST(HillClimber, RespectsBounds) {
  HillClimber hc(10, 8, 32, 16);
  const auto downhill = [](std::size_t d) {
    return 1000.0 - static_cast<double>(d);  // best is as high as allowed
  };
  for (std::size_t step = 0; step < 500 && !hc.converged(); ++step) {
    EXPECT_GE(hc.current(), 8u);
    EXPECT_LE(hc.current(), 32u);
    hc.observe(downhill(hc.current()));
  }
  EXPECT_EQ(hc.current(), 32u);
}

TEST(HillClimber, InitClampedToRange) {
  HillClimber low(1, 8, 32);
  EXPECT_GE(low.current(), 8u);
  HillClimber high(1000, 8, 32);
  EXPECT_LE(high.current(), 32u);
}

TEST(HillClimber, RestartResumesSearch) {
  HillClimber hc(12, 4, 256, 16);
  Converge(hc, Convex);
  ASSERT_TRUE(hc.converged());
  hc.restart(hc.current());
  EXPECT_FALSE(hc.converged());
  // New optimum after the "workload changed".
  const auto shifted = [](std::size_t d) {
    const double x = static_cast<double>(d) - 60.0;
    return x * x;
  };
  for (std::size_t step = 0; step < 500 && !hc.converged(); ++step) {
    hc.observe(shifted(hc.current()));
  }
  EXPECT_EQ(hc.current(), 60u);
}

TEST(HillClimber, ObserveAfterConvergenceIsIgnored) {
  HillClimber hc(40, 4, 256, 16);
  Converge(hc, Convex);
  const std::size_t locked = hc.current();
  hc.observe(0.0);
  hc.observe(1e9);
  EXPECT_EQ(hc.current(), locked);
}

TEST(HillClimber, NeighborhoodProbesBothSides) {
  // With a narrow neighborhood the climber still walks: each round
  // can move at most neighborhood/2 but rounds chain.
  HillClimber hc(20, 4, 256, 4);
  EXPECT_EQ(Converge(hc, Convex, 2000), 40u);
  EXPECT_GT(hc.rounds(), 3u);
}

TEST(HillClimber, NoisyPlateauTerminates) {
  HillClimber hc(16, 4, 256, 16);
  std::size_t steps = 0;
  const auto flat = [](std::size_t) { return 5.0; };
  while (!hc.converged() && steps < 5000) {
    hc.observe(flat(hc.current()));
    ++steps;
  }
  EXPECT_TRUE(hc.converged()) << "flat objective must still terminate";
}

// --- Edge cases the coordinator's distance search depends on ----------

TEST(HillClimber, SinglePointSpaceConvergesImmediately) {
  // lo == hi: there is nothing to search. The climber must converge at
  // the only legal distance (and clamp an out-of-range init to it)
  // without ever proposing anything else.
  HillClimber hc(40, 7, 7, 16);
  EXPECT_EQ(hc.current(), 7u);
  std::size_t steps = 0;
  while (!hc.converged() && steps < 100) {
    EXPECT_EQ(hc.current(), 7u) << "single-point space proposed off-point";
    hc.observe(1.0);
    ++steps;
  }
  EXPECT_TRUE(hc.converged());
  EXPECT_EQ(hc.current(), 7u);
}

TEST(HillClimber, NonImprovingNeighborhoodKeepsIncumbent) {
  // An objective where every neighbor ties the incumbent: the strict-<
  // round election must re-elect the incumbent and converge there,
  // not drift across the plateau.
  HillClimber hc(64, 4, 256, 16);
  std::size_t steps = 0;
  while (!hc.converged() && steps < 1000) {
    hc.observe(3.0);
    ++steps;
  }
  EXPECT_TRUE(hc.converged());
  EXPECT_EQ(hc.current(), 64u) << "tied neighborhood moved the incumbent";
}

TEST(HillClimber, RestartAfterFluctuationReopensSearch) {
  // Converge on one landscape, then restart (what the coordinator does
  // on a >10 % throughput fluctuation): the climber must probe again
  // and track the moved optimum.
  HillClimber hc(40, 4, 256, 16);
  Converge(hc, Convex);
  ASSERT_TRUE(hc.converged());
  const std::size_t before = hc.current();

  hc.restart(hc.current());
  EXPECT_FALSE(hc.converged()) << "restart must reopen probing";

  const auto moved = [](std::size_t d) {
    const double x = static_cast<double>(d) - 96.0;
    return x * x;
  };
  for (std::size_t step = 0; step < 2000 && !hc.converged(); ++step) {
    hc.observe(moved(hc.current()));
  }
  EXPECT_TRUE(hc.converged());
  EXPECT_EQ(hc.current(), 96u);
  EXPECT_NE(hc.current(), before);
}

TEST(HillClimber, RestartClampsOutOfRangeInit) {
  HillClimber hc(40, 4, 256, 16);
  hc.restart(10000);
  EXPECT_LE(hc.current(), 256u);
  hc.restart(0);
  EXPECT_GE(hc.current(), 4u);
}

}  // namespace
}  // namespace dialga
