// Multi-run statistics, mirroring the paper's methodology of averaging
// results across 10 runs. The simulator is deterministic for a fixed
// seed; run-to-run variance comes from re-seeding the random stripe
// placement, which is exactly the variance a re-run on real hardware
// with fresh allocations would see.
#pragma once

#include <span>
#include <vector>

#include "bench_util/runner.h"

namespace bench_util {

struct Stats {
  double mean = 0.0;
  double stdev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  ///< median (linear interpolation between ranks)
  double p99 = 0.0;  ///< 99th percentile
  std::size_t n = 0;

  /// Coefficient of variation (stdev / mean).
  double cv() const { return mean == 0.0 ? 0.0 : stdev / mean; }
};

Stats Summarize(std::span<const double> samples);

/// Quantile q in [0, 1] with linear interpolation between closest
/// ranks (the convention of numpy.percentile). Service-latency
/// consumers (svc::StripeService stats, bench_svc_throughput --qos)
/// report p50/p99 through this. Returns 0 on an empty sample set.
double Percentile(std::span<const double> samples, double q);

/// Run a timed encode `runs` times with distinct workload seeds and
/// summarize the simulated throughput.
Stats RunEncodeRepeated(const simmem::SimConfig& sim_cfg,
                        WorkloadConfig wl_cfg, const ec::Codec& codec,
                        std::size_t runs = 10, bool hw_prefetch = true);

}  // namespace bench_util
