// DIALGA's adaptive coordinator (section 4.1).
//
// At every sampling tick (1 kHz of simulated time) the coordinator
// reads the PMU counters the way the paper samples Perf/PEBS, computes
// the window deltas, and re-decides the scheduling strategy:
//
//  * read-traffic contention  <=> window load latency > 110 % of the
//    low-pressure average;
//  * HW-prefetcher inefficiency <=> useless-L2-prefetch delta > 150 %
//    of the low-pressure window;
//  * both detected, or more than 12 concurrent threads => defeat the HW
//    prefetcher (via the shuffle mapping);
//  * wide stripes (k > 32) are left alone — the streamer self-disables;
//  * blocks >= 4 KiB keep the HW prefetcher on;
//  * the software prefetch distance is tuned by hill climbing on the
//    window's average load latency, restarted when throughput
//    fluctuates by more than 10 %;
//  * buffer-friendly mode splits distances under low pressure and
//    widens the loop + caps the distance by Eq. 1 under high pressure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "dialga/hill_climb.h"
#include "dialga/policy.h"
#include "simmem/memory_system.h"

namespace dialga {

/// One sampling window's outcome, for replay verification.
struct WindowRecord {
  double gbps = 0.0;
  double latency_ns = 0.0;
  std::uint64_t strategy_key = 0;

  friend bool operator==(const WindowRecord&, const WindowRecord&) = default;
};

/// The strategy ladder of section 4.1 as a pure function of the static
/// pattern and configuration, the current software-prefetch distance
/// (the hill climber's, or the d = k seed) and the sampled pressure
/// bits. The coordinator publishes what it returns; the host face and
/// the static snapshot plans call it directly and publish nothing.
Strategy DecideStrategy(const PatternInfo& pattern, const Features& features,
                        const Thresholds& thresholds,
                        std::size_t pm_buffer_bytes, std::size_t distance,
                        bool contention, bool inefficient);

/// DecideStrategy before any sampling: seed distance, no pressure —
/// Coordinator::initial_strategy().
Strategy InitialStrategy(const PatternInfo& pattern, const Features& features,
                         const Thresholds& thresholds,
                         std::size_t pm_buffer_bytes);

class Coordinator {
 public:
  Coordinator(const PatternInfo& pattern, const Features& features,
              const Thresholds& thresholds, std::size_t pm_buffer_bytes);

  /// Strategy to use for the next stripe. Samples the PMU when the
  /// simulated clock has advanced past the sampling interval.
  const Strategy& strategy(const simmem::MemorySystem& mem);

  /// Strategy chosen from the static pattern alone, before any
  /// sampling (what the first stripe runs with).
  const Strategy& initial_strategy() const { return strat_; }

  /// Replace the I/O access pattern mid-run and re-decide the strategy
  /// against the already-collected sampling state. This is how a
  /// request front-end (svc::StripeService) feeds the live admitted
  /// mix to the coordinator instead of pinning the construction-time
  /// shape. A no-op when the pattern is unchanged.
  void update_pattern(const PatternInfo& pattern);

  const PatternInfo& pattern() const { return pattern_; }

  /// Record per-window outcomes into windows() — off by default; the
  /// phase-shift replay test turns it on.
  void set_record_windows(bool on) { record_windows_ = on; }
  const std::vector<WindowRecord>& windows() const { return windows_; }

  // Introspection (tests, EXPERIMENTS.md traces).
  std::size_t samples_taken() const { return samples_; }
  bool contention() const { return contention_; }
  bool prefetcher_inefficient() const { return inefficient_; }
  const HillClimber& climber() const { return climber_; }
  /// Current low-pressure baselines (window minimum; -1 before the
  /// first valid sample) — exposed so the regression test can pin the
  /// sliding-window recovery behavior.
  double baseline_latency_ns() const { return baseline_latency_ns_; }
  double baseline_useless() const { return baseline_useless_; }

 private:
  void sample(const simmem::MemorySystem& mem, double now);
  void decide();
  /// Push a window's observation into a baseline window (the last
  /// thr_.baseline_window samples) and return its minimum.
  double UpdateBaseline(std::deque<double>& window, double observation) const;

  PatternInfo pattern_;
  Features feat_;
  Thresholds thr_;
  std::size_t pm_buffer_bytes_;

  Strategy strat_;
  HillClimber climber_;

  // Sampling state.
  double last_sample_time_ = 0.0;
  simmem::PmuCounters last_pmu_;
  std::size_t samples_ = 0;
  /// Low-pressure baselines: minimum over the last baseline_window
  /// samples (windows below), not a lifetime minimum — see
  /// Thresholds::baseline_window for why.
  double baseline_latency_ns_ = -1.0;
  double baseline_useless_ = -1.0;
  std::deque<double> baseline_lat_window_;
  std::deque<double> baseline_useless_window_;
  double last_window_gbps_ = -1.0;
  bool contention_ = false;
  bool inefficient_ = false;

  bool record_windows_ = false;
  std::vector<WindowRecord> windows_;
};

}  // namespace dialga
