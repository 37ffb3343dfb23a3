// Strategy representation and the threshold constants of DIALGA's
// adaptive coordinator (section 4.1).
#pragma once

#include <cstddef>
#include <cstdint>

#include "ec/isal.h"

namespace dialga {

/// Workload shape collected "via the ISA-L library interface".
struct PatternInfo {
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t block_size = 0;
  std::size_t nthreads = 1;

  friend bool operator==(const PatternInfo&, const PatternInfo&) = default;
};

/// A concrete prefetcher-scheduling strategy — one "variant assembly
/// entry point" in the paper's terms. The coordinator picks one of
/// these per sampling window; the operator realizes it as an ISA-L plan.
struct Strategy {
  /// Keep the L2 hardware prefetcher trained (true) or defeat it with
  /// the static shuffle mapping (false) — the lightweight, function-
  /// level switch of section 4.2.2.
  bool hw_prefetch = true;
  /// Pipelined software prefetch distance in load tasks (0 = off).
  std::size_t sw_distance = 0;
  /// Buffer-friendly split distances (section 4.3.2): boosted distance
  /// for XPLine-opening lines. 0 = uniform distance.
  std::size_t xpline_first_distance = 0;
  /// Widen the encode loop to XPLine granularity (section 4.3.3,
  /// engaged under high pressure).
  bool widen_to_xpline = false;
  /// Software-prefetch only lines at/beyond this block offset (blocks
  /// > 4 KiB that are not 4 KiB multiples: the streamer owns the
  /// aligned prefix). 0 = prefetch everywhere.
  std::size_t sw_tail_offset = 0;

  friend bool operator==(const Strategy&, const Strategy&) = default;

  /// Realize the strategy as plan options for the ISA-L plan builder.
  ec::IsalPlanOptions to_plan_options() const {
    ec::IsalPlanOptions o;
    o.shuffle_rows = !hw_prefetch;
    o.prefetch_distance = sw_distance;
    o.xpline_first_distance = xpline_first_distance;
    o.widen_to_xpline = widen_to_xpline;
    o.prefetch_tail_offset = sw_tail_offset;
    return o;
  }

  /// Realize the strategy as host-kernel options for the fused encode
  /// driver (ec::FusedEncode): the planned software-prefetch distance
  /// — already expressed in 64 B load tasks in row order, d = k being
  /// one row ahead — becomes the distance the branchless k-entry
  /// prefetch-pointer table is built with. The hardware-
  /// prefetcher switch and XPLine shaping are PM-simulation concerns
  /// with no host-DRAM analogue, so only the distance crosses over.
  ec::HostKernelOptions to_host_options() const {
    ec::HostKernelOptions o;
    o.prefetch_distance = sw_distance;
    return o;
  }

  /// Stable key: the provider's per-strategy plan map and the
  /// coordinator's window records are keyed by it.
  std::uint64_t key() const {
    return (hw_prefetch ? 1ULL : 0ULL) | (widen_to_xpline ? 2ULL : 0ULL) |
           (static_cast<std::uint64_t>(sw_distance) << 2) |
           (static_cast<std::uint64_t>(xpline_first_distance) << 24) |
           (static_cast<std::uint64_t>(sw_tail_offset) << 44);
  }
};

/// Coordinator thresholds, all sourced from section 4.1 of the paper.
struct Thresholds {
  /// Read-traffic contention: sampled load latency exceeds this ratio
  /// of the low-pressure average (paper: 110 %).
  double latency_contention_ratio = 1.10;
  /// HW prefetcher inefficiency: useless-prefetch delta exceeds this
  /// ratio of the low-pressure window (paper: 150 %).
  double useless_prefetch_ratio = 1.50;
  /// Concurrency above which the HW prefetcher is disabled outright
  /// (paper: 12, from Eq. 1 on the 96 KB buffer).
  std::size_t thread_threshold = 12;
  /// Counter sampling interval (paper: 1 kHz).
  double sample_interval_ns = 1.0e6;
  /// Throughput fluctuation that restarts the distance search
  /// (paper: 10 %).
  double perf_fluctuation = 0.10;
  /// Stream count beyond which the HW prefetcher self-disables and
  /// needs no management (Observation 3).
  std::size_t wide_stripe_k = 32;
  /// Block size at which the HW prefetcher is fully effective and is
  /// always kept on (Observation 4).
  std::size_t large_block_bytes = 4096;
  /// Sampling windows the low-pressure baselines (latency, useless
  /// prefetches) take their minimum over. The baselines used to be
  /// lifetime minima, which made one anomalously quiet warm-up window
  /// pin contention_/inefficient_ on for the process lifetime; a
  /// sliding window lets them recover once the quiet sample ages out.
  /// The coordinator clamps it to at least 1.
  std::size_t baseline_window = 64;
};

/// Which DIALGA mechanisms are active — the Fig. 18 breakdown axes.
/// Vanilla == all false (ISA-L with the HW prefetcher defeated).
struct Features {
  bool sw_prefetch = true;        ///< +SW: pipelined software prefetch
  bool hw_prefetch = true;        ///< +HW: hardware prefetching allowed
  bool buffer_friendly = true;    ///< +BF: sections 4.3.2/4.3.3
  bool adaptive = true;           ///< coordinator sampling + hill climb

  static Features vanilla() { return {false, false, false, false}; }
  static Features sw_only() { return {true, false, false, false}; }
  static Features sw_hw() { return {true, true, false, false}; }
  static Features all() { return {true, true, true, true}; }
};

/// Eq. 1 (section 4.3.3): largest software prefetch distance that keeps
/// the concurrent prefetch working set within the PM read buffer:
///   nthreads * k * 256B * ceil(d / (k+m)) <= buffer_bytes
/// (m = 0 under non-temporal parity stores, per the paper). Returns a
/// floor of 8 tasks so prefetching never turns off entirely.
std::size_t MaxDistanceForBuffer(std::size_t nthreads, std::size_t k,
                                 std::size_t m, std::size_t buffer_bytes);

}  // namespace dialga
