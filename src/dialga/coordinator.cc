#include "dialga/coordinator.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace dialga {

namespace {
/// Distance search bounds: searching below 4 is pointless (no latency
/// left to hide) and beyond 256 the cache footprint dwarfs any gain.
constexpr std::size_t kMinDistance = 4;
constexpr std::size_t kMaxDistance = 256;

/// The distance search starts at d = k (section 4.1.2), clamped.
std::size_t SeedDistance(std::size_t k) {
  return std::clamp(k, kMinDistance, kMaxDistance);
}

/// Registry mirror of the coordinator's sampling loop: counters for
/// windows taken and strategy flips, gauges for the last window's PMU
/// deltas and the strategy currently in force. Gauges are last-write-
/// wins across coordinators — with one live coordinator per process
/// (the usual shape) they read as "the current window".
struct CoordMetrics {
  obs::Counter& samples;
  obs::Counter& strategy_flips;
  obs::Gauge& window_latency_ns;
  obs::Gauge& window_useless;
  obs::Gauge& window_gbps;
  obs::Gauge& contention;
  obs::Gauge& inefficient;
  obs::Gauge& hw_prefetch;
  obs::Gauge& sw_distance;

  static CoordMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static CoordMetrics m{
        reg.counter("dialga_coord_samples_total", {},
                    "PMU sampling windows the coordinator evaluated"),
        reg.counter("dialga_coord_strategy_flips_total", {},
                    "decide() calls that changed the strategy"),
        reg.gauge("dialga_coord_window_latency_ns", {},
                  "Last window's mean load-stall latency"),
        reg.gauge("dialga_coord_window_useless_prefetches", {},
                  "Last window's useless hardware prefetch count"),
        reg.gauge("dialga_coord_window_gbps", {},
                  "Last window's encode read throughput"),
        reg.gauge("dialga_coord_contention", {},
                  "1 when the last window crossed the contention ratio"),
        reg.gauge("dialga_coord_inefficient", {},
                  "1 when the last window crossed the useless-prefetch "
                  "ratio"),
        reg.gauge("dialga_coord_hw_prefetch", {},
                  "1 when the current strategy keeps the HW prefetcher"),
        reg.gauge("dialga_coord_sw_distance", {},
                  "Current software prefetch distance (0 = off)"),
    };
    return m;
  }
};
}  // namespace

Coordinator::Coordinator(const PatternInfo& pattern, const Features& features,
                         const Thresholds& thresholds,
                         std::size_t pm_buffer_bytes)
    : pattern_(pattern),
      feat_(features),
      thr_(thresholds),
      pm_buffer_bytes_(pm_buffer_bytes),
      climber_(SeedDistance(pattern.k), kMinDistance, kMaxDistance) {
  // UpdateBaseline takes the minimum of a non-empty window.
  thr_.baseline_window = std::max<std::size_t>(1, thr_.baseline_window);
  decide();
}

void Coordinator::update_pattern(const PatternInfo& pattern) {
  if (pattern == pattern_) return;
  const bool k_changed = pattern.k != pattern_.k;
  pattern_ = pattern;
  if (k_changed && !climber_.converged()) {
    // The distance search seed tracks k; restart an unconverged search
    // from the new shape's seed rather than let it finish climbing a
    // stale landscape. A converged distance is kept — the fluctuation
    // restart in sample() re-opens it if throughput actually moves.
    climber_.restart(SeedDistance(pattern.k));
  }
  decide();
}

double Coordinator::UpdateBaseline(std::deque<double>& window,
                                   double observation) const {
  window.push_back(observation);
  if (window.size() > thr_.baseline_window) window.pop_front();
  // O(window) scan at the 1 kHz sampling rate is negligible next to
  // the window's worth of simulated memory traffic.
  return *std::min_element(window.begin(), window.end());
}

const Strategy& Coordinator::strategy(const simmem::MemorySystem& mem) {
  const double now = mem.max_clock();
  if (now - last_sample_time_ >= thr_.sample_interval_ns) {
    sample(mem, now);
  }
  return strat_;
}

void Coordinator::sample(const simmem::MemorySystem& mem, double now) {
  const simmem::PmuCounters delta = mem.pmu() - last_pmu_;
  const double elapsed = now - last_sample_time_;
  last_pmu_ = mem.pmu();
  last_sample_time_ = now;
  ++samples_;
  CoordMetrics::Get().samples.inc();
  if (delta.loads == 0 || elapsed <= 0.0) return;

  const double window_latency = delta.load_stall_ns /
                                static_cast<double>(delta.loads);
  const double window_useless = static_cast<double>(delta.hw_prefetches_useless);
  const double window_gbps =
      static_cast<double>(delta.encode_read_bytes) / elapsed;
  {
    auto& m = CoordMetrics::Get();
    m.window_latency_ns.set(window_latency);
    m.window_useless.set(window_useless);
    m.window_gbps.set(window_gbps);
  }

  // Low-pressure baselines: the least-contended window among the last
  // baseline_window samples (the paper calibrates them in a dedicated
  // low-pressure phase). A lifetime minimum would let one anomalously
  // quiet warm-up window keep contention_/inefficient_ asserted for
  // the rest of the run; the sliding window forgets it.
  baseline_latency_ns_ = UpdateBaseline(baseline_lat_window_, window_latency);
  baseline_useless_ = UpdateBaseline(baseline_useless_window_, window_useless);

  contention_ =
      window_latency > thr_.latency_contention_ratio * baseline_latency_ns_;
  inefficient_ = window_useless > thr_.useless_prefetch_ratio *
                                      std::max(baseline_useless_, 16.0);
  CoordMetrics::Get().contention.set(contention_ ? 1.0 : 0.0);
  CoordMetrics::Get().inefficient.set(inefficient_ ? 1.0 : 0.0);

  if (feat_.sw_prefetch && feat_.adaptive) {
    // Throughput fluctuation restarts the distance search (paper: 10 %).
    if (last_window_gbps_ > 0.0 && climber_.converged()) {
      const double swing =
          std::abs(window_gbps - last_window_gbps_) / last_window_gbps_;
      if (swing > thr_.perf_fluctuation) climber_.restart(climber_.current());
    }
    climber_.observe(window_latency);
  }
  last_window_gbps_ = window_gbps;

  decide();

  if (record_windows_) {
    windows_.push_back({window_gbps, window_latency, strat_.key()});
  }
}

void Coordinator::decide() {
  const Strategy prev = strat_;
  strat_ = DecideStrategy(pattern_, feat_, thr_, pm_buffer_bytes_,
                          feat_.adaptive ? climber_.current()
                                         : SeedDistance(pattern_.k),
                          contention_, inefficient_);
  // Publish the decision: flip counter when the strategy changed,
  // gauges for what is now in force.
  auto& m = CoordMetrics::Get();
  if (!(prev == strat_)) m.strategy_flips.inc();
  m.hw_prefetch.set(strat_.hw_prefetch ? 1.0 : 0.0);
  m.sw_distance.set(static_cast<double>(strat_.sw_distance));
}

Strategy DecideStrategy(const PatternInfo& pattern, const Features& feat,
                        const Thresholds& thr, std::size_t pm_buffer_bytes,
                        std::size_t distance, bool contention,
                        bool inefficient) {
  Strategy s;

  // --- Hardware prefetcher -------------------------------------------
  if (!feat.hw_prefetch) {
    s.hw_prefetch = false;
  } else if (pattern.k > thr.wide_stripe_k) {
    // Wide stripes exceed the streamer's tracking capacity; it loses
    // confidence and shuts down on its own — no need to pay the
    // shuffle overhead to manage it.
    s.hw_prefetch = true;
  } else if (pattern.nthreads > thr.thread_threshold) {
    s.hw_prefetch = false;  // Eq. 1 says the read buffer will thrash
  } else if (contention && inefficient) {
    s.hw_prefetch = false;
  } else {
    // Narrow stripes / small blocks prefetch inefficiently, but the
    // amplified traffic does not hurt under low pressure — leave it on.
    s.hw_prefetch = true;
  }

  // --- Software prefetch distance -------------------------------------
  if (feat.sw_prefetch) {
    const bool high_pressure =
        pattern.nthreads > thr.thread_threshold || contention;
    // 4 KiB-aligned blocks on trackable stripes: the streamer covers the
    // whole block at peak efficiency and never crosses the page, so
    // software prefetching only adds issue overhead and traffic
    // (section 4.1 "I/O Access Pattern"; Fig. 12's limited 4 KiB gains).
    const bool streamer_at_peak =
        s.hw_prefetch && pattern.k <= thr.wide_stripe_k &&
        pattern.block_size >= thr.large_block_bytes &&
        pattern.block_size % thr.large_block_bytes == 0;
    if (streamer_at_peak && !high_pressure) {
      return s;  // hw-only strategy
    }
    // Blocks beyond 4 KiB that are not 4 KiB multiples: the streamer
    // covers the aligned prefix; prefetch only the unaligned tail.
    if (s.hw_prefetch && pattern.k <= thr.wide_stripe_k &&
        pattern.block_size > thr.large_block_bytes && !high_pressure) {
      s.sw_tail_offset =
          pattern.block_size / thr.large_block_bytes * thr.large_block_bytes;
    }
    s.sw_distance = distance;
    if (feat.buffer_friendly && high_pressure) {
      s.sw_distance =
          std::min(distance, MaxDistanceForBuffer(pattern.nthreads, pattern.k,
                                                  pattern.m, pm_buffer_bytes));
      s.widen_to_xpline = true;
    } else if (feat.buffer_friendly) {
      // Low pressure: pull XPLine-opening lines in earlier (initially
      // k+4, then tracking the adapted distance).
      s.xpline_first_distance = distance + 4;
    }
  }
  return s;
}

Strategy InitialStrategy(const PatternInfo& pattern, const Features& features,
                         const Thresholds& thresholds,
                         std::size_t pm_buffer_bytes) {
  return DecideStrategy(pattern, features, thresholds, pm_buffer_bytes,
                        SeedDistance(pattern.k), /*contention=*/false,
                        /*inefficient=*/false);
}

}  // namespace dialga
