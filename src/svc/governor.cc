#include "svc/governor.h"

#include <algorithm>

#include "obs/metrics.h"

namespace svc {

namespace {

/// EWMA weight of the newest degraded-read latency sample.
constexpr double kLatencyEwmaAlpha = 0.2;
/// Per-sample upward creep of the decaying floor, so the floor
/// recovers after a transiently quiet calibration window instead of
/// pinning the headroom bound to a lifetime minimum.
constexpr double kFloorDecay = 0.02;
/// Admission backstop: bulk whose queued + in-flight bytes would
/// exceed this is rejected (kRejectedBandwidth).
constexpr std::uint64_t kBackstopBytes = 256ull << 20;

constexpr std::size_t kBulk = static_cast<std::size_t>(OpClass::kEncode);
constexpr std::size_t kDegraded = static_cast<std::size_t>(OpClass::kDecode);

/// `class` label of each OpClass's series.
const char* ClassLabel(OpClass op) {
  return op == OpClass::kEncode ? "bulk_encode" : "degraded_read";
}

/// Process-wide QoS metric families, one labelled series per class.
/// References cached once; the registry map never sits on the dispatch
/// path.
struct QosMetrics {
  std::array<obs::Gauge*, kOpClassCount> inflight_bytes;
  std::array<obs::Gauge*, kOpClassCount> queued_bytes;
  std::array<obs::Counter*, kOpClassCount> inflight_bytes_total;
  obs::Counter& drain_forced;
  obs::Counter& drain_opportunistic;
  obs::Counter& drain_aged;
  obs::Counter& crossings_high;
  obs::Counter& crossings_low;
  obs::Counter& deferrals;
  obs::Counter& rejected_backstop;
  obs::Histogram& defer_seconds;

  static QosMetrics& Get() {
    static QosMetrics m = [] {
      QosMetrics q{
          {},
          {},
          {},
          reg_counter("dialga_qos_drain_total", {{"mode", "forced"}},
                      "Throttled batches drained, by drain mode"),
          reg_counter("dialga_qos_drain_total", {{"mode", "opportunistic"}}),
          reg_counter("dialga_qos_drain_total", {{"mode", "aged"}}),
          reg_counter("dialga_qos_watermark_crossings_total",
                      {{"edge", "high"}},
                      "Deferred-backlog watermark crossings"),
          reg_counter("dialga_qos_watermark_crossings_total",
                      {{"edge", "low"}}),
          reg_counter("dialga_qos_deferred_total", {},
                      "Dispatch attempts the governor deferred"),
          reg_counter("dialga_qos_rejected_backstop_total", {},
                      "Admissions rejected at the byte backstop"),
          obs::Registry::Global().histogram(
              "dialga_qos_defer_seconds", obs::LatencyBounds(), {},
              "How long deferred batches waited before dispatch"),
      };
      for (std::size_t i = 0; i < kOpClassCount; ++i) {
        const char* cls = ClassLabel(static_cast<OpClass>(i));
        q.inflight_bytes[i] = &obs::Registry::Global().gauge(
            "dialga_qos_bytes_in_flight", {{"class", cls}},
            "Dispatched-but-uncompleted bytes per traffic class");
        q.queued_bytes[i] = &obs::Registry::Global().gauge(
            "dialga_qos_bytes_queued", {{"class", cls}},
            "Admitted-but-undisbatched bytes per traffic class");
        q.inflight_bytes_total[i] = &obs::Registry::Global().counter(
            "dialga_qos_bytes_in_flight_total", {{"class", cls}},
            "Cumulative bytes that entered flight per traffic class");
      }
      return q;
    }();
    return m;
  }

 private:
  static obs::Counter& reg_counter(const std::string& name,
                                   const obs::Labels& labels,
                                   const std::string& help = "") {
    return obs::Registry::Global().counter(name, labels, help);
  }
};

std::size_t Idx(OpClass op) { return static_cast<std::size_t>(op); }

std::uint64_t SubClamped(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

}  // namespace

BandwidthGovernor::BandwidthGovernor(GovernorConfig cfg) : cfg_(cfg) {
  if (cfg_.low_watermark_bytes > cfg_.high_watermark_bytes) {
    cfg_.low_watermark_bytes = cfg_.high_watermark_bytes;
  }
  RegisterMetrics();
}

void BandwidthGovernor::RegisterMetrics() { (void)QosMetrics::Get(); }

bool BandwidthGovernor::try_admit(OpClass op, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t i = Idx(op);
  if (op == OpClass::kEncode &&
      queued_[i] + inflight_[i] + bytes > kBackstopBytes) {
    ++rejected_backstop_;
    QosMetrics::Get().rejected_backstop.inc();
    return false;
  }
  queued_[i] += bytes;
  admitted_[i] += bytes;
  QosMetrics::Get().queued_bytes[i]->set(static_cast<double>(queued_[i]));
  return true;
}

bool BandwidthGovernor::try_dispatch(OpClass op, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (op == OpClass::kDecode) {
    GrantLocked(op, bytes, DrainMode::kOpportunistic);
    return true;
  }
  const std::uint64_t backlog = queued_[kBulk];
  // Watermark hysteresis over the bulk backlog (usimm write-drain
  // idiom): above high, drain unconditionally until below low.
  if (draining_) {
    if (backlog <= cfg_.low_watermark_bytes) {
      draining_ = false;
      ++low_crossings_;
      QosMetrics::Get().crossings_low.inc();
    } else {
      GrantLocked(op, bytes, DrainMode::kForced);
      return true;
    }
  }
  if (!draining_ && backlog >= cfg_.high_watermark_bytes) {
    draining_ = true;
    ++high_crossings_;
    QosMetrics::Get().crossings_high.inc();
    GrantLocked(op, bytes, DrainMode::kForced);
    return true;
  }
  // Opportunistic drain within the bulk in-flight byte budget. Borrow
  // semantics: an oversized batch passes when no bulk is in flight, so
  // a batch larger than the budget cannot wedge forever.
  if (inflight_[kBulk] != 0 &&
      inflight_[kBulk] + bytes > cfg_.bulk_inflight_cap) {
    ++deferrals_;
    QosMetrics::Get().deferrals.inc();
    return false;
  }
  const bool latency_outstanding =
      queued_[kDegraded] + inflight_[kDegraded] > 0;
  if (HeadroomLocked() || !latency_outstanding) {
    GrantLocked(op, bytes, DrainMode::kOpportunistic);
    return true;
  }
  ++deferrals_;
  QosMetrics::Get().deferrals.inc();
  return false;
}

void BandwidthGovernor::force_dispatch(OpClass op, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  GrantLocked(op, bytes, DrainMode::kAged);
}

void BandwidthGovernor::GrantLocked(OpClass op, std::uint64_t bytes,
                                    DrainMode mode) {
  const std::size_t i = Idx(op);
  queued_[i] = SubClamped(queued_[i], bytes);
  inflight_[i] += bytes;
  dispatched_[i] += bytes;
  auto& m = QosMetrics::Get();
  m.queued_bytes[i]->set(static_cast<double>(queued_[i]));
  m.inflight_bytes[i]->set(static_cast<double>(inflight_[i]));
  m.inflight_bytes_total[i]->inc(bytes);
  if (op == OpClass::kEncode) {
    switch (mode) {
      case DrainMode::kForced:
        ++forced_drains_;
        m.drain_forced.inc();
        break;
      case DrainMode::kOpportunistic:
        ++opportunistic_drains_;
        m.drain_opportunistic.inc();
        break;
      case DrainMode::kAged:
        ++aged_drains_;
        m.drain_aged.inc();
        break;
    }
  }
}

void BandwidthGovernor::on_complete(OpClass op, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t i = Idx(op);
  inflight_[i] = SubClamped(inflight_[i], bytes);
  completed_[i] += bytes;
  QosMetrics::Get().inflight_bytes[i]->set(static_cast<double>(inflight_[i]));
}

void BandwidthGovernor::on_drop(OpClass op, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t i = Idx(op);
  queued_[i] = SubClamped(queued_[i], bytes);
  dropped_[i] += bytes;
  QosMetrics::Get().queued_bytes[i]->set(static_cast<double>(queued_[i]));
}

void BandwidthGovernor::observe_latency(OpClass op, double seconds) {
  if (op != OpClass::kDecode || seconds <= 0.0) return;
  std::lock_guard<std::mutex> lk(mu_);
  ewma_s_ = ewma_s_ <= 0.0 ? seconds
                           : (1.0 - kLatencyEwmaAlpha) * ewma_s_ +
                                 kLatencyEwmaAlpha * seconds;
  // Decaying minimum: the floor creeps up per sample so a transiently
  // quiet calibration window cannot pin the headroom bound forever —
  // the same fix the dialga::Coordinator baselines got.
  floor_s_ = floor_s_ <= 0.0
                 ? seconds
                 : std::min(seconds, floor_s_ * (1.0 + kFloorDecay));
}

void BandwidthGovernor::observe_defer(double seconds) {
  QosMetrics::Get().defer_seconds.observe(seconds);
}

bool BandwidthGovernor::HeadroomLocked() const {
  if (ewma_s_ <= 0.0) return true;  // nothing observed yet
  return ewma_s_ <= cfg_.degraded_headroom_ratio * floor_s_;
}

GovernorStats BandwidthGovernor::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  GovernorStats s;
  s.queued_bytes = queued_;
  s.inflight_bytes = inflight_;
  s.admitted_bytes = admitted_;
  s.dispatched_bytes = dispatched_;
  s.completed_bytes = completed_;
  s.dropped_bytes = dropped_;
  s.rejected_backstop = rejected_backstop_;
  s.deferrals = deferrals_;
  s.forced_drains = forced_drains_;
  s.opportunistic_drains = opportunistic_drains_;
  s.aged_drains = aged_drains_;
  s.high_crossings = high_crossings_;
  s.low_crossings = low_crossings_;
  s.draining = draining_;
  return s;
}

}  // namespace svc
