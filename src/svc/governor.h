// Bandwidth governor: byte-denominated shaping of bulk encodes so they
// cannot starve degraded reads on a shared StripeService.
//
// The service's request-count caps treat a 16 MiB bulk encode and a
// 64 KiB degraded read as one slot each, so a bulk storm can starve
// latency-sensitive reads while the queue looks healthy. The governor
// replaces them as the primary control (they stay on as a backstop)
// with byte-denominated scheduling borrowed from the usimm memory
// schedulers' write-drain idiom. The op is the traffic class: encodes
// are throttled bulk, decodes are the latency class (degraded reads).
//
//  * per-class byte accounting — queued (admitted, undispatched) and
//    in-flight (dispatched, uncompleted) bytes per OpClass;
//  * opportunistic drain — bulk batches dispatch only while
//    degraded-read latency has headroom (observed EWMA within a ratio
//    of its decaying low-pressure floor — the same decaying-minimum
//    idiom the dialga::Coordinator baselines use);
//  * high/low watermark hysteresis — when deferred bulk bytes back up
//    past the high watermark the governor force-drains regardless of
//    headroom until the backlog falls below the low watermark, so bulk
//    is shaped, never wedged;
//  * aging — a deferred batch older than max_defer_ns dispatches
//    unconditionally, so starvation of bulk is bounded by policy.
//
// Thread-safe. All scheduling state lives behind one mutex — the call
// sites (admission, dispatcher, completion) already serialize on locks
// of similar weight.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "svc/request.h"

namespace svc {

struct GovernorConfig {
  /// Deferred-backlog watermarks over bulk bytes. Above high, forced
  /// drain engages; it disengages below low.
  std::uint64_t high_watermark_bytes = 64ull << 20;
  std::uint64_t low_watermark_bytes = 16ull << 20;
  /// In-flight byte budget of bulk for opportunistic dispatch. A batch
  /// larger than the budget borrows when no bulk is in flight, so
  /// oversized batches cannot wedge.
  std::uint64_t bulk_inflight_cap = 8ull << 20;
  /// Headroom bound: bulk drains opportunistically while the
  /// degraded-read latency EWMA stays within this ratio of its
  /// decaying low-pressure floor.
  double degraded_headroom_ratio = 1.5;
  /// Oldest a deferred batch may grow before it dispatches
  /// unconditionally (starvation bound for bulk).
  std::uint64_t max_defer_ns = 100'000'000;
};

/// Point-in-time governor snapshot (one lock acquisition, coherent).
/// The per-class arrays are indexed by OpClass.
struct GovernorStats {
  std::array<std::uint64_t, kOpClassCount> queued_bytes{};
  std::array<std::uint64_t, kOpClassCount> inflight_bytes{};
  std::array<std::uint64_t, kOpClassCount> admitted_bytes{};
  std::array<std::uint64_t, kOpClassCount> dispatched_bytes{};
  std::array<std::uint64_t, kOpClassCount> completed_bytes{};
  std::array<std::uint64_t, kOpClassCount> dropped_bytes{};
  std::uint64_t rejected_backstop = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t forced_drains = 0;
  std::uint64_t opportunistic_drains = 0;
  std::uint64_t aged_drains = 0;
  std::uint64_t high_crossings = 0;
  std::uint64_t low_crossings = 0;
  bool draining = false;
};

class BandwidthGovernor {
 public:
  explicit BandwidthGovernor(GovernorConfig cfg = {});

  /// Admission: account `bytes` as queued for `op`. False (and no
  /// accounting) only for bulk over its 256 MiB backstop — the caller
  /// rejects with kRejectedBandwidth. Decodes always admit.
  bool try_admit(OpClass op, std::uint64_t bytes);

  /// Dispatch gate. Decodes always pass (queued -> in-flight). Bulk
  /// passes under forced drain (watermark hysteresis), or
  /// opportunistically when within its in-flight budget AND
  /// degraded-read headroom exists (or no decode is outstanding).
  /// False = defer; the caller retries later.
  bool try_dispatch(OpClass op, std::uint64_t bytes);

  /// Unconditional dispatch accounting, for aged-out deferred batches
  /// and shutdown flushes. Counts as an aged drain.
  void force_dispatch(OpClass op, std::uint64_t bytes);

  /// A dispatched request completed (any status): in-flight -= bytes.
  void on_complete(OpClass op, std::uint64_t bytes);

  /// An admitted, never-dispatched request died (cancel, expiry,
  /// admission rollback): queued -= bytes.
  void on_drop(OpClass op, std::uint64_t bytes);

  /// Served-request latency feed; only decode samples move the
  /// EWMA/floor the headroom bound is computed from.
  void observe_latency(OpClass op, double seconds);

  /// How long a deferred batch waited before dispatch (histogram).
  void observe_defer(double seconds);

  std::uint64_t max_defer_ns() const { return cfg_.max_defer_ns; }

  GovernorStats snapshot() const;

  /// Eagerly instantiate the dialga_qos_* metric families so exports
  /// carry them before any governed traffic flows (the metrics gate
  /// scrapes an idle process). Called from StripeService::Init().
  static void RegisterMetrics();

 private:
  enum class DrainMode { kOpportunistic, kForced, kAged };

  bool HeadroomLocked() const;
  void GrantLocked(OpClass op, std::uint64_t bytes, DrainMode mode);

  GovernorConfig cfg_;

  mutable std::mutex mu_;
  std::array<std::uint64_t, kOpClassCount> queued_{};
  std::array<std::uint64_t, kOpClassCount> inflight_{};
  std::array<std::uint64_t, kOpClassCount> admitted_{};
  std::array<std::uint64_t, kOpClassCount> dispatched_{};
  std::array<std::uint64_t, kOpClassCount> completed_{};
  std::array<std::uint64_t, kOpClassCount> dropped_{};
  std::uint64_t rejected_backstop_ = 0;
  std::uint64_t deferrals_ = 0;
  std::uint64_t forced_drains_ = 0;
  std::uint64_t opportunistic_drains_ = 0;
  std::uint64_t aged_drains_ = 0;
  std::uint64_t high_crossings_ = 0;
  std::uint64_t low_crossings_ = 0;
  bool draining_ = false;
  double ewma_s_ = 0.0;
  double floor_s_ = 0.0;
};

}  // namespace svc
