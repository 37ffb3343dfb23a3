// Batch formation: group a drained run of admitted requests into
// per-(op, shape, codec) stripe batches capped at the pool's batch
// size. Pure functions over index lists so the grouping policy is unit
// testable without a running service.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <span>
#include <vector>

#include "svc/request.h"
#include "svc/status.h"

namespace svc {

/// One admitted request travelling through the service: the payload,
/// its completion promise, and the admission timestamp the service
/// latency is measured from. Move-only (promise).
struct Pending {
  OpClass op = OpClass::kEncode;
  EncodeRequest enc;
  DecodeRequest dec;
  std::promise<Result> done;
  std::chrono::steady_clock::time_point submitted;
  /// Absolute expiry computed at admission from the request's relative
  /// timeout; the epoch value means "no deadline".
  std::chrono::steady_clock::time_point deadline{};
  /// Lifecycle trace span opened at admission; 0 when tracing is off
  /// or this request was sampled out (every downstream hook no-ops).
  std::uint64_t trace_id = 0;
  /// Set by DispatchBatch; completion routes governor accounting to
  /// in-flight (dispatched) vs queued (dropped undispatched) bytes.
  bool dispatched = false;

  const StripeShape& shape() const {
    return op == OpClass::kEncode ? enc.shape : dec.shape;
  }
  const ec::Codec* codec_override() const {
    return op == OpClass::kEncode ? enc.codec : dec.codec;
  }
  std::chrono::nanoseconds timeout() const {
    return op == OpClass::kEncode ? enc.timeout : dec.timeout;
  }
  bool expired(std::chrono::steady_clock::time_point now) const {
    return deadline != std::chrono::steady_clock::time_point{} &&
           now >= deadline;
  }
  /// Stripe footprint the governor accounts in: both ops touch the
  /// full k+m blocks (encode reads k and writes m; decode scans the
  /// survivor set), so one uniform measure keeps byte accounting
  /// comparable across classes.
  std::uint64_t qos_bytes() const {
    const StripeShape& s = shape();
    return static_cast<std::uint64_t>(s.k + s.m) * s.block_size;
  }
};

/// One dispatchable stripe batch: indices into the drained request run,
/// all sharing op + shape + codec override, at most max_batch of them.
struct Batch {
  OpClass op = OpClass::kEncode;
  StripeShape shape;
  const ec::Codec* codec = nullptr;  ///< override; null = factory codec
  std::vector<std::size_t> indices;  ///< submission order preserved
};

/// Governor-accounted bytes of one batch (stripes x full-stripe
/// footprint).
inline std::uint64_t BatchBytes(const Batch& b) {
  return static_cast<std::uint64_t>(b.indices.size()) *
         static_cast<std::uint64_t>(b.shape.k + b.shape.m) *
         b.shape.block_size;
}

/// Group `reqs` into batches. Requests keep their relative submission
/// order inside a batch; a (op, shape, codec) group larger than
/// max_batch splits into consecutive batches so one giant burst cannot
/// monopolize the pool. max_batch == 0 means unbounded. The op is the
/// governor's traffic class, so the governor can defer a bulk batch
/// without holding degraded reads hostage inside it.
std::vector<Batch> FormBatches(std::span<const Pending> reqs,
                               std::size_t max_batch);

}  // namespace svc
