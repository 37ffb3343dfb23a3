// Request types accepted by svc::StripeService. A request carries one
// stripe's buffers; the service coalesces admitted requests that share
// a StripeShape into batches sized for the thread pool. Buffers must
// stay valid until the request's future resolves.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "ec/codec.h"

namespace svc {

/// Batch key: requests with equal (k, m, block_size) — and the same
/// codec override — coalesce into one stripe batch.
struct StripeShape {
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t block_size = 0;

  friend bool operator==(const StripeShape&, const StripeShape&) = default;
};

/// The op is also the bandwidth governor's traffic class: encodes are
/// throttled bulk, decodes are latency-sensitive degraded reads.
enum class OpClass { kEncode, kDecode };
inline constexpr std::size_t kOpClassCount = 2;

/// Compute shape.m parity blocks from shape.k data blocks.
struct EncodeRequest {
  StripeShape shape;
  std::vector<const std::byte*> data;  ///< shape.k pointers
  std::vector<std::byte*> parity;      ///< shape.m pointers
  /// Optional codec override (LRC, a specific baseline…). Must match
  /// the shape's (k, m) and outlive the request's completion. When
  /// null the service uses its codec factory (DIALGA by default).
  const ec::Codec* codec = nullptr;
  /// Per-request deadline, relative to submit(); zero = none. A
  /// request still queued when its deadline passes completes with
  /// kDeadlineExceeded (admission rejects one already expired).
  std::chrono::nanoseconds timeout{0};
};

/// Reconstruct the erased blocks of one stripe in place.
struct DecodeRequest {
  StripeShape shape;
  std::vector<std::byte*> blocks;  ///< shape.k + shape.m pointers
  std::vector<std::size_t> erasures;
  const ec::Codec* codec = nullptr;
  std::chrono::nanoseconds timeout{0};  ///< see EncodeRequest::timeout
};

}  // namespace svc
