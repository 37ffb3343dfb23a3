// Completion statuses of the stripe service. Every submitted request
// resolves its future with exactly one Result; rejection (admission
// control) and cancellation (shutdown) are reported through the same
// channel so callers have a single completion path.
#pragma once

namespace svc {

enum class StatusCode {
  kOk = 0,
  kRejectedQueueFull,   ///< bounded submission queue at capacity
  kRejectedClassLimit,  ///< per-class in-flight limit reached
  kShutdown,            ///< submitted after shutdown began
  kCancelled,           ///< dropped undispatched by shutdown(kCancel)
  kDecodeFailed,        ///< codec could not reconstruct the stripe
  kCodecError,          ///< codec body threw; whole batch untrusted
  kInvalidArgument,     ///< malformed request (pointer counts, erasures)
  kDeadlineExceeded,    ///< request deadline passed before completion
  kRejectedBandwidth,   ///< governor byte backstop for bulk encodes
};

inline const char* to_string(StatusCode c) {
  switch (c) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kRejectedQueueFull:
      return "rejected-queue-full";
    case StatusCode::kRejectedClassLimit:
      return "rejected-class-limit";
    case StatusCode::kShutdown:
      return "shutdown";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDecodeFailed:
      return "decode-failed";
    case StatusCode::kCodecError:
      return "codec-error";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case StatusCode::kRejectedBandwidth:
      return "rejected-bandwidth";
  }
  return "?";
}

/// True for the statuses admission control produces under saturation —
/// the request never entered the queue and is safe to retry later or
/// run inline (ShardStore falls back to the serial codec path).
inline bool IsRejection(StatusCode c) {
  return c == StatusCode::kRejectedQueueFull ||
         c == StatusCode::kRejectedClassLimit ||
         c == StatusCode::kRejectedBandwidth;
}

/// True for statuses a bounded retry-with-backoff loop may resubmit
/// after: saturation clears as in-flight work completes. Deadline
/// expiry is NOT retryable — the caller's time budget is spent.
inline bool IsRetryable(StatusCode c) { return IsRejection(c); }

/// Delivered through the request's future.
struct Result {
  StatusCode status = StatusCode::kOk;
  double service_seconds = 0.0;  ///< submit -> completion latency

  bool ok() const { return status == StatusCode::kOk; }
};

}  // namespace svc
