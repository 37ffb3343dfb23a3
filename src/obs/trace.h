// Lightweight stripe-lifecycle tracing: one span per traced request,
// stamped at each stage of the service pipeline
//
//   admit -> queue (dispatcher pop) -> batch (handed to the pool)
//         -> encode/decode (codec body ran) -> complete
//
// with per-span status and fault-site annotations, so a failed or slow
// stripe can be localized to the stage that stalled it. Completed
// spans land in a bounded ring (oldest evicted) and dump as JSON-lines
// next to the metrics.
//
// Cost model: tracing is OFF by default and every hook is gated on one
// relaxed atomic load. When enabled, each stage takes a steady_clock
// stamp plus a short mutex-protected map/ring update — meant for
// debugging sessions and EXPERIMENTS traces, not the steady-state hot
// path (enable sampling via set_sample_every to bound overhead there).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace obs {

enum class Stage {
  kAdmit = 0,  ///< admission accepted the request (span start)
  kQueue,      ///< dispatcher popped it off the submission queue
  kBatch,      ///< its batch was handed to the thread pool
  kExec,       ///< the codec body for this stripe finished
  kComplete,   ///< its future resolved (span end)
};

const char* to_string(Stage s);

/// One completed stripe lifecycle. Stage times are seconds relative to
/// the admit stamp; a stage the span never reached stays negative.
struct StripeSpan {
  std::uint64_t id = 0;
  std::string op;      ///< "encode" / "decode"
  std::size_t k = 0, m = 0, block = 0;
  double start_s = 0.0;     ///< admit time since tracer construction
  double queue_s = -1.0;    ///< admit -> dispatcher pop
  double batch_s = -1.0;    ///< admit -> pool dispatch
  double exec_s = -1.0;     ///< admit -> codec body done
  double total_s = -1.0;    ///< admit -> completion
  std::string status;       ///< final StatusCode string
  std::string note;         ///< fault-site / error annotation
};

/// Hardened on/off environment flag: accepts 1/0, true/false, on/off
/// and yes/no (case-insensitive). An unset variable returns `def`
/// silently; any other value prints one stderr line and returns `def`.
bool EnvFlag(const char* name, bool def);

class Tracer {
 public:
  Tracer();

  /// Process-wide tracer; enabled at construction when DIALGA_TRACE is
  /// an on value of EnvFlag (1, true, on, yes). Unset, off spellings
  /// and malformed values (the latter with a stderr line) leave it off.
  static Tracer& Global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Trace only every Nth begin() (1 = every request). Sampled-out
  /// requests get id 0 and cost nothing downstream.
  void set_sample_every(std::uint64_t n);
  /// Completed spans kept before the oldest is evicted.
  void set_capacity(std::size_t n);

  /// Open a span; returns 0 (trace nothing downstream) when disabled
  /// or sampled out.
  std::uint64_t begin(const char* op, std::size_t k, std::size_t m,
                      std::size_t block);
  void event(std::uint64_t id, Stage stage);
  void annotate(std::uint64_t id, const std::string& note);
  /// Close the span and move it to the completed ring.
  void finish(std::uint64_t id, const char* status);

  std::vector<StripeSpan> snapshot() const;
  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void clear();

  /// One JSON object per completed span per line.
  void dump_jsonl(std::ostream& os) const;
  bool dump_to_file(const std::string& path) const;

 private:
  double now_s() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> sample_every_{1};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> dropped_{0};  ///< spans evicted unread
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::size_t capacity_ = 4096;                     // guarded by mu_
  std::unordered_map<std::uint64_t, StripeSpan> open_;  // guarded by mu_
  std::deque<StripeSpan> completed_;                // guarded by mu_
};

}  // namespace obs
