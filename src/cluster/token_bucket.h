// Token-bucket rate limiter for the repair orchestrator's per-class
// bandwidth caps (scrub reads, rebuild writes). Time is injectable so
// seeded chaos tests enforce the bandwidth invariant in deterministic
// virtual time while production uses the steady clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace cluster {

/// Injectable clock + sleep pair. Real() is the steady clock with a
/// real sleep; tests supply a manual counter whose sleep advances it,
/// so throttle() converges without wall-clock time passing.
struct VirtualTime {
  std::function<std::uint64_t()> now_ns;
  std::function<void(std::uint64_t)> sleep_ns;

  static VirtualTime Real() {
    return {
        [] {
          return static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count());
        },
        [](std::uint64_t ns) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
        }};
  }

  static VirtualTime Manual(std::uint64_t* t) {
    return {[t] { return *t; }, [t](std::uint64_t ns) { *t += ns; }};
  }
};

class TokenBucket {
 public:
  /// rate <= 0 disables limiting entirely. Burst defaults to one
  /// second of rate (so a cold bucket admits an initial burst) and is
  /// clamped to at least one byte so progress is always possible.
  TokenBucket(double rate_bytes_per_sec, double burst_bytes,
              VirtualTime time = VirtualTime::Real())
      : rate_(rate_bytes_per_sec),
        burst_(std::max(1.0, burst_bytes > 0 ? burst_bytes
                                             : rate_bytes_per_sec)),
        time_(std::move(time)),
        tokens_(burst_),
        last_ns_(unlimited() ? 0 : time_.now_ns()) {}

  bool unlimited() const { return rate_ <= 0.0; }

  /// Block (via the injected sleep) until `bytes` tokens are
  /// available, then consume them. Returns the number of waits taken.
  /// Requests larger than the burst are admitted once the bucket is
  /// full — they borrow, so a single oversized chunk cannot deadlock.
  std::uint64_t throttle(std::uint64_t bytes) {
    if (unlimited()) {
      granted_.fetch_add(bytes, std::memory_order_relaxed);
      return 0;
    }
    std::uint64_t waits = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      refill_locked();
      const double need = std::min(static_cast<double>(bytes), burst_);
      if (tokens_ >= need) {
        tokens_ -= static_cast<double>(bytes);  // may go negative: borrow
        granted_.fetch_add(bytes, std::memory_order_relaxed);
        return waits;
      }
      const double deficit = need - tokens_;
      const auto wait_ns =
          static_cast<std::uint64_t>(deficit / rate_ * 1e9) + 1;
      ++waits;
      waits_.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      time_.sleep_ns(wait_ns);
      lk.lock();
    }
  }

  /// Total bytes ever granted / waits ever taken — the counters the
  /// rate-limit invariant checks read.
  std::uint64_t granted() const {
    return granted_.load(std::memory_order_relaxed);
  }
  std::uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }

  double rate() const { return rate_; }
  double burst() const { return burst_; }

 private:
  void refill_locked() {
    const std::uint64_t now = time_.now_ns();
    if (now > last_ns_) {
      tokens_ = std::min(
          burst_, tokens_ + rate_ * static_cast<double>(now - last_ns_) / 1e9);
      last_ns_ = now;
    }
  }

  const double rate_;
  const double burst_;
  VirtualTime time_;
  std::mutex mu_;
  double tokens_;          // guarded by mu_
  std::uint64_t last_ns_;  // guarded by mu_
  std::atomic<std::uint64_t> granted_{0};
  std::atomic<std::uint64_t> waits_{0};
};

}  // namespace cluster
