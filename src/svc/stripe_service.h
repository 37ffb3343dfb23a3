// Embeddable erasure-coding stripe service: the request front-end the
// ROADMAP's production story needs between callers and the codec.
//
//   request -> admission -> bounded queue -> batcher -> thread pool
//           -> codec -> completion (future)
//
// Concurrent producers submit single-stripe encode/decode requests and
// get future-based completions. A dispatcher thread drains the bounded
// MPMC queue, coalesces same-(k, m, block_size) requests into stripe
// batches sized for the work-stealing pool, and dispatches them with
// ThreadPool::run_async — several batches (different shapes) are in
// flight at once, and completion hooks resolve the futures from the
// worker that retires each batch's last stripe.
//
// Admission control is two-level: the queue bound rejects when the
// service as a whole is saturated (kRejectedQueueFull), and per-class
// in-flight limits keep a flood of one class (bulk encodes) from
// starving the other (latency-sensitive degraded reads) —
// kRejectedClassLimit. Rejections resolve the future immediately; the
// caller retries, sheds load, or falls back to its serial path.
//
// The service also maintains a rolling dialga::PatternInfo over the
// admitted mix (modal stripe shape + pool concurrency) — the live I/O
// access pattern the paper's coordinator keys its strategy off — and
// feeds it to a DialgaPlanProvider via feed_pattern().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dialga/dialga.h"
#include "ec/codec.h"
#include "ec/thread_pool.h"
#include "svc/batcher.h"
#include "svc/bounded_queue.h"
#include "svc/governor.h"
#include "svc/request.h"
#include "svc/service_stats.h"
#include "svc/status.h"

namespace svc {

class StripeService {
 public:
  struct Config {
    /// Bounded submission queue; try_push failure => kRejectedQueueFull.
    std::size_t queue_capacity = 1024;
    /// Stripes per dispatched batch; 0 = 4x the pool's worker count.
    std::size_t max_batch = 0;
    /// Per-class admitted-but-not-completed caps; 0 = queue_capacity.
    std::size_t encode_inflight_limit = 0;
    std::size_t decode_inflight_limit = 0;
    /// Worker threads of the owned pool (ignored when an external pool
    /// is supplied); 0 = ec::ThreadPool::DefaultWorkerCount().
    std::size_t pool_threads = 0;
    /// Worker threads of a dedicated side pool for decodes (degraded
    /// reads); 0 = none, every batch shares the main pool. With a side
    /// pool, a degraded read never queues behind bulk stripes already
    /// handed to the workers — the dispatch-side half of the QoS story
    /// (the governor paces what bulk may occupy; the side pool keeps
    /// the degraded reads' queueing independent of it).
    std::size_t latency_pool_threads = 0;
    /// Builds the codec for a shape with no per-request override. The
    /// default materializes dialga::DialgaCodec(k, m); built codecs are
    /// cached per (k, m) for the service's lifetime.
    std::function<std::unique_ptr<const ec::Codec>(std::size_t k,
                                                   std::size_t m)>
        codec_factory;
    /// Optional bandwidth governor (non-owning; must outlive the
    /// service). When set, admission adds a byte backstop for bulk
    /// encodes (kRejectedBandwidth) and the dispatcher defers bulk
    /// batches by the governor's watermark/headroom policy. Null keeps
    /// the count-cap-only behavior bit-identical.
    BandwidthGovernor* governor = nullptr;
  };

  StripeService();  ///< all-defaults Config
  explicit StripeService(Config cfg);
  /// Share an external pool (must outlive the service) instead of
  /// owning one — embedders with a process-wide pool pass
  /// ec::ThreadPool::Shared().
  StripeService(Config cfg, ec::ThreadPool& pool);
  /// Drains in-flight work (shutdown(kDrain)) if still running.
  ~StripeService();

  StripeService(const StripeService&) = delete;
  StripeService& operator=(const StripeService&) = delete;

  /// Submit one stripe. The future always resolves: kOk on success,
  /// kRejected* immediately under saturation, kShutdown after
  /// shutdown, kCancelled if shutdown(kCancel) dropped it,
  /// kDeadlineExceeded when the request's timeout expires before
  /// dispatch (checked at admission and swept from the queue),
  /// kDecodeFailed / kInvalidArgument on per-request failure. Buffers
  /// must stay valid until the future resolves.
  std::future<Result> submit(EncodeRequest req);
  std::future<Result> submit(DecodeRequest req);

  enum class Drain {
    kDrain,   ///< complete everything already admitted
    kCancel,  ///< finish dispatched batches; cancel still-queued requests
  };

  /// Graceful shutdown: stops admission, then drains or cancels the
  /// queue and waits for every in-flight batch. Idempotent; safe to
  /// call concurrently with producers (they get kShutdown).
  void shutdown(Drain mode = Drain::kDrain);

  /// Point-in-time snapshot, coherent under one acquisition of the
  /// service lock: every counter in the returned struct was read from
  /// the same locked state, so cross-counter invariants hold in any
  /// snapshot a concurrent scraper takes — in particular
  ///   completed_ok + failures <= admitted
  /// (admission increments before the queue push under the same lock
  /// that completions take, so a snapshot can transiently over-count
  /// `admitted` by a racing push that later rolls back, never the
  /// reverse). Safe to call at any time from any thread.
  ServiceStats stats() const;

  /// Rolling I/O access pattern of the admitted mix: modal
  /// (k, m, block_size) over the last 1024 admissions,
  /// nthreads = pool concurrency. Zero-initialized before the first
  /// admission.
  dialga::PatternInfo pattern() const;

  /// Hand the rolling pattern to an adaptive provider ahead of a timed
  /// or simulated run — the coordinator re-decides its strategy for
  /// the traffic actually being served.
  void feed_pattern(dialga::DialgaPlanProvider& provider) const {
    provider.observe_pattern(pattern());
  }

  ec::ThreadPool& pool() { return *pool_; }
  std::size_t max_batch() const { return max_batch_; }

 private:
  /// A bulk batch the governor held back, parked on the
  /// dispatcher thread until headroom returns, the backlog watermark
  /// forces a drain, or the batch ages past the governor's bound.
  struct Deferred {
    std::shared_ptr<std::vector<Pending>> reqs;
    Batch batch;
    std::chrono::steady_clock::time_point since;
  };

  void Init();
  std::future<Result> admit(Pending&& p);
  void DispatcherLoop();
  void TryDispatchBatch(const std::shared_ptr<std::vector<Pending>>& reqs,
                        Batch&& batch,
                        std::chrono::steady_clock::time_point now);
  /// Retry deferred batches: sweep expired members, re-ask the
  /// governor, force-dispatch aged ones. `flush` dispatches (or, under
  /// a cancel shutdown, cancels) everything still held.
  void ReleaseDeferred(bool flush);
  void DispatchBatch(std::shared_ptr<std::vector<Pending>> reqs,
                     Batch&& batch);
  void CompleteBatch(const std::shared_ptr<std::vector<Pending>>& reqs,
                     const Batch& batch,
                     const std::vector<unsigned char>& decode_failed,
                     std::exception_ptr error);
  const ec::Codec* ResolveCodec(const Batch& batch);
  void RecordCompletion(Pending& p, StatusCode status);
  static StatusCode Validate(const Pending& p);

  Config cfg_;
  std::unique_ptr<ec::ThreadPool> owned_pool_;
  ec::ThreadPool* pool_ = nullptr;
  /// Side pool for decodes (Config::latency_pool_threads).
  std::unique_ptr<ec::ThreadPool> latency_pool_;
  std::size_t max_batch_ = 0;
  ec::ThreadPoolStats pool_baseline_;

  BoundedQueue<Pending> queue_;
  std::thread dispatcher_;
  std::vector<Deferred> deferred_;  ///< dispatcher thread only
  std::mutex shutdown_mu_;  ///< serializes the dispatcher join

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  ///< signalled when batches land
  bool shutting_down_ = false;       // guarded by mu_
  bool cancel_queued_ = false;       // guarded by mu_
  std::size_t inflight_batches_ = 0;  // dispatched, hook not yet run
  std::size_t inflight_encode_ = 0;   // admitted, not yet completed
  std::size_t inflight_decode_ = 0;
  ServiceStats counters_;             // pool/queue fields filled on read
  std::vector<double> latency_ring_;
  std::size_t latency_next_ = 0;
  std::vector<StripeShape> pattern_ring_;
  std::size_t pattern_next_ = 0;
  std::size_t pattern_count_ = 0;
  /// Factory-built codecs per (k, m); pointers handed to in-flight
  /// batches stay stable (node-based map, unique_ptr values).
  std::unordered_map<std::uint64_t, std::unique_ptr<const ec::Codec>>
      codecs_;
};

}  // namespace svc
