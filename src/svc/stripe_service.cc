#include "svc/stripe_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "bench_util/stats.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace svc {

namespace {

/// Completions kept for the p50/p99 latency window.
constexpr std::size_t kLatencyWindow = 4096;
/// Admissions kept for the rolling PatternInfo.
constexpr std::size_t kPatternWindow = 1024;

std::uint64_t CodecKey(std::size_t k, std::size_t m) {
  return (static_cast<std::uint64_t>(k) << 32) | static_cast<std::uint64_t>(m);
}

std::future<Result> Immediate(Pending&& p, StatusCode status) {
  std::future<Result> f = p.done.get_future();
  p.done.set_value(Result{status, 0.0});
  return f;
}

/// Process-wide service metrics, aggregated across every StripeService
/// instance; the per-instance ServiceStats snapshot (stats()) stays
/// the embedder's view. References are cached once — the registry map
/// is never consulted on the hot path.
struct SvcMetrics {
  obs::Counter& admitted_encode;
  obs::Counter& admitted_decode;
  obs::Counter& rejected_queue_full;
  obs::Counter& rejected_class_limit;
  obs::Counter& rejected_bandwidth;
  obs::Counter& rejected_shutdown;
  obs::Counter& invalid;
  obs::Counter& completed_ok;
  obs::Counter& decode_failed;
  obs::Counter& codec_errors;
  obs::Counter& cancelled;
  obs::Counter& deadline_exceeded;
  obs::Counter& batches;
  obs::Counter& dispatched_stripes;
  obs::Histogram& batch_stripes;
  obs::Histogram& latency;
  obs::Gauge& queue_high_water;

  static SvcMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static SvcMetrics m{
        reg.counter("dialga_svc_admitted_total", {{"op", "encode"}},
                    "Requests accepted by admission control"),
        reg.counter("dialga_svc_admitted_total", {{"op", "decode"}}),
        reg.counter("dialga_svc_rejected_total", {{"reason", "queue_full"}},
                    "Requests rejected at admission"),
        reg.counter("dialga_svc_rejected_total", {{"reason", "class_limit"}}),
        reg.counter("dialga_svc_rejected_total", {{"reason", "bandwidth"}}),
        reg.counter("dialga_svc_rejected_total", {{"reason", "shutdown"}}),
        reg.counter("dialga_svc_invalid_total", {},
                    "Malformed requests (pointer counts, erasures)"),
        reg.counter("dialga_svc_completed_total", {{"status", "ok"}},
                    "Admitted requests by final status"),
        reg.counter("dialga_svc_completed_total",
                    {{"status", "decode_failed"}}),
        reg.counter("dialga_svc_completed_total", {{"status", "codec_error"}}),
        reg.counter("dialga_svc_completed_total", {{"status", "cancelled"}}),
        reg.counter("dialga_svc_completed_total",
                    {{"status", "deadline_exceeded"}}),
        reg.counter("dialga_svc_batches_total", {},
                    "Stripe batches dispatched to the pool"),
        reg.counter("dialga_svc_dispatched_stripes_total", {},
                    "Stripes dispatched inside batches"),
        reg.histogram("dialga_svc_batch_stripes",
                      obs::Pow2Bounds(ServiceStats::kBatchBuckets - 1), {},
                      "Dispatched batch sizes, stripes per batch"),
        reg.histogram("dialga_svc_latency_seconds", obs::LatencyBounds(), {},
                      "Submit-to-completion latency of served requests"),
        reg.gauge("dialga_svc_queue_high_water", {},
                  "Deepest submission queue seen by any service"),
    };
    return m;
  }
};

}  // namespace

StripeService::StripeService() : StripeService(Config()) {}

StripeService::StripeService(Config cfg)
    : cfg_(std::move(cfg)),
      owned_pool_(std::make_unique<ec::ThreadPool>(cfg_.pool_threads)),
      pool_(owned_pool_.get()),
      queue_(std::max<std::size_t>(1, cfg_.queue_capacity)) {
  Init();
}

StripeService::StripeService(Config cfg, ec::ThreadPool& pool)
    : cfg_(std::move(cfg)),
      pool_(&pool),
      queue_(std::max<std::size_t>(1, cfg_.queue_capacity)) {
  Init();
}

void StripeService::Init() {
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
  max_batch_ = cfg_.max_batch != 0 ? cfg_.max_batch
                                   : 4 * std::max<std::size_t>(
                                             1, pool_->worker_count());
  if (cfg_.encode_inflight_limit == 0) {
    cfg_.encode_inflight_limit = cfg_.queue_capacity;
  }
  if (cfg_.decode_inflight_limit == 0) {
    cfg_.decode_inflight_limit = cfg_.queue_capacity;
  }
  if (!cfg_.codec_factory) {
    cfg_.codec_factory = [](std::size_t k, std::size_t m) {
      return std::make_unique<dialga::DialgaCodec>(k, m);
    };
  }
  latency_ring_.resize(kLatencyWindow);
  pattern_ring_.resize(kPatternWindow);
  // Instantiate the QoS metric families even for ungoverned services
  // so scrapes expose them before (or without) any governed traffic.
  BandwidthGovernor::RegisterMetrics();
  if (cfg_.latency_pool_threads > 0) {
    latency_pool_ =
        std::make_unique<ec::ThreadPool>(cfg_.latency_pool_threads);
  }
  pool_baseline_ = pool_->stats();
  dispatcher_ = std::thread(&StripeService::DispatcherLoop, this);
}

StripeService::~StripeService() { shutdown(Drain::kDrain); }

StatusCode StripeService::Validate(const Pending& p) {
  const StripeShape& s = p.shape();
  if (s.k == 0 || s.m == 0 || s.block_size == 0) {
    return StatusCode::kInvalidArgument;
  }
  const ec::Codec* codec = p.codec_override();
  if (codec != nullptr) {
    const ec::CodeParams cp = codec->params();
    if (cp.k != s.k || cp.m != s.m) return StatusCode::kInvalidArgument;
  }
  if (p.op == OpClass::kEncode) {
    if (p.enc.data.size() != s.k || p.enc.parity.size() != s.m) {
      return StatusCode::kInvalidArgument;
    }
    for (const std::byte* b : p.enc.data) {
      if (b == nullptr) return StatusCode::kInvalidArgument;
    }
    for (std::byte* b : p.enc.parity) {
      if (b == nullptr) return StatusCode::kInvalidArgument;
    }
  } else {
    if (p.dec.blocks.size() != s.k + s.m ||
        p.dec.erasures.size() > s.m) {
      return StatusCode::kInvalidArgument;
    }
    for (std::byte* b : p.dec.blocks) {
      if (b == nullptr) return StatusCode::kInvalidArgument;
    }
    for (const std::size_t e : p.dec.erasures) {
      if (e >= s.k + s.m) return StatusCode::kInvalidArgument;
    }
  }
  return StatusCode::kOk;
}

std::future<Result> StripeService::submit(EncodeRequest req) {
  Pending p;
  p.op = OpClass::kEncode;
  p.enc = std::move(req);
  return admit(std::move(p));
}

std::future<Result> StripeService::submit(DecodeRequest req) {
  Pending p;
  p.op = OpClass::kDecode;
  p.dec = std::move(req);
  return admit(std::move(p));
}

std::future<Result> StripeService::admit(Pending&& p) {
  p.submitted = std::chrono::steady_clock::now();
  if (p.timeout() != std::chrono::nanoseconds{0}) {
    p.deadline = p.submitted + p.timeout();
  }
  if (const StatusCode v = Validate(p); v != StatusCode::kOk) {
    SvcMetrics::Get().invalid.inc();
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.invalid;
    return Immediate(std::move(p), v);
  }
  const OpClass op = p.op;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutting_down_) {
      ++counters_.rejected_shutdown;
      SvcMetrics::Get().rejected_shutdown.inc();
      return Immediate(std::move(p), StatusCode::kShutdown);
    }
    // Deadline-aware admission: a request whose budget is already
    // spent (non-positive timeout) never enters the queue.
    if (p.expired(p.submitted)) {
      ++counters_.deadline_exceeded;
      SvcMetrics::Get().deadline_exceeded.inc();
      return Immediate(std::move(p), StatusCode::kDeadlineExceeded);
    }
    // Fault site: a firing plan makes admission behave exactly as if
    // the queue were saturated, exercising callers' rejection paths.
    if (fault::Fires("svc.admission")) {
      ++counters_.rejected_queue_full;
      SvcMetrics::Get().rejected_queue_full.inc();
      return Immediate(std::move(p), StatusCode::kRejectedQueueFull);
    }
    // Per-class backpressure: one class saturating its share must not
    // push the other out of the queue entirely.
    if (op == OpClass::kEncode &&
        inflight_encode_ >= cfg_.encode_inflight_limit) {
      ++counters_.rejected_class_limit;
      SvcMetrics::Get().rejected_class_limit.inc();
      return Immediate(std::move(p), StatusCode::kRejectedClassLimit);
    }
    if (op == OpClass::kDecode &&
        inflight_decode_ >= cfg_.decode_inflight_limit) {
      ++counters_.rejected_class_limit;
      SvcMetrics::Get().rejected_class_limit.inc();
      return Immediate(std::move(p), StatusCode::kRejectedClassLimit);
    }
    // Byte-denominated backstop: the governor rejects bulk whose
    // queued + in-flight bytes would exceed its cap — the count limits
    // above stay on as the coarse backstop.
    if (cfg_.governor != nullptr &&
        !cfg_.governor->try_admit(op, p.qos_bytes())) {
      ++counters_.rejected_bandwidth;
      SvcMetrics::Get().rejected_bandwidth.inc();
      return Immediate(std::move(p), StatusCode::kRejectedBandwidth);
    }
    // Count the admission before the push: a dispatched completion may
    // decrement the class counter at any point after the push lands.
    ++counters_.admitted;
    if (op == OpClass::kEncode) {
      ++counters_.admitted_encode;
      ++inflight_encode_;
    } else {
      ++counters_.admitted_decode;
      ++inflight_decode_;
    }
    pattern_ring_[pattern_next_] = p.shape();
    pattern_next_ = (pattern_next_ + 1) % pattern_ring_.size();
    pattern_count_ = std::min(pattern_count_ + 1, pattern_ring_.size());
  }
  const StripeShape& shape = p.shape();
  p.trace_id = obs::Tracer::Global().begin(
      op == OpClass::kEncode ? "encode" : "decode", shape.k, shape.m,
      shape.block_size);
  std::future<Result> f = p.done.get_future();
  if (!queue_.try_push(p)) {
    // Full — or closed by a racing shutdown; roll the admission back
    // and report which. (The pattern-ring entry is left in place: one
    // phantom shape in the window is noise.)
    if (cfg_.governor != nullptr) {
      cfg_.governor->on_drop(op, p.qos_bytes());
    }
    std::lock_guard<std::mutex> lk(mu_);
    --counters_.admitted;
    if (op == OpClass::kEncode) {
      --counters_.admitted_encode;
      --inflight_encode_;
    } else {
      --counters_.admitted_decode;
      --inflight_decode_;
    }
    if (shutting_down_) {
      ++counters_.rejected_shutdown;
      SvcMetrics::Get().rejected_shutdown.inc();
      obs::Tracer::Global().finish(p.trace_id, "shutdown");
      p.done.set_value(Result{StatusCode::kShutdown, 0.0});
    } else {
      ++counters_.rejected_queue_full;
      SvcMetrics::Get().rejected_queue_full.inc();
      obs::Tracer::Global().finish(p.trace_id, "rejected_queue_full");
      p.done.set_value(Result{StatusCode::kRejectedQueueFull, 0.0});
    }
    return f;
  }
  // Registry admissions are mirrored after the push lands so the
  // monotonic counters never need the rollback above.
  if (op == OpClass::kEncode) {
    SvcMetrics::Get().admitted_encode.inc();
  } else {
    SvcMetrics::Get().admitted_decode.inc();
  }
  return f;
}

void StripeService::DispatcherLoop() {
  // With deferred batches parked, the dispatcher polls instead of
  // blocking so headroom recovery (or aging) re-opens the tap without
  // waiting for the next arrival.
  constexpr auto kDeferRetry = std::chrono::microseconds(200);
  for (;;) {
    ReleaseDeferred(/*flush=*/false);
    Pending first;
    if (deferred_.empty()) {
      if (!queue_.pop(&first)) break;
    } else {
      const QueuePop r = queue_.pop_for(&first, kDeferRetry);
      if (r == QueuePop::kClosed) break;
      if (r == QueuePop::kTimeout) continue;
    }
    auto run = std::make_shared<std::vector<Pending>>();
    run->push_back(std::move(first));
    // Coalesce the burst behind the head item, bounded so one drain
    // round cannot grow past a full set of pool-sized batches.
    const std::size_t drain_cap = 4 * max_batch_;
    Pending next;
    while (run->size() < drain_cap && queue_.try_pop(&next)) {
      run->push_back(std::move(next));
    }
    auto& tracer = obs::Tracer::Global();
    if (tracer.enabled()) {
      for (const Pending& p : *run) tracer.event(p.trace_id, obs::Stage::kQueue);
    }
    SvcMetrics::Get().queue_high_water.max_of(
        static_cast<double>(queue_.high_water()));

    bool cancel = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      cancel = cancel_queued_;
    }
    if (cancel) {
      std::lock_guard<std::mutex> lk(mu_);
      for (Pending& p : *run) RecordCompletion(p, StatusCode::kCancelled);
      continue;
    }

    // Expiry sweep: requests whose deadline passed while queued are
    // completed with kDeadlineExceeded instead of being dispatched —
    // the caller's time budget is spent, running them is wasted work.
    const auto now = std::chrono::steady_clock::now();
    const auto live_end = std::stable_partition(
        run->begin(), run->end(),
        [now](const Pending& p) { return !p.expired(now); });
    if (live_end != run->end()) {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto it = live_end; it != run->end(); ++it) {
        RecordCompletion(*it, StatusCode::kDeadlineExceeded);
      }
    }
    run->erase(live_end, run->end());
    if (run->empty()) continue;

    std::vector<Batch> batches = FormBatches(*run, max_batch_);
    const auto dispatch_now = std::chrono::steady_clock::now();
    for (Batch& b : batches) TryDispatchBatch(run, std::move(b), dispatch_now);
  }
  // Queue closed and drained; whatever the governor still holds back
  // is flushed (drain shutdown) or cancelled (cancel shutdown).
  ReleaseDeferred(/*flush=*/true);
}

void StripeService::TryDispatchBatch(
    const std::shared_ptr<std::vector<Pending>>& reqs, Batch&& batch,
    std::chrono::steady_clock::time_point now) {
  if (cfg_.governor != nullptr &&
      !cfg_.governor->try_dispatch(batch.op, BatchBytes(batch))) {
    deferred_.push_back(Deferred{reqs, std::move(batch), now});
    return;
  }
  DispatchBatch(reqs, std::move(batch));
}

void StripeService::ReleaseDeferred(bool flush) {
  if (deferred_.empty()) return;
  bool cancel = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cancel = cancel_queued_;
  }
  if (cancel) {
    std::lock_guard<std::mutex> lk(mu_);
    for (Deferred& d : deferred_) {
      for (const std::size_t i : d.batch.indices) {
        RecordCompletion((*d.reqs)[i], StatusCode::kCancelled);
      }
    }
    deferred_.clear();
    return;
  }
  // Only a governor parks batches, so one is attached here.
  const auto now = std::chrono::steady_clock::now();
  const auto max_defer =
      std::chrono::nanoseconds(cfg_.governor->max_defer_ns());
  std::vector<Deferred> still;
  for (Deferred& d : deferred_) {
    // Expiry sweep inside the parked batch: members whose deadline
    // passed while deferred complete now instead of dispatching.
    std::vector<std::size_t> live;
    std::vector<std::size_t> dead;
    for (const std::size_t i : d.batch.indices) {
      ((*d.reqs)[i].expired(now) ? dead : live).push_back(i);
    }
    if (!dead.empty()) {
      std::lock_guard<std::mutex> lk(mu_);
      for (const std::size_t i : dead) {
        RecordCompletion((*d.reqs)[i], StatusCode::kDeadlineExceeded);
      }
      d.batch.indices = std::move(live);
    }
    if (d.batch.indices.empty()) continue;
    const std::uint64_t bytes = BatchBytes(d.batch);
    const bool aged = flush || (max_defer.count() > 0 &&
                                now - d.since >= max_defer);
    // A grant does its own accounting inside try_dispatch.
    if (!cfg_.governor->try_dispatch(d.batch.op, bytes)) {
      if (!aged) {
        still.push_back(std::move(d));
        continue;
      }
      cfg_.governor->force_dispatch(d.batch.op, bytes);
    }
    cfg_.governor->observe_defer(
        std::chrono::duration<double>(now - d.since).count());
    DispatchBatch(d.reqs, std::move(d.batch));
  }
  deferred_ = std::move(still);
}

const ec::Codec* StripeService::ResolveCodec(const Batch& batch) {
  if (batch.codec != nullptr) return batch.codec;
  // Dispatcher-thread only: no lock needed around the cache.
  auto [it, inserted] =
      codecs_.try_emplace(CodecKey(batch.shape.k, batch.shape.m));
  if (inserted) {
    it->second = cfg_.codec_factory(batch.shape.k, batch.shape.m);
  }
  return it->second.get();
}

void StripeService::DispatchBatch(std::shared_ptr<std::vector<Pending>> reqs,
                                  Batch&& batch) {
  // Per-batch bookkeeping happens at actual dispatch (not batch
  // formation) so deferred batches never inflate the in-flight count
  // the shutdown wait drains.
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.batches;
    counters_.dispatched_stripes += batch.indices.size();
    ++counters_.batch_size_log2[ServiceStats::BatchBucketIndex(
        batch.indices.size())];
    ++inflight_batches_;
  }
  {
    auto& m = SvcMetrics::Get();
    m.batches.inc();
    m.dispatched_stripes.inc(batch.indices.size());
    m.batch_stripes.observe(static_cast<double>(batch.indices.size()));
  }
  // Dispatcher-thread write, read at completion after the pool's own
  // synchronization — routes the governor's completion accounting.
  for (const std::size_t i : batch.indices) (*reqs)[i].dispatched = true;
  const ec::Codec* codec = ResolveCodec(batch);
  auto shared_batch = std::make_shared<Batch>(std::move(batch));
  auto failed = std::make_shared<std::vector<unsigned char>>(
      shared_batch->indices.size(), 0);
  const std::size_t block = shared_batch->shape.block_size;
  {
    auto& tracer = obs::Tracer::Global();
    if (tracer.enabled()) {
      for (const std::size_t i : shared_batch->indices) {
        tracer.event((*reqs)[i].trace_id, obs::Stage::kBatch);
      }
    }
  }
  // Decode batches take the side pool when one is configured: their
  // stripes never sit in a worker deque behind bulk encodes the
  // governor already admitted.
  ec::ThreadPool& target =
      (latency_pool_ != nullptr && shared_batch->op == OpClass::kDecode)
          ? *latency_pool_
          : *pool_;
  target.run_async(
      shared_batch->indices.size(),
      [reqs, shared_batch, failed, codec, block](std::size_t j) {
        // Fault site: a firing plan throws InjectedFault from the
        // worker, driving the batch down the kCodecError path.
        fault::MaybeThrow("svc.codec");
        Pending& p = (*reqs)[shared_batch->indices[j]];
        obs::Tracer::Global().event(p.trace_id, obs::Stage::kExec);
        if (p.op == OpClass::kEncode) {
          codec->encode(block, p.enc.data, p.enc.parity);
        } else if (!codec->decode(block, p.dec.blocks, p.dec.erasures)) {
          (*failed)[j] = 1;
        }
      },
      [this, reqs, shared_batch, failed](std::exception_ptr error) {
        CompleteBatch(reqs, *shared_batch, *failed, error);
      });
}

void StripeService::CompleteBatch(
    const std::shared_ptr<std::vector<Pending>>& reqs, const Batch& batch,
    const std::vector<unsigned char>& decode_failed,
    std::exception_ptr error) {
  // Annotate failed batches before taking mu_: extracting what() means
  // a rethrow, which must not happen under the service lock.
  if (error != nullptr && obs::Tracer::Global().enabled()) {
    std::string note = "batch failed";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      note = e.what();
    } catch (...) {
    }
    auto& tracer = obs::Tracer::Global();
    for (const std::size_t i : batch.indices) {
      tracer.annotate((*reqs)[i].trace_id, note);
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t j = 0; j < batch.indices.size(); ++j) {
    Pending& p = (*reqs)[batch.indices[j]];
    StatusCode s = StatusCode::kOk;
    if (error != nullptr) {
      // A throwing codec body cancels the batch's remaining stripes
      // (ThreadPool semantics); no stripe of the batch can be trusted.
      s = StatusCode::kCodecError;
    } else if (p.op == OpClass::kDecode && decode_failed[j] != 0) {
      s = StatusCode::kDecodeFailed;
    }
    RecordCompletion(p, s);
  }
  if (--inflight_batches_ == 0) idle_cv_.notify_all();
}

void StripeService::RecordCompletion(Pending& p, StatusCode status) {
  // mu_ held by the caller.
  auto& m = SvcMetrics::Get();
  double seconds = 0.0;
  switch (status) {
    case StatusCode::kOk:
      ++counters_.completed_ok;
      m.completed_ok.inc();
      break;
    case StatusCode::kDecodeFailed:
      ++counters_.decode_failed;
      m.decode_failed.inc();
      break;
    case StatusCode::kCodecError:
      ++counters_.codec_errors;
      m.codec_errors.inc();
      break;
    case StatusCode::kCancelled:
      ++counters_.cancelled;
      m.cancelled.inc();
      break;
    case StatusCode::kDeadlineExceeded:
      ++counters_.deadline_exceeded;
      m.deadline_exceeded.inc();
      break;
    default:
      break;
  }
  if (p.op == OpClass::kEncode) {
    --inflight_encode_;
  } else {
    --inflight_decode_;
  }
  if (cfg_.governor != nullptr) {
    // Dispatched requests release in-flight bytes; ones that died
    // queued (cancel, expiry) release their queued bytes instead.
    if (p.dispatched) {
      cfg_.governor->on_complete(p.op, p.qos_bytes());
    } else {
      cfg_.governor->on_drop(p.op, p.qos_bytes());
    }
  }
  if (status == StatusCode::kOk || status == StatusCode::kDecodeFailed) {
    seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - p.submitted)
                  .count();
    latency_ring_[latency_next_] = seconds;
    latency_next_ = (latency_next_ + 1) % latency_ring_.size();
    m.latency.observe(seconds);
    if (cfg_.governor != nullptr) {
      cfg_.governor->observe_latency(p.op, seconds);
    }
  }
  obs::Tracer::Global().finish(p.trace_id, to_string(status));
  p.done.set_value(Result{status, seconds});
}

void StripeService::shutdown(Drain mode) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutting_down_ = true;
    if (mode == Drain::kCancel) cancel_queued_ = true;
  }
  queue_.close();
  {
    // Serialize the join: shutdown is idempotent and may race with the
    // destructor or a second caller.
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    if (dispatcher_.joinable()) dispatcher_.join();
  }
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return inflight_batches_ == 0; });
}

ServiceStats StripeService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceStats s = counters_;
  s.queue_high_water = queue_.high_water();
  s.pool = pool_->stats() - pool_baseline_;
  const std::size_t served = static_cast<std::size_t>(
      counters_.completed_ok + counters_.decode_failed);
  const std::size_t n = std::min(served, latency_ring_.size());
  if (n > 0) {
    std::vector<double> window;
    window.reserve(n);
    // The ring's first n entries are valid; order does not matter for
    // percentiles.
    for (std::size_t i = 0; i < n; ++i) window.push_back(latency_ring_[i]);
    s.latency_p50_s = bench_util::Percentile(window, 0.50);
    s.latency_p99_s = bench_util::Percentile(window, 0.99);
    s.latency_samples = n;
  }
  return s;
}

dialga::PatternInfo StripeService::pattern() const {
  std::lock_guard<std::mutex> lk(mu_);
  dialga::PatternInfo info;
  info.nthreads = pool_->worker_count();
  if (pattern_count_ == 0) return info;
  // Modal shape of the window: the shape mix in flight is small, so a
  // quadratic scan over distinct shapes is cheap.
  std::vector<std::pair<StripeShape, std::size_t>> counts;
  for (std::size_t i = 0; i < pattern_count_; ++i) {
    const StripeShape& sh = pattern_ring_[i];
    bool found = false;
    for (auto& [shape, count] : counts) {
      if (shape == sh) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) counts.emplace_back(sh, 1);
  }
  const auto best = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  info.k = best->first.k;
  info.m = best->first.m;
  info.block_size = best->first.block_size;
  return info;
}

}  // namespace svc
