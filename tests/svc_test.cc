// StripeService behavior: concurrent producers, batching vs serial
// bit-identity, two-level admission control (queue bound and per-class
// limits), graceful shutdown (drain and cancel), per-request failure
// statuses, and the rolling pattern feed into the adaptive layer.
//
// The deterministic saturation trick: the service's codec factory runs
// on the dispatcher thread (first batch of a (k, m) with no override),
// so a factory that blocks on a gate stalls dispatch exactly between
// admission and the pool — the queue then fills or the class limit
// holds for as long as the test needs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "ec/isal.h"
#include "obs/trace.h"
#include "svc/stripe_service.h"

namespace svc {
namespace {

using namespace std::chrono_literals;

/// Owns the block buffers of `n` stripes and builds requests on them.
class StripeSet {
 public:
  StripeSet(std::size_t n, StripeShape sh, unsigned seed)
      : n_(n), sh_(sh), blocks_(n * (sh.k + sh.m)) {
    std::mt19937_64 rng(seed);
    for (std::size_t s = 0; s < n_; ++s) {
      for (std::size_t i = 0; i < sh_.k + sh_.m; ++i) {
        auto& b = block_vec(s, i);
        b.resize(sh_.block_size);
        if (i < sh_.k) {
          for (auto& x : b) x = static_cast<std::byte>(rng());
        }
      }
    }
  }

  std::size_t size() const { return n_; }
  const StripeShape& shape() const { return sh_; }
  std::vector<std::byte>& block_vec(std::size_t s, std::size_t i) {
    return blocks_[s * (sh_.k + sh_.m) + i];
  }
  std::byte* block(std::size_t s, std::size_t i) {
    return block_vec(s, i).data();
  }

  EncodeRequest encode_request(std::size_t s,
                               const ec::Codec* codec = nullptr) {
    EncodeRequest req;
    req.shape = sh_;
    req.codec = codec;
    for (std::size_t i = 0; i < sh_.k; ++i) req.data.push_back(block(s, i));
    for (std::size_t j = 0; j < sh_.m; ++j) {
      req.parity.push_back(block(s, sh_.k + j));
    }
    return req;
  }

  DecodeRequest decode_request(std::size_t s,
                               std::vector<std::size_t> erasures,
                               const ec::Codec* codec = nullptr) {
    DecodeRequest req;
    req.shape = sh_;
    req.codec = codec;
    req.erasures = std::move(erasures);
    for (std::size_t i = 0; i < sh_.k + sh_.m; ++i) {
      req.blocks.push_back(block(s, i));
    }
    return req;
  }

  /// Serial reference encode of every stripe into `parity_out` (same
  /// layout as the parity blocks), without touching this set's parity.
  std::vector<std::vector<std::byte>> reference_parity(
      const ec::Codec& codec) {
    std::vector<std::vector<std::byte>> out(n_ * sh_.m);
    for (std::size_t s = 0; s < n_; ++s) {
      std::vector<const std::byte*> data;
      std::vector<std::byte*> parity;
      for (std::size_t i = 0; i < sh_.k; ++i) data.push_back(block(s, i));
      for (std::size_t j = 0; j < sh_.m; ++j) {
        out[s * sh_.m + j].resize(sh_.block_size);
        parity.push_back(out[s * sh_.m + j].data());
      }
      codec.encode(sh_.block_size, data, parity);
    }
    return out;
  }

 private:
  std::size_t n_;
  StripeShape sh_;
  std::vector<std::vector<std::byte>> blocks_;
};

/// Codec factory that blocks its first invocation on a gate, stalling
/// the dispatcher thread (see file comment).
struct GatedFactory {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f{release.get_future()};
  std::atomic<int> calls{0};

  StripeService::Config install(StripeService::Config cfg) {
    cfg.codec_factory = [this](std::size_t k, std::size_t m)
        -> std::unique_ptr<const ec::Codec> {
      if (calls.fetch_add(1) == 0) {
        entered.set_value();
        release_f.wait();
      }
      return std::make_unique<ec::IsalCodec>(k, m);
    };
    return cfg;
  }
};

/// Minimal codec whose decode always fails — drives kDecodeFailed.
class UndecodableCodec : public ec::Codec {
 public:
  UndecodableCodec(std::size_t k, std::size_t m) : k_(k), m_(m) {}
  std::string name() const override { return "undecodable"; }
  ec::CodeParams params() const override { return {k_, m_}; }
  ec::SimdWidth simd() const override { return ec::SimdWidth::kAvx256; }
  void encode(std::size_t, std::span<const std::byte* const>,
              std::span<std::byte* const>) const override {}
  bool decode(std::size_t, std::span<std::byte* const>,
              std::span<const std::size_t>) const override {
    return false;
  }
  ec::EncodePlan encode_plan(std::size_t,
                             const simmem::ComputeCost&) const override {
    return {};
  }
  ec::EncodePlan decode_plan(std::size_t, const simmem::ComputeCost&,
                             std::span<const std::size_t>) const override {
    return {};
  }

 private:
  std::size_t k_;
  std::size_t m_;
};

TEST(StripeServiceTest, ConcurrentProducersAllCompleteCorrectly) {
  const StripeShape sh{4, 2, 512};
  const ec::IsalCodec codec(sh.k, sh.m);
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kPerProducer = 64;

  StripeService service;
  std::vector<std::unique_ptr<StripeSet>> sets;
  for (std::size_t t = 0; t < kProducers; ++t) {
    sets.push_back(std::make_unique<StripeSet>(
        kPerProducer, sh, static_cast<unsigned>(1000 + t)));
  }
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      std::vector<std::future<Result>> done;
      for (std::size_t s = 0; s < kPerProducer; ++s) {
        done.push_back(
            service.submit(sets[t]->encode_request(s, &codec)));
      }
      for (auto& f : done) {
        if (f.get().ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : producers) th.join();

  EXPECT_EQ(ok.load(), kProducers * kPerProducer);
  // Batched parity is bit-identical to the serial reference.
  for (std::size_t t = 0; t < kProducers; ++t) {
    const auto ref = sets[t]->reference_parity(codec);
    for (std::size_t s = 0; s < kPerProducer; ++s) {
      for (std::size_t j = 0; j < sh.m; ++j) {
        ASSERT_EQ(sets[t]->block_vec(s, sh.k + j), ref[s * sh.m + j])
            << "producer " << t << " stripe " << s << " parity " << j;
      }
    }
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.admitted, kProducers * kPerProducer);
  EXPECT_EQ(st.completed_ok, kProducers * kPerProducer);
  EXPECT_EQ(st.dispatched_stripes, kProducers * kPerProducer);
  EXPECT_EQ(st.pool.tasks_run, kProducers * kPerProducer);
  EXPECT_GE(st.batches, 1u);
  EXPECT_GE(st.mean_batch_stripes(), 1.0);
  EXPECT_GT(st.latency_samples, 0u);
  EXPECT_GE(st.latency_p99_s, st.latency_p50_s);
}

TEST(StripeServiceTest, BatchedDecodeRoundTripsBitIdentically) {
  const StripeShape sh{6, 3, 1024};
  const ec::IsalCodec codec(sh.k, sh.m);
  constexpr std::size_t kStripes = 48;

  StripeSet set(kStripes, sh, 7);
  StripeService service;
  {
    std::vector<std::future<Result>> done;
    for (std::size_t s = 0; s < kStripes; ++s) {
      done.push_back(service.submit(set.encode_request(s, &codec)));
    }
    for (auto& f : done) ASSERT_TRUE(f.get().ok());
  }
  // Keep pristine copies, wipe two blocks per stripe, decode batched.
  StripeSet pristine = set;
  const std::vector<std::size_t> erasures{1, sh.k + 1};
  for (std::size_t s = 0; s < kStripes; ++s) {
    for (const std::size_t e : erasures) {
      std::fill(set.block_vec(s, e).begin(), set.block_vec(s, e).end(),
                std::byte{0xEE});
    }
  }
  {
    std::vector<std::future<Result>> done;
    for (std::size_t s = 0; s < kStripes; ++s) {
      done.push_back(service.submit(set.decode_request(s, erasures, &codec)));
    }
    for (auto& f : done) ASSERT_TRUE(f.get().ok());
  }
  for (std::size_t s = 0; s < kStripes; ++s) {
    for (std::size_t i = 0; i < sh.k + sh.m; ++i) {
      ASSERT_EQ(set.block_vec(s, i), pristine.block_vec(s, i))
          << "stripe " << s << " block " << i;
    }
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.admitted_encode, kStripes);
  EXPECT_EQ(st.admitted_decode, kStripes);
  EXPECT_EQ(st.completed_ok, 2 * kStripes);
}

TEST(StripeServiceTest, QueueFullRejectsImmediately) {
  const StripeShape sh{4, 2, 256};
  GatedFactory gate;
  StripeService::Config cfg;
  cfg.queue_capacity = 4;
  // Keep the class limit out of the way so only the queue bound fires.
  cfg.encode_inflight_limit = 64;
  StripeService service(gate.install(std::move(cfg)));

  // Head request: no codec override, so dispatch stalls in the factory.
  StripeSet set(6, sh, 11);
  std::vector<std::future<Result>> done;
  done.push_back(service.submit(set.encode_request(0)));
  gate.entered.get_future().wait();

  // Dispatcher is stalled: these four sit in the bounded queue...
  for (std::size_t s = 0; s < 4; ++s) {
    done.push_back(service.submit(set.encode_request(1 + s)));
  }
  // ...and the fifth must be rejected without blocking.
  std::future<Result> rejected = service.submit(set.encode_request(5));
  ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(rejected.get().status, StatusCode::kRejectedQueueFull);

  gate.release.set_value();
  for (auto& f : done) EXPECT_TRUE(f.get().ok());
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.queue_high_water, 4u);
  EXPECT_EQ(st.completed_ok, 5u);
}

TEST(StripeServiceTest, ClassLimitShieldsTheOtherClass) {
  const StripeShape sh{4, 2, 256};
  const ec::IsalCodec codec(sh.k, sh.m);
  GatedFactory gate;
  StripeService::Config cfg;
  cfg.queue_capacity = 16;
  cfg.encode_inflight_limit = 1;
  StripeService service(gate.install(std::move(cfg)));

  // A decodable stripe for the decode-class probe.
  StripeSet set(3, sh, 13);
  {
    std::vector<const std::byte*> data;
    std::vector<std::byte*> parity;
    for (std::size_t i = 0; i < sh.k; ++i) data.push_back(set.block(2, i));
    for (std::size_t j = 0; j < sh.m; ++j) {
      parity.push_back(set.block(2, sh.k + j));
    }
    codec.encode(sh.block_size, data, parity);
  }

  std::future<Result> head = service.submit(set.encode_request(0));
  gate.entered.get_future().wait();

  // Encodes are at their in-flight cap; decodes must still be admitted.
  std::future<Result> second = service.submit(set.encode_request(1));
  ASSERT_EQ(second.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(second.get().status, StatusCode::kRejectedClassLimit);
  std::future<Result> probe =
      service.submit(set.decode_request(2, {1}, &codec));
  EXPECT_NE(probe.wait_for(0s), std::future_status::ready);

  gate.release.set_value();
  EXPECT_TRUE(head.get().ok());
  EXPECT_TRUE(probe.get().ok());
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected_class_limit, 1u);
  EXPECT_EQ(st.admitted_encode, 1u);
  EXPECT_EQ(st.admitted_decode, 1u);
}

TEST(StripeServiceTest, ShutdownDrainCompletesEverythingAdmitted) {
  const StripeShape sh{4, 2, 512};
  const ec::IsalCodec codec(sh.k, sh.m);
  constexpr std::size_t kStripes = 256;
  StripeSet set(kStripes + 1, sh, 17);

  StripeService service;
  std::vector<std::future<Result>> done;
  for (std::size_t s = 0; s < kStripes; ++s) {
    done.push_back(service.submit(set.encode_request(s, &codec)));
  }
  service.shutdown(StripeService::Drain::kDrain);
  for (auto& f : done) EXPECT_TRUE(f.get().ok());

  // Admission is closed now.
  std::future<Result> late = service.submit(set.encode_request(kStripes));
  ASSERT_EQ(late.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(late.get().status, StatusCode::kShutdown);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.completed_ok, kStripes);
  EXPECT_EQ(st.admitted, kStripes);
  EXPECT_EQ(st.rejected_shutdown, 1u);
}

TEST(StripeServiceTest, ShutdownCancelDropsQueuedButFinishesDispatched) {
  const StripeShape sh{4, 2, 256};
  GatedFactory gate;
  StripeService::Config cfg;
  cfg.queue_capacity = 32;
  // The dispatched head counts against the encode class cap but not the
  // queue, so with the default cap (= capacity) a closer thread slow to
  // run lets the probes below hit kRejectedClassLimit before the queue
  // fills. Lift the cap: a full queue is the only back-pressure here.
  cfg.encode_inflight_limit = 2 * cfg.queue_capacity;
  StripeService service(gate.install(std::move(cfg)));

  constexpr std::size_t kQueued = 8;
  StripeSet set(2 + kQueued, sh, 19);
  std::future<Result> head = service.submit(set.encode_request(0));
  gate.entered.get_future().wait();
  std::vector<std::future<Result>> queued;
  for (std::size_t s = 0; s < kQueued; ++s) {
    queued.push_back(service.submit(set.encode_request(1 + s)));
  }

  std::thread closer(
      [&] { service.shutdown(StripeService::Drain::kCancel); });
  // Hold the dispatcher in the factory until shutdown has demonstrably
  // closed admission (a probe resolves kShutdown immediately) — without
  // this the dispatcher could drain the queue as a normal batch before
  // the closer thread sets the cancel flag. Probes admitted during the
  // race window just join the to-be-cancelled set.
  const std::size_t probe_stripe = 1 + kQueued;
  for (;;) {
    std::future<Result> probe =
        service.submit(set.encode_request(probe_stripe));
    if (probe.wait_for(0s) != std::future_status::ready) {
      queued.push_back(std::move(probe));  // admitted: will be cancelled
      std::this_thread::yield();
      continue;
    }
    const Result res = probe.get();
    if (res.status == StatusCode::kShutdown) break;
    EXPECT_EQ(res.status, StatusCode::kRejectedQueueFull);
    std::this_thread::yield();
  }
  gate.release.set_value();
  closer.join();

  EXPECT_TRUE(head.get().ok());  // already dispatched: must finish
  for (auto& f : queued) {
    EXPECT_EQ(f.get().status, StatusCode::kCancelled);
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.cancelled, queued.size());
  EXPECT_GE(st.cancelled, kQueued);
  EXPECT_EQ(st.completed_ok, 1u);
}

TEST(StripeServiceTest, PerRequestFailureStatuses) {
  const StripeShape sh{2, 1, 128};
  const UndecodableCodec bad(sh.k, sh.m);
  StripeService service;
  StripeSet set(2, sh, 23);

  // Codec-level decode failure surfaces on that request only.
  std::future<Result> failed =
      service.submit(set.decode_request(0, {0}, &bad));
  EXPECT_EQ(failed.get().status, StatusCode::kDecodeFailed);

  // Malformed requests resolve immediately as kInvalidArgument.
  EncodeRequest wrong_counts = set.encode_request(1);
  wrong_counts.data.pop_back();
  EXPECT_EQ(service.submit(std::move(wrong_counts)).get().status,
            StatusCode::kInvalidArgument);
  DecodeRequest bad_erasure = set.decode_request(1, {sh.k + sh.m});
  EXPECT_EQ(service.submit(std::move(bad_erasure)).get().status,
            StatusCode::kInvalidArgument);
  EncodeRequest mismatched = set.encode_request(1, &bad);
  mismatched.shape = {3, 1, 128};  // override codec is (2, 1)
  EXPECT_EQ(service.submit(std::move(mismatched)).get().status,
            StatusCode::kInvalidArgument);

  // The service keeps serving after per-request failures.
  const ec::IsalCodec good(sh.k, sh.m);
  EXPECT_TRUE(service.submit(set.encode_request(1, &good)).get().ok());
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.decode_failed, 1u);
  EXPECT_EQ(st.invalid, 3u);
  EXPECT_EQ(st.completed_ok, 1u);
}

TEST(StripeServiceTest, RollingPatternFeedsAdaptiveLayer) {
  const StripeShape major{6, 3, 1024};
  const StripeShape minor{4, 2, 512};
  const ec::IsalCodec major_codec(major.k, major.m);
  const ec::IsalCodec minor_codec(minor.k, minor.m);

  StripeService service;
  StripeSet major_set(12, major, 29);
  StripeSet minor_set(4, minor, 31);
  std::vector<std::future<Result>> done;
  for (std::size_t s = 0; s < major_set.size(); ++s) {
    done.push_back(service.submit(major_set.encode_request(s, &major_codec)));
  }
  for (std::size_t s = 0; s < minor_set.size(); ++s) {
    done.push_back(service.submit(minor_set.encode_request(s, &minor_codec)));
  }
  for (auto& f : done) ASSERT_TRUE(f.get().ok());

  const dialga::PatternInfo pattern = service.pattern();
  EXPECT_EQ(pattern.k, major.k);
  EXPECT_EQ(pattern.m, major.m);
  EXPECT_EQ(pattern.block_size, major.block_size);
  EXPECT_EQ(pattern.nthreads, service.pool().worker_count());

  // The adaptive provider re-keys its strategy off the live mix.
  const dialga::DialgaCodec adaptive(major.k, major.m);
  simmem::SimConfig sim;
  auto provider = adaptive.make_encode_provider(
      {major.k, major.m, /*block_size=*/512, /*nthreads=*/1}, sim);
  service.feed_pattern(*provider);
  EXPECT_EQ(provider->coordinator().pattern().block_size, major.block_size);
  EXPECT_EQ(provider->coordinator().pattern().nthreads,
            service.pool().worker_count());
}

TEST(StripeServiceTest, ExternalPoolIsSharedNotOwned) {
  ec::ThreadPool pool(2);
  const StripeShape sh{4, 2, 256};
  const ec::IsalCodec codec(sh.k, sh.m);
  StripeSet set(8, sh, 37);
  {
    StripeService service(StripeService::Config{}, pool);
    EXPECT_EQ(&service.pool(), &pool);
    std::vector<std::future<Result>> done;
    for (std::size_t s = 0; s < set.size(); ++s) {
      done.push_back(service.submit(set.encode_request(s, &codec)));
    }
    for (auto& f : done) EXPECT_TRUE(f.get().ok());
    EXPECT_EQ(service.stats().pool.tasks_run, set.size());
  }
  // Service destruction must leave the external pool usable.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16u);
}

TEST(ServiceStatsTest, BatchBucketEdgeCases) {
  // One-stripe batches land in bucket 0, [1, 2).
  EXPECT_EQ(ServiceStats::BatchBucketIndex(1), 0u);
  // Degenerate input: 0 stripes also maps to bucket 0 (never happens —
  // FormBatches emits no empty batch — but must not underflow).
  EXPECT_EQ(ServiceStats::BatchBucketIndex(0), 0u);
  // Power-of-two boundaries: bucket i covers [2^i, 2^(i+1)).
  EXPECT_EQ(ServiceStats::BatchBucketIndex(2), 1u);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(3), 1u);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(4), 2u);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(1023), 9u);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(1024), 10u);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(2047), 10u);
  // Saturation: everything at or beyond 2^(kBatchBuckets-1) = 2048
  // absorbs into the last bucket instead of indexing past the array.
  const std::size_t last = ServiceStats::kBatchBuckets - 1;
  EXPECT_EQ(ServiceStats::BatchBucketIndex(2048), last);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(4096), last);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(std::size_t{1} << 20), last);
  EXPECT_EQ(ServiceStats::BatchBucketIndex(SIZE_MAX), last);
}

TEST(StripeServiceTest, BatchHistogramCountsOneStripeBatches) {
  // A single submitted stripe dispatches as a 1-stripe batch and must
  // land in histogram bucket 0 — not vanish into an off-by-one.
  const StripeShape sh{4, 2, 256};
  const ec::IsalCodec codec(sh.k, sh.m);
  StripeSet set(1, sh, 11);
  StripeService service;
  ASSERT_TRUE(service.submit(set.encode_request(0, &codec)).get().ok());
  service.shutdown();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batch_size_log2[0], 1u);
  std::uint64_t total = 0;
  for (const auto c : s.batch_size_log2) total += c;
  EXPECT_EQ(total, s.batches);
}

TEST(StripeServiceTest, StatsSnapshotsStayCoherentUnderConcurrentScrapes) {
  // Satellite invariant: a scrape taken at ANY point while producers
  // and completions race must never observe completions outrunning
  // admissions — stats() reads every counter under one lock
  // acquisition. Run under TSan this also proves the scrape path is
  // race-free against the dispatcher and completion hooks.
  const StripeShape sh{4, 2, 256};
  const ec::IsalCodec codec(sh.k, sh.m);
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 64;
  std::vector<std::unique_ptr<StripeSet>> sets;
  for (std::size_t t = 0; t < kProducers; ++t) {
    sets.push_back(
        std::make_unique<StripeSet>(kPerProducer, sh, 100 + unsigned(t)));
  }
  StripeService::Config cfg;
  cfg.queue_capacity = 16;  // small queue: rejections exercised too
  StripeService service(std::move(cfg));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ServiceStats s = service.stats();
      const std::uint64_t settled = s.completed_ok + s.decode_failed +
                                    s.codec_errors + s.cancelled +
                                    s.deadline_exceeded;
      EXPECT_LE(settled, s.admitted);
      EXPECT_EQ(s.admitted, s.admitted_encode + s.admitted_decode);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Producers start once the scraper runs: a loaded host may otherwise
  // schedule it only after every stripe has completed, and no scrape
  // would race the producers.
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t s = 0; s < kPerProducer; ++s) {
        service.submit(sets[t]->encode_request(s, &codec)).get();
      }
    });
  }
  for (auto& p : producers) p.join();
  service.shutdown();
  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  // Quiesced: everything admitted has settled, nothing double-counted.
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.completed_ok + s.decode_failed + s.codec_errors +
                s.cancelled + s.deadline_exceeded,
            s.admitted);
}

TEST(StripeServiceTest, TraceSpansFollowTheLifecycle) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.clear();
  tracer.set_enabled(true);
  const StripeShape sh{4, 2, 256};
  const ec::IsalCodec codec(sh.k, sh.m);
  StripeSet set(8, sh, 21);
  {
    StripeService service;
    std::vector<std::future<Result>> done;
    for (std::size_t s = 0; s < set.size(); ++s) {
      done.push_back(service.submit(set.encode_request(s, &codec)));
    }
    for (auto& f : done) EXPECT_TRUE(f.get().ok());
    service.shutdown();
  }
  tracer.set_enabled(false);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), set.size());
  for (const auto& span : spans) {
    EXPECT_EQ(span.op, "encode");
    EXPECT_EQ(span.status, "ok");
    // Every stage was reached, in pipeline order.
    EXPECT_GE(span.queue_s, 0.0);
    EXPECT_LE(span.queue_s, span.batch_s);
    EXPECT_LE(span.batch_s, span.exec_s);
    EXPECT_LE(span.exec_s, span.total_s);
  }
  tracer.clear();
}

}  // namespace
}  // namespace svc
