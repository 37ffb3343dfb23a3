#include "ec/parallel.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "dialga/dialga.h"
#include "ec/isal.h"
#include "ec/thread_pool.h"

namespace ec {
namespace {

struct Corpus {
  std::size_t k, m, bs, stripes;
  std::vector<std::vector<std::byte>> storage;  // stripes x (k+m) blocks
  std::vector<std::vector<const std::byte*>> data_ptrs;
  std::vector<std::vector<std::byte*>> parity_ptrs;
  std::vector<StripeBuffers> buffers;

  Corpus(std::size_t k_, std::size_t m_, std::size_t bs_, std::size_t n,
         std::uint64_t seed)
      : k(k_), m(m_), bs(bs_), stripes(n) {
    std::mt19937_64 rng(seed);
    storage.resize(n * (k + m), std::vector<std::byte>(bs));
    data_ptrs.resize(n);
    parity_ptrs.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < k; ++i) {
        auto& blk = storage[s * (k + m) + i];
        for (auto& b : blk) b = static_cast<std::byte>(rng());
        data_ptrs[s].push_back(blk.data());
      }
      for (std::size_t j = 0; j < m; ++j) {
        parity_ptrs[s].push_back(storage[s * (k + m) + k + j].data());
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      buffers.push_back({data_ptrs[s], parity_ptrs[s]});
    }
  }
};

TEST(ParallelEncode, MatchesSerialEncode) {
  const IsalCodec codec(6, 3);
  Corpus serial(6, 3, 512, 24, 9);
  Corpus parallel(6, 3, 512, 24, 9);
  for (const StripeBuffers& sb : serial.buffers) {
    codec.encode(512, sb.data, sb.parity);
  }
  ParallelEncode(codec, 512, parallel.buffers, 4);
  EXPECT_EQ(serial.storage, parallel.storage);
}

TEST(ParallelEncode, SingleThreadAndZeroAutoWork) {
  const dialga::DialgaCodec codec(4, 2);
  Corpus a(4, 2, 256, 7, 3);
  Corpus b(4, 2, 256, 7, 3);
  ParallelEncode(codec, 256, a.buffers, 1);
  ParallelEncode(codec, 256, b.buffers, 0);  // hardware concurrency
  EXPECT_EQ(a.storage, b.storage);
}

TEST(ParallelEncode, EmptyIsNoOp) {
  const IsalCodec codec(4, 2);
  ParallelEncode(codec, 256, {}, 8);  // must not crash or hang
}

TEST(ParallelDecode, RepairsManyStripes) {
  const IsalCodec codec(5, 2);
  Corpus corpus(5, 2, 512, 16, 5);
  ParallelEncode(codec, 512, corpus.buffers, 2);
  const auto golden = corpus.storage;

  // Damage two blocks of every stripe.
  std::vector<std::vector<std::byte*>> all(corpus.stripes);
  const std::vector<std::size_t> erasures{1, 5};
  std::vector<DecodeJob> jobs;
  for (std::size_t s = 0; s < corpus.stripes; ++s) {
    for (std::size_t b = 0; b < 7; ++b) {
      all[s].push_back(corpus.storage[s * 7 + b].data());
    }
    for (const std::size_t e : erasures) {
      std::fill(corpus.storage[s * 7 + e].begin(),
                corpus.storage[s * 7 + e].end(), std::byte{0});
    }
    jobs.push_back({all[s], erasures});
  }
  ThreadPool pool(4);
  EXPECT_EQ(ParallelDecode(pool, codec, 512, jobs), 0u);
  EXPECT_EQ(corpus.storage, golden);
}

TEST(ParallelDecode, CountsFailures) {
  const IsalCodec codec(4, 2);
  Corpus corpus(4, 2, 256, 3, 7);
  ParallelEncode(codec, 256, corpus.buffers, 2);
  std::vector<std::vector<std::byte*>> all(corpus.stripes);
  const std::vector<std::size_t> too_many{0, 1, 2};
  std::vector<DecodeJob> jobs;
  for (std::size_t s = 0; s < corpus.stripes; ++s) {
    for (std::size_t b = 0; b < 6; ++b) {
      all[s].push_back(corpus.storage[s * 6 + b].data());
    }
    jobs.push_back({all[s], too_many});
  }
  ThreadPool pool(3);
  EXPECT_EQ(ParallelDecode(pool, codec, 256, jobs), 3u);
}

/// Codec whose encode/decode throw for one marked stripe — the
/// regression for worker-thread exception safety: before the pool,
/// a throw on a worker called std::terminate.
class ThrowingCodec : public Codec {
 public:
  ThrowingCodec(const Codec& inner, const std::byte* poisoned_block)
      : inner_(inner), poisoned_(poisoned_block) {}

  std::string name() const override { return "throwing"; }
  CodeParams params() const override { return inner_.params(); }
  SimdWidth simd() const override { return inner_.simd(); }

  void encode(std::size_t block_size,
              std::span<const std::byte* const> data,
              std::span<std::byte* const> parity) const override {
    if (!data.empty() && data[0] == poisoned_)
      throw std::runtime_error("media fault during encode");
    inner_.encode(block_size, data, parity);
  }
  bool decode(std::size_t block_size, std::span<std::byte* const> blocks,
              std::span<const std::size_t> erasures) const override {
    if (!blocks.empty() && blocks[0] == poisoned_)
      throw std::runtime_error("media fault during decode");
    return inner_.decode(block_size, blocks, erasures);
  }
  EncodePlan encode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost) const override {
    return inner_.encode_plan(block_size, cost);
  }
  EncodePlan decode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost,
                         std::span<const std::size_t> erasures)
      const override {
    return inner_.decode_plan(block_size, cost, erasures);
  }

 private:
  const Codec& inner_;
  const std::byte* poisoned_;
};

TEST(ParallelEncode, WorkerExceptionReachesCaller) {
  const IsalCodec inner(4, 2);
  Corpus corpus(4, 2, 256, 12, 21);
  const ThrowingCodec codec(inner, corpus.data_ptrs[7][0]);
  try {
    ParallelEncode(codec, 256, corpus.buffers, 4);
    FAIL() << "worker exception must rethrow on the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "media fault during encode");
  }
  // The serial path throws identically.
  EXPECT_THROW(ParallelEncode(codec, 256, corpus.buffers, 1),
               std::runtime_error);
}

TEST(ParallelDecode, WorkerExceptionReachesCaller) {
  const IsalCodec inner(4, 2);
  Corpus corpus(4, 2, 256, 8, 23);
  ParallelEncode(inner, 256, corpus.buffers, 2);
  std::vector<std::vector<std::byte*>> all(corpus.stripes);
  const std::vector<std::size_t> erasures{1};
  std::vector<DecodeJob> jobs;
  for (std::size_t s = 0; s < corpus.stripes; ++s) {
    for (std::size_t b = 0; b < 6; ++b) {
      all[s].push_back(corpus.storage[s * 6 + b].data());
    }
    jobs.push_back({all[s], erasures});
  }
  const ThrowingCodec codec(inner, all[3][0]);
  ThreadPool pool(4);
  EXPECT_THROW(ParallelDecode(pool, codec, 256, jobs), std::runtime_error);
}

TEST(ParallelEncode, ExplicitPoolIsReusedAcrossCalls) {
  ThreadPool pool(2);
  const IsalCodec codec(4, 2);
  Corpus a(4, 2, 256, 9, 31);
  Corpus b(4, 2, 256, 9, 31);
  ParallelEncode(pool, codec, 256, a.buffers);
  ParallelEncode(pool, codec, 256, b.buffers);
  EXPECT_EQ(a.storage, b.storage);
  const ThreadPoolStats s = pool.stats();
  EXPECT_EQ(s.parallel_fors, 2u);
  EXPECT_EQ(s.tasks_run, 18u);  // 9 stripes per call, one task each
}

TEST(ParallelRoundTrip, RandomStripesMatchSerialPath) {
  std::mt19937_64 rng(77);
  ThreadPool pool(3);
  for (int round = 0; round < 4; ++round) {
    const std::size_t k = 2 + rng() % 8;
    const std::size_t m = 1 + rng() % 3;
    const std::size_t bs = 256u << (rng() % 2);
    const std::size_t stripes = 4 + rng() % 12;
    const IsalCodec codec(k, m);

    Corpus serial(k, m, bs, stripes, 1000 + round);
    Corpus pooled(k, m, bs, stripes, 1000 + round);
    for (const StripeBuffers& sb : serial.buffers) {
      codec.encode(bs, sb.data, sb.parity);
    }
    ParallelEncode(pool, codec, bs, pooled.buffers);
    ASSERT_EQ(serial.storage, pooled.storage) << "round " << round;

    // Erase one random data block per stripe; decode serially and on
    // the pool.
    Corpus damaged_serial = serial;
    Corpus damaged_pooled = pooled;
    const std::vector<std::size_t> erasures{rng() % k};
    const auto make_jobs = [&](Corpus& c,
                               std::vector<std::vector<std::byte*>>& all) {
      std::vector<DecodeJob> jobs;
      for (std::size_t s = 0; s < c.stripes; ++s) {
        for (std::size_t b = 0; b < k + m; ++b) {
          all[s].push_back(c.storage[s * (k + m) + b].data());
        }
        std::fill(c.storage[s * (k + m) + erasures[0]].begin(),
                  c.storage[s * (k + m) + erasures[0]].end(), std::byte{0});
        jobs.push_back({all[s], erasures});
      }
      return jobs;
    };
    std::vector<std::vector<std::byte*>> all_s(stripes), all_p(stripes);
    const auto jobs_s = make_jobs(damaged_serial, all_s);
    const auto jobs_p = make_jobs(damaged_pooled, all_p);
    for (const DecodeJob& job : jobs_s) {
      ASSERT_TRUE(codec.decode(bs, job.blocks, job.erasures));
    }
    EXPECT_EQ(ParallelDecode(pool, codec, bs, jobs_p), 0u);
    EXPECT_EQ(damaged_serial.storage, serial.storage);
    EXPECT_EQ(damaged_pooled.storage, serial.storage);
  }
}

}  // namespace
}  // namespace ec
