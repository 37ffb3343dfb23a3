#include "ec/isal.h"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "ec/codec_util.h"
#include "gf/gf_simd.h"

namespace ec {
namespace {

struct Blocks {
  std::vector<std::vector<std::byte>> storage;
  std::vector<const std::byte*> data_ptrs;     // first k
  std::vector<std::byte*> parity_ptrs;         // last m
  std::vector<std::byte*> all_ptrs;            // k + m, mutable
};

Blocks MakeBlocks(std::size_t k, std::size_t m, std::size_t bs,
                  std::uint64_t seed) {
  Blocks b;
  std::mt19937_64 rng(seed);
  b.storage.resize(k + m, std::vector<std::byte>(bs));
  for (std::size_t i = 0; i < k; ++i) {
    for (auto& byte : b.storage[i]) byte = static_cast<std::byte>(rng());
  }
  for (std::size_t i = 0; i < k; ++i) b.data_ptrs.push_back(b.storage[i].data());
  for (std::size_t j = 0; j < m; ++j)
    b.parity_ptrs.push_back(b.storage[k + j].data());
  for (auto& s : b.storage) b.all_ptrs.push_back(s.data());
  return b;
}

class IsalRoundTripTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(IsalRoundTripTest, RecoverFromAnyMaximalErasurePattern) {
  const auto [k, m, bs] = GetParam();
  const IsalCodec codec(k, m);
  Blocks b = MakeBlocks(k, m, bs, 7 * k + m);
  codec.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;

  std::mt19937_64 rng(k * 31 + m);
  for (int trial = 0; trial < 12; ++trial) {
    // Random erasure set of size m.
    std::vector<std::size_t> idx(k + m);
    std::iota(idx.begin(), idx.end(), 0);
    std::shuffle(idx.begin(), idx.end(), rng);
    std::vector<std::size_t> erasures(idx.begin(), idx.begin() + m);

    for (const std::size_t e : erasures) {
      std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0xEE});
    }
    ASSERT_TRUE(codec.decode(bs, b.all_ptrs, erasures));
    for (std::size_t i = 0; i < k + m; ++i) {
      ASSERT_EQ(b.storage[i], golden[i]) << "block " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodeShapes, IsalRoundTripTest,
    ::testing::Values(std::make_tuple(2, 1, 256),
                      std::make_tuple(2, 2, 512),
                      std::make_tuple(4, 2, 1024),
                      std::make_tuple(6, 3, 512),
                      std::make_tuple(12, 4, 1024),
                      std::make_tuple(28, 4, 256),
                      std::make_tuple(48, 4, 256),
                      std::make_tuple(10, 4, 4096)));

TEST(IsalCodec, EncodeIsDeterministic) {
  const IsalCodec codec(6, 3);
  Blocks a = MakeBlocks(6, 3, 512, 1);
  Blocks b = MakeBlocks(6, 3, 512, 1);
  codec.encode(512, a.data_ptrs, a.parity_ptrs);
  codec.encode(512, b.data_ptrs, b.parity_ptrs);
  EXPECT_EQ(a.storage, b.storage);
}

TEST(IsalCodec, LinearInData) {
  // parity(x ^ y) == parity(x) ^ parity(y): RS is GF-linear.
  const std::size_t k = 5, m = 3, bs = 256;
  const IsalCodec codec(k, m);
  Blocks x = MakeBlocks(k, m, bs, 10);
  Blocks y = MakeBlocks(k, m, bs, 11);
  Blocks z = MakeBlocks(k, m, bs, 12);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t o = 0; o < bs; ++o)
      z.storage[i][o] = x.storage[i][o] ^ y.storage[i][o];
  codec.encode(bs, x.data_ptrs, x.parity_ptrs);
  codec.encode(bs, y.data_ptrs, y.parity_ptrs);
  codec.encode(bs, z.data_ptrs, z.parity_ptrs);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t o = 0; o < bs; ++o)
      EXPECT_EQ(z.storage[k + j][o],
                x.storage[k + j][o] ^ y.storage[k + j][o]);
}

TEST(IsalCodec, DecodeRejectsTooManyErasures) {
  const IsalCodec codec(4, 2);
  Blocks b = MakeBlocks(4, 2, 256, 3);
  codec.encode(256, b.data_ptrs, b.parity_ptrs);
  const std::vector<std::size_t> too_many{0, 1, 2};
  EXPECT_FALSE(codec.decode(256, b.all_ptrs, too_many));
}

TEST(IsalCodec, DecodeRejectsDuplicateErasures) {
  const IsalCodec codec(4, 2);
  Blocks b = MakeBlocks(4, 2, 256, 3);
  codec.encode(256, b.data_ptrs, b.parity_ptrs);
  const std::vector<std::size_t> dup{1, 1};
  EXPECT_FALSE(codec.decode(256, b.all_ptrs, dup));
}

TEST(IsalCodec, DecodeNoErasuresIsNoOp) {
  const IsalCodec codec(4, 2);
  Blocks b = MakeBlocks(4, 2, 256, 3);
  codec.encode(256, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  EXPECT_TRUE(codec.decode(256, b.all_ptrs, {}));
  EXPECT_EQ(b.storage, golden);
}

TEST(IsalCodec, ParityOnlyErasureReencodes) {
  const IsalCodec codec(4, 2);
  Blocks b = MakeBlocks(4, 2, 256, 3);
  codec.encode(256, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  std::fill(b.storage[5].begin(), b.storage[5].end(), std::byte{0});
  const std::vector<std::size_t> erasures{5};
  ASSERT_TRUE(codec.decode(256, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(IsalCodec, VandermondeMatchesCauchyForRecoverableCase) {
  // Different generators give different parity but both must round-trip.
  const IsalCodec vander(4, 2, SimdWidth::kAvx512,
                         GeneratorKind::kVandermonde);
  Blocks b = MakeBlocks(4, 2, 256, 9);
  vander.encode(256, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  std::fill(b.storage[0].begin(), b.storage[0].end(), std::byte{0});
  std::fill(b.storage[2].begin(), b.storage[2].end(), std::byte{0});
  const std::vector<std::size_t> erasures{0, 2};
  ASSERT_TRUE(vander.decode(256, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(IsalCodec, FusedEncodeMatchesNaiveReference) {
  // The cache-blocked fused driver must be bit-identical to the plain
  // per-coefficient reference loop, including odd block sizes that
  // force a sub-chunk tail with no prefetch array.
  for (const auto& [k, m] : {std::pair<std::size_t, std::size_t>{2, 1},
                             {4, 2},
                             {12, 4},
                             {10, 7},
                             {28, 4}}) {
    const IsalCodec codec(k, m);
    for (const std::size_t bs : {64ul, 192ul, 960ul, 4096ul, 16576ul}) {
      Blocks fused = MakeBlocks(k, m, bs, 100 * k + m);
      Blocks naive = MakeBlocks(k, m, bs, 100 * k + m);
      codec.encode(bs, fused.data_ptrs, fused.parity_ptrs);
      NaiveSystematicEncode(codec.generator(), k, m, bs, naive.data_ptrs,
                            naive.parity_ptrs);
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(fused.storage[k + j], naive.storage[k + j])
            << "k=" << k << " m=" << m << " bs=" << bs << " parity " << j;
      }
    }
  }
}

TEST(IsalCodec, EncodeBitIdenticalAcrossIsaLevels) {
  const std::size_t k = 12, m = 4, bs = 16576;  // odd 64B-multiple size
  const IsalCodec codec(k, m);
  Blocks ref = MakeBlocks(k, m, bs, 55);
  const gf::IsaLevel prev = gf::active_isa();
  gf::set_active_isa(gf::IsaLevel::kScalar);
  codec.encode(bs, ref.data_ptrs, ref.parity_ptrs);
  for (std::size_t l = 0; l < gf::kNumIsaLevels; ++l) {
    const auto level = static_cast<gf::IsaLevel>(l);
    if (!gf::isa_supported(level)) continue;
    gf::set_active_isa(level);
    Blocks b = MakeBlocks(k, m, bs, 55);
    codec.encode(bs, b.data_ptrs, b.parity_ptrs);
    EXPECT_EQ(b.storage, ref.storage) << gf::isa_name(level);
  }
  gf::set_active_isa(prev);
}

TEST(IsalCodec, RoundTripAcrossPrefetchDistancesAndChunkSizes) {
  // Prefetch distance and chunk size tune scheduling only; encode and
  // decode must stay bit-identical and round-trip at every setting. The
  // shapes cover the wide k = 48 stripe around one row ahead (d = k) and
  // a block that is not a 64 B multiple; the odd chunk sizes put the
  // prefetched/plain split in the middle of a chunk.
  struct Shape {
    std::size_t k, m, bs;
    std::vector<std::size_t> distances;
  };
  const Shape shapes[] = {
      {6, 3, 8192, {0, 1, 8, 64, 10000}},
      {48, 4, 16576, {47, 48, 49, 99}},
      {12, 4, 4000, {1, 11, 12, 13, 27}},
  };
  for (const Shape& sh : shapes) {
    const std::size_t k = sh.k, m = sh.m, bs = sh.bs;
    const IsalCodec codec(k, m);
    Blocks golden = MakeBlocks(k, m, bs, 77 + k);
    codec.encode(bs, golden.data_ptrs, golden.parity_ptrs);
    const std::vector<std::size_t> erasures{1, 4, k};

    for (const std::size_t d : sh.distances) {
      for (const std::size_t chunk :
           {64ul, 1000ul, 1024ul, 4032ul, 16384ul, 65536ul}) {
        const HostKernelOptions opts{d, chunk};
        Blocks b = MakeBlocks(k, m, bs, 77 + k);
        codec.encode_with(bs, b.data_ptrs, b.parity_ptrs, opts);
        ASSERT_EQ(b.storage, golden.storage)
            << "k=" << k << " bs=" << bs << " d=" << d << " chunk=" << chunk;

        for (const std::size_t e : erasures) {
          std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0xEE});
        }
        ASSERT_TRUE(codec.decode_with(bs, b.all_ptrs, erasures, opts));
        ASSERT_EQ(b.storage, golden.storage)
            << "k=" << k << " bs=" << bs << " d=" << d << " chunk=" << chunk;
      }
    }
  }
}

// Source blocks of `bs` bytes with a one-line gap between neighbours,
// so a prefetch target that ran past one block's end would land in no
// block at all.
struct SpacedSources {
  std::size_t bs;
  std::vector<std::byte> buf;
  std::vector<const std::byte*> srcs;

  SpacedSources(std::size_t k, std::size_t block)
      : bs(block), buf(k * (block + 64)) {
    for (std::size_t s = 0; s < k; ++s) srcs.push_back(buf.data() + s * (bs + 64));
  }
  /// (source, offset) of an address inside a source block, or nullopt.
  std::optional<std::pair<std::size_t, std::size_t>> locate(
      const std::byte* p) const {
    if (p < buf.data()) return std::nullopt;
    const auto a = static_cast<std::size_t>(p - buf.data());
    const std::size_t s = a / (bs + 64);
    const std::size_t off = a % (bs + 64);
    if (s >= srcs.size() || off >= bs) return std::nullopt;
    return std::pair{s, off};
  }
};

TEST(PrefetchTable, MatchesTheRowPlanOnEveryPrefetchedRow) {
  // The host's section 4.2.2 table and the simulated plan number load
  // tasks the same way (row-major, n = row * k + s), so on every row the
  // host prefetches, its target for load (row, s) must be the kPrefetch
  // op BuildRowPlan emits right before that load. Plain plans only: no
  // shuffle, widening, split distances or tail offset.
  for (const std::size_t k : {1ul, 4ul, 12ul, 48ul}) {
    std::vector<std::size_t> sources(k);
    std::iota(sources.begin(), sources.end(), 0);
    const std::vector<std::size_t> targets{k};
    for (const std::size_t bs : {64ul, 4096ul, 16576ul, 65536ul}) {
      const std::size_t rows = bs / 64;
      const SpacedSources blocks(k, bs);
      for (const std::size_t d :
           {1ul, k - 1, k, k + 1, 2 * k + 3, k * rows - 1, k * rows}) {
        std::vector<const std::byte*> table(k);
        const std::size_t pf_end =
            BuildPrefetchTable(blocks.srcs, bs, d, table.data());
        ASSERT_EQ(pf_end % 64, 0u);
        ASSERT_LE(pf_end, bs);
        const std::size_t host_rows = pf_end / 64;

        IsalPlanOptions opts;
        opts.prefetch_distance = d;
        const EncodePlan plan =
            BuildRowPlan(bs, sources, targets, k, 1, 1.0, opts);
        std::optional<PlanOp> pending;
        std::size_t checked = 0;
        for (const PlanOp& op : plan.ops) {
          if (op.kind == PlanOp::Kind::kPrefetch) pending = op;
          if (op.kind != PlanOp::Kind::kLoad) continue;
          const std::size_t row = op.offset / 64, s = op.block;
          if (row < host_rows) {
            const auto host = blocks.locate(table[s] + 64 * row);
            ASSERT_TRUE(host.has_value());
            ASSERT_TRUE(pending.has_value())
                << "k=" << k << " bs=" << bs << " d=" << d << " row=" << row;
            EXPECT_EQ(host->first, pending->block)
                << "k=" << k << " bs=" << bs << " d=" << d << " row=" << row
                << " s=" << s;
            EXPECT_EQ(host->second, pending->offset)
                << "k=" << k << " bs=" << bs << " d=" << d << " row=" << row
                << " s=" << s;
            ++checked;
          }
          pending.reset();
        }
        EXPECT_EQ(checked, host_rows * k) << "k=" << k << " d=" << d;
        // The host only drops rows at the tail: every row the plan
        // prefetches in full, the host prefetches too.
        const std::size_t ahead = (d + k - 1) / k;
        EXPECT_EQ(host_rows, d == 0 || ahead >= rows ? 0 : rows - ahead)
            << "k=" << k << " bs=" << bs << " d=" << d;
      }
    }
  }
}

TEST(PrefetchTable, EveryTargetLiesInsideTheSourceBlocks) {
  for (const std::size_t k : {1ul, 4ul, 12ul, 48ul}) {
    for (const std::size_t bs : {64ul, 100ul, 4000ul, 4096ul, 16576ul}) {
      const std::size_t rows = (bs + 63) / 64;
      const SpacedSources blocks(k, bs);
      for (const std::size_t d :
           {1ul, k - 1, k, k + 1, 2 * k + 3, k * rows - 1, k * rows}) {
        std::vector<const std::byte*> table(k);
        const std::size_t pf_end =
            BuildPrefetchTable(blocks.srcs, bs, d, table.data());
        for (std::size_t row = 0; row < pf_end / 64; ++row) {
          for (std::size_t s = 0; s < k; ++s) {
            ASSERT_TRUE(blocks.locate(table[s] + 64 * row).has_value())
                << "k=" << k << " bs=" << bs << " d=" << d << " row=" << row
                << " s=" << s;
          }
        }
      }
    }
  }
}

TEST(IsalCodec, NameAndParams) {
  const IsalCodec codec(12, 4, SimdWidth::kAvx256);
  EXPECT_EQ(codec.name(), "ISA-L");
  EXPECT_EQ(codec.params().k, 12u);
  EXPECT_EQ(codec.params().m, 4u);
  EXPECT_EQ(codec.params().total(), 16u);
  EXPECT_EQ(codec.simd(), SimdWidth::kAvx256);
}

}  // namespace
}  // namespace ec
