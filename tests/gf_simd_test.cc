#include "gf/gf_simd.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace gf {
namespace {

std::vector<std::byte> RandomBytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng() & 0xff);
  return v;
}

TEST(SplitTable, MatchesFullMultiply) {
  for (unsigned c = 0; c < 256; c += 3) {
    const SplitTable t = make_split_table(static_cast<u8>(c));
    for (unsigned x = 0; x < 256; ++x) {
      const u8 expect = mul(static_cast<u8>(c), static_cast<u8>(x));
      EXPECT_EQ(t.lo[x & 0xf] ^ t.hi[x >> 4], expect)
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(IsaDispatch, BestIsaIsSupported) {
  EXPECT_TRUE(isa_supported(best_isa()));
  EXPECT_TRUE(isa_supported(IsaLevel::kScalar));
}

TEST(IsaDispatch, SetInstallsSupportedAndClampsUnsupported) {
  const IsaLevel prev = active_isa();
  for (std::size_t l = 0; l < kNumIsaLevels; ++l) {
    const auto level = static_cast<IsaLevel>(l);
    const IsaLevel installed = set_active_isa(level);
    if (isa_supported(level)) {
      EXPECT_EQ(installed, level) << isa_name(level);
    } else {
      EXPECT_EQ(installed, best_isa()) << isa_name(level);
    }
    EXPECT_EQ(active_isa(), installed);
  }
  set_active_isa(prev);
}

TEST(IsaDispatch, ParseRoundTripsEveryName) {
  for (std::size_t l = 0; l < kNumIsaLevels; ++l) {
    const auto level = static_cast<IsaLevel>(l);
    const auto parsed = parse_isa(isa_name(level));
    ASSERT_TRUE(parsed.has_value()) << isa_name(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_isa("avx1024").has_value());
  EXPECT_FALSE(parse_isa("").has_value());
}

TEST(AffineMatrix, MatchesFieldMultiplyForAllBytes) {
  // Scalar model of GF2P8AFFINEQB (Intel SDM): result bit i of each
  // byte is parity(matrix.byte[7 - i] & src byte).
  for (unsigned c = 0; c < 256; ++c) {
    const std::uint64_t mat = make_affine_matrix(static_cast<u8>(c));
    for (unsigned x = 0; x < 256; ++x) {
      u8 got = 0;
      for (unsigned i = 0; i < 8; ++i) {
        const u8 row = static_cast<u8>(mat >> (8 * (7 - i)));
        if (__builtin_parity(row & x)) got |= static_cast<u8>(1u << i);
      }
      EXPECT_EQ(got, mul(static_cast<u8>(c), static_cast<u8>(x)))
          << "c=" << c << " x=" << x;
    }
  }
}

/// Parameterized over (ISA level, region size): every ISA path must
/// agree with the scalar reference on every size, including non-SIMD
/// tails and sub-vector regions.
class RegionKernelTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  void SetUp() override {
    prev_ = active_isa();
    const auto level = static_cast<IsaLevel>(std::get<0>(GetParam()));
    // Levels are preference-ordered, not a strict subset chain, so the
    // skip test is isa_supported, not an enum comparison.
    if (!isa_supported(level)) {
      GTEST_SKIP() << "host/build lacks " << isa_name(level);
    }
    set_active_isa(level);
  }
  void TearDown() override { set_active_isa(prev_); }

  std::size_t size() const { return std::get<1>(GetParam()); }

 private:
  IsaLevel prev_;
};

TEST_P(RegionKernelTest, MulSetMatchesScalarReference) {
  const std::size_t n = size();
  const auto src = RandomBytes(n, 1234 + n);
  std::vector<std::byte> got(n), want(n);
  for (const u8 c : {u8{0}, u8{1}, u8{2}, u8{0x53}, u8{0xff}}) {
    mul_set(c, src.data(), got.data(), n);
    const SplitTable t = make_split_table(c);
    detail::mul_set_scalar(t, src.data(), want.data(), n);
    EXPECT_EQ(got, want) << "c=" << unsigned{c} << " n=" << n;
  }
}

TEST_P(RegionKernelTest, MulAccMatchesScalarReference) {
  const std::size_t n = size();
  const auto src = RandomBytes(n, 99 + n);
  const auto init = RandomBytes(n, 7 + n);
  for (const u8 c : {u8{3}, u8{0x80}, u8{0xCA}}) {
    std::vector<std::byte> got = init, want = init;
    mul_acc(c, src.data(), got.data(), n);
    const SplitTable t = make_split_table(c);
    detail::mul_acc_scalar(t, src.data(), want.data(), n);
    EXPECT_EQ(got, want) << "c=" << unsigned{c} << " n=" << n;
  }
}

TEST_P(RegionKernelTest, XorAccMatchesScalarReference) {
  const std::size_t n = size();
  const auto src = RandomBytes(n, 5 + n);
  const auto init = RandomBytes(n, 11 + n);
  std::vector<std::byte> got = init, want = init;
  xor_acc(src.data(), got.data(), n);
  detail::xor_acc_scalar(src.data(), want.data(), n);
  EXPECT_EQ(got, want);
}

TEST_P(RegionKernelTest, MulAccByOneIsXor) {
  const std::size_t n = size();
  const auto src = RandomBytes(n, 21 + n);
  const auto init = RandomBytes(n, 22 + n);
  std::vector<std::byte> got = init, want = init;
  mul_acc(1, src.data(), got.data(), n);
  xor_acc(src.data(), want.data(), n);
  EXPECT_EQ(got, want);
}

TEST_P(RegionKernelTest, MulSetByZeroClears) {
  const std::size_t n = size();
  const auto src = RandomBytes(n, 31 + n);
  std::vector<std::byte> got(n, std::byte{0xAA});
  mul_set(0, src.data(), got.data(), n);
  for (const std::byte b : got) EXPECT_EQ(b, std::byte{0});
}

INSTANTIATE_TEST_SUITE_P(
    AllIsaAndSizes, RegionKernelTest,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(IsaLevel::kScalar),
                          static_cast<int>(IsaLevel::kSsse3),
                          static_cast<int>(IsaLevel::kAvx2),
                          static_cast<int>(IsaLevel::kAvx512),
                          static_cast<int>(IsaLevel::kGfni)),
        ::testing::Values<std::size_t>(1, 15, 16, 17, 31, 32, 33, 63, 64,
                                       100, 1024, 4096, 5000)));

/// Exhaustive cross-backend differential: one param = one ISA level,
/// checked bit-for-bit against the scalar reference.
class IsaDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    prev_ = active_isa();
    level_ = static_cast<IsaLevel>(GetParam());
    if (!isa_supported(level_)) {
      GTEST_SKIP() << "host/build lacks " << isa_name(level_);
    }
    set_active_isa(level_);
  }
  void TearDown() override { set_active_isa(prev_); }

  IsaLevel level_ = IsaLevel::kScalar;

 private:
  IsaLevel prev_ = IsaLevel::kScalar;
};

TEST_P(IsaDifferentialTest, AllCoefficientsAllOddSizes) {
  // Every coefficient at a few vector-edge sizes, and every odd size
  // 1..257 (every possible SIMD tail length) at a coefficient subset.
  const std::size_t kMax = 257;
  const auto src = RandomBytes(kMax, 41);
  const auto init = RandomBytes(kMax, 42);
  std::vector<std::byte> got(kMax), want(kMax);

  auto check = [&](u8 c, std::size_t n) {
    const SplitTable t = make_split_table(c);
    std::copy_n(init.begin(), n, got.begin());
    std::copy_n(init.begin(), n, want.begin());
    mul_acc(c, src.data(), got.data(), n);
    detail::mul_acc_scalar(t, src.data(), want.data(), n);
    ASSERT_TRUE(std::equal(got.begin(), got.begin() + n, want.begin()))
        << isa_name(level_) << " mul_acc c=" << unsigned{c} << " n=" << n;
    mul_set(c, src.data(), got.data(), n);
    detail::mul_set_scalar(t, src.data(), want.data(), n);
    ASSERT_TRUE(std::equal(got.begin(), got.begin() + n, want.begin()))
        << isa_name(level_) << " mul_set c=" << unsigned{c} << " n=" << n;
  };

  for (unsigned c = 0; c < 256; ++c) {
    for (const std::size_t n : {1ul, 31ul, 32ul, 64ul, 65ul, 255ul, 257ul}) {
      check(static_cast<u8>(c), n);
    }
  }
  for (std::size_t n = 1; n <= kMax; n += 2) {
    for (const u8 c : {u8{0}, u8{1}, u8{2}, u8{0x53}, u8{0x8e}, u8{0xff}}) {
      check(c, n);
    }
  }
}

TEST_P(IsaDifferentialTest, UnalignedSrcAndDstOffsets) {
  const std::size_t kMax = 257;
  const auto srcbuf = RandomBytes(kMax + 8, 51);
  const auto initbuf = RandomBytes(kMax + 8, 52);
  for (const std::size_t soff : {0ul, 1ul, 2ul, 3ul}) {
    for (const std::size_t doff : {0ul, 1ul, 2ul, 3ul}) {
      for (const std::size_t n : {1ul, 63ul, 64ul, 65ul, 129ul, 257ul}) {
        for (const u8 c : {u8{2}, u8{0xCA}}) {
          std::vector<std::byte> got = initbuf, want = initbuf;
          mul_acc(c, srcbuf.data() + soff, got.data() + doff, n);
          detail::mul_acc_scalar(make_split_table(c), srcbuf.data() + soff,
                                 want.data() + doff, n);
          ASSERT_EQ(got, want) << isa_name(level_) << " soff=" << soff
                               << " doff=" << doff << " n=" << n;
        }
      }
    }
  }
}

TEST_P(IsaDifferentialTest, FusedMultiMatchesSequentialSingle) {
  const u8 cs[4] = {u8{2}, u8{143}, u8{255}, u8{7}};
  PreparedCoeff coeffs[4];
  for (int t = 0; t < 4; ++t) coeffs[t] = prepare_coeff(cs[t]);

  for (const std::size_t n :
       {1ul, 5ul, 63ul, 64ul, 65ul, 127ul, 128ul, 257ul, 1000ul, 4096ul}) {
    const auto src = RandomBytes(n, 61 + n);
    for (std::size_t ndst = 1; ndst <= kMaxFusedDst; ++ndst) {
      std::vector<std::vector<std::byte>> got, want;
      std::vector<std::byte*> dsts;
      for (std::size_t t = 0; t < ndst; ++t) {
        got.push_back(RandomBytes(n, 71 + t));
        want.push_back(got.back());
        dsts.push_back(got[t].data());
      }
      mul_acc_multi(coeffs, src.data(), dsts.data(), ndst, n);
      for (std::size_t t = 0; t < ndst; ++t) {
        detail::mul_acc_scalar(coeffs[t].split, src.data(), want[t].data(),
                               n);
        ASSERT_EQ(got[t], want[t])
            << isa_name(level_) << " ndst=" << ndst << " t=" << t
            << " n=" << n;
      }
    }
  }
}

TEST_P(IsaDifferentialTest, DotMultiMatchesScalarReference) {
  // dst[t] = XOR_s c[s][t] * src[s], SET semantics, against a reference
  // assembled from the single-destination scalar kernels.
  for (const std::size_t nsrc : {1ul, 2ul, 3ul, 5ul, 12ul}) {
    for (const std::size_t n : {1ul, 31ul, 63ul, 64ul, 65ul, 257ul, 1000ul}) {
      std::vector<std::vector<std::byte>> src_bufs;
      std::vector<const std::byte*> srcs;
      for (std::size_t s = 0; s < nsrc; ++s) {
        src_bufs.push_back(RandomBytes(n, 200 + 10 * nsrc + s));
        srcs.push_back(src_bufs.back().data());
      }
      const std::size_t stride = kMaxFusedDst;
      std::vector<PreparedCoeff> coeffs(nsrc * stride);
      for (std::size_t s = 0; s < nsrc; ++s) {
        for (std::size_t t = 0; t < stride; ++t) {
          coeffs[s * stride + t] =
              prepare_coeff(static_cast<u8>(1 + 37 * s + 11 * t));
        }
      }
      for (std::size_t ndst = 1; ndst <= kMaxFusedDst; ++ndst) {
        std::vector<std::vector<std::byte>> got(
            ndst, RandomBytes(n, 300));  // non-zero initial contents:
                                         // SET must fully overwrite
        std::vector<std::vector<std::byte>> want(ndst,
                                                 std::vector<std::byte>(n));
        std::vector<std::byte*> gp;
        for (std::size_t t = 0; t < ndst; ++t) gp.push_back(got[t].data());
        mul_dot_multi(coeffs.data(), stride, srcs.data(), nsrc, gp.data(),
                      ndst, n);
        for (std::size_t t = 0; t < ndst; ++t) {
          detail::mul_set_scalar(coeffs[t].split, srcs[0], want[t].data(),
                                 n);
          for (std::size_t s = 1; s < nsrc; ++s) {
            detail::mul_acc_scalar(coeffs[s * stride + t].split, srcs[s],
                                   want[t].data(), n);
          }
          ASSERT_EQ(got[t], want[t])
              << isa_name(level_) << " nsrc=" << nsrc << " ndst=" << ndst
              << " t=" << t << " n=" << n;
        }
      }
    }
  }
}

TEST_P(IsaDifferentialTest, DotMultiWithPrefetchArrayIsIdentical) {
  // k-entry prefetch table (line l of source s prefetches table[s] +
  // 64 * l) built in row order at distances around one row ahead:
  // scheduling only, output bit-identical to the no-prefetch call. Each
  // source buffer carries three spare lines so every target of every
  // started line stays inside it, including the partial last line.
  const std::size_t nsrc = 6, ndst = 4, spare = 3 * 64;
  std::vector<PreparedCoeff> coeffs(nsrc * ndst);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = prepare_coeff(static_cast<u8>(3 + 29 * i));
  }
  for (const std::size_t n : {64ul, 1000ul, 4096ul}) {
    std::vector<std::vector<std::byte>> src_bufs;
    std::vector<const std::byte*> srcs;
    for (std::size_t s = 0; s < nsrc; ++s) {
      src_bufs.push_back(RandomBytes(n + spare, 400 + s));
      srcs.push_back(src_bufs.back().data());
    }
    std::vector<std::vector<std::byte>> ref(ndst, std::vector<std::byte>(n));
    std::vector<std::byte*> rp;
    for (auto& v : ref) rp.push_back(v.data());
    mul_dot_multi(coeffs.data(), ndst, srcs.data(), nsrc, rp.data(), ndst, n);

    for (const std::size_t d :
         {1ul, nsrc - 1, nsrc, nsrc + 1, 2 * nsrc + 3}) {
      const std::size_t q = d / nsrc, r = d % nsrc;
      std::vector<const std::byte*> pf(nsrc);
      for (std::size_t s = 0; s < nsrc; ++s) {
        pf[s] = s + r < nsrc ? srcs[s + r] + 64 * q
                             : srcs[s + r - nsrc] + 64 * (q + 1);
      }
      std::vector<std::vector<std::byte>> got(ndst,
                                              RandomBytes(n, 500 + d));
      std::vector<std::byte*> gp;
      for (auto& v : got) gp.push_back(v.data());
      mul_dot_multi(coeffs.data(), ndst, srcs.data(), nsrc, gp.data(), ndst,
                    n, pf.data());
      for (std::size_t t = 0; t < ndst; ++t) {
        ASSERT_EQ(got[t], ref[t])
            << isa_name(level_) << " n=" << n << " d=" << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIsaLevels, IsaDifferentialTest,
    ::testing::Values(static_cast<int>(IsaLevel::kScalar),
                      static_cast<int>(IsaLevel::kSsse3),
                      static_cast<int>(IsaLevel::kAvx2),
                      static_cast<int>(IsaLevel::kAvx512),
                      static_cast<int>(IsaLevel::kGfni)));

TEST(RegionKernels, AccumulationIsLinear) {
  // c1*x + c2*x == (c1+c2)*x region-wise.
  const std::size_t n = 512;
  const auto src = RandomBytes(n, 77);
  std::vector<std::byte> lhs(n, std::byte{0}), rhs(n, std::byte{0});
  mul_acc(0x1b, src.data(), lhs.data(), n);
  mul_acc(0x2d, src.data(), lhs.data(), n);
  mul_set(add(0x1b, 0x2d), src.data(), rhs.data(), n);
  EXPECT_EQ(lhs, rhs);
}

}  // namespace
}  // namespace gf
