// AVX2 region kernels: VPSHUFB nibble-table GF multiply, 32 bytes per
// step. Compiled with -mavx2 in its own TU; only reached when the
// runtime dispatcher confirmed host support.
#include "gf/gf_simd.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace gf::detail {

namespace {
inline __m256i mul32(const __m256i tlo, const __m256i thi, const __m256i x) {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                          _mm256_shuffle_epi8(thi, hi));
}

inline __m256i broadcast_table(const std::array<gf::u8, 16>& t) {
  const __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(t.data()));
  return _mm256_broadcastsi128_si256(v);
}
}  // namespace

void mul_acc_avx2(const SplitTable& t, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const __m256i tlo = broadcast_table(t.lo);
  const __m256i thi = broadcast_table(t.hi);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    d = _mm256_xor_si256(d, mul32(tlo, thi, x));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  if (i < n) mul_acc_scalar(t, src + i, dst + i, n - i);
}

void mul_set_avx2(const SplitTable& t, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const __m256i tlo = broadcast_table(t.lo);
  const __m256i thi = broadcast_table(t.hi);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul32(tlo, thi, x));
  }
  if (i < n) mul_set_scalar(t, src + i, dst + i, n - i);
}

namespace {
// Fused pass, 64 B (one cache line, two ymm vectors) per iteration: the
// source vectors are loaded once and reused for all N accumulators.
template <std::size_t N>
void mul_acc_multi_avx2_impl(const PreparedCoeff* coeffs, const std::byte* src,
                             std::byte* const* dsts, std::size_t n) {
  __m256i tlo[N];
  __m256i thi[N];
  for (std::size_t t = 0; t < N; ++t) {
    tlo[t] = broadcast_table(coeffs[t].split.lo);
    thi[t] = broadcast_table(coeffs[t].split.hi);
  }
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i x0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i x1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    for (std::size_t t = 0; t < N; ++t) {
      __m256i d0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dsts[t] + i));
      __m256i d1 =
          _mm256_loadu_si256(reinterpret_cast<__m256i*>(dsts[t] + i + 32));
      d0 = _mm256_xor_si256(d0, mul32(tlo[t], thi[t], x0));
      d1 = _mm256_xor_si256(d1, mul32(tlo[t], thi[t], x1));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dsts[t] + i), d0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dsts[t] + i + 32), d1);
    }
  }
  if (i < n) {
    for (std::size_t t = 0; t < N; ++t) {
      mul_acc_avx2(coeffs[t].split, src + i, dsts[t] + i, n - i);
    }
  }
}
}  // namespace

void mul_acc_multi_avx2(const PreparedCoeff* coeffs, const std::byte* src,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n) {
  switch (ndst) {
    case 1:
      mul_acc_multi_avx2_impl<1>(coeffs, src, dsts, n);
      break;
    case 2:
      mul_acc_multi_avx2_impl<2>(coeffs, src, dsts, n);
      break;
    case 3:
      mul_acc_multi_avx2_impl<3>(coeffs, src, dsts, n);
      break;
    default:
      mul_acc_multi_avx2_impl<4>(coeffs, src, dsts, n);
      break;
  }
}

namespace {
// Dot-product pass, 32 B (one ymm) per tile: the N accumulators stay in
// ymm registers across the whole source loop, so the parity arrays see
// ONE store per tile instead of a load+store per source. Per-source
// table broadcasts are hot 16 B L1 loads; the nibble split of each
// source vector is shared by all N destinations.
template <std::size_t N>
void mul_dot_multi_avx2_impl(const PreparedCoeff* coeffs,
                             std::size_t coeff_stride,
                             const std::byte* const* srcs, std::size_t nsrc,
                             std::byte* const* dsts, std::size_t n,
                             const std::byte* const* prefetch) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i acc[N];
    for (std::size_t t = 0; t < N; ++t) acc[t] = _mm256_setzero_si256();
    const bool line_start = (i % 64) == 0;
    for (std::size_t s = 0; s < nsrc; ++s) {
      if (prefetch != nullptr && line_start) {
        _mm_prefetch(reinterpret_cast<const char*>(prefetch[s] + i),
                     _MM_HINT_T0);
      }
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[s] + i));
      const PreparedCoeff* c = coeffs + s * coeff_stride;
      for (std::size_t t = 0; t < N; ++t) {
        acc[t] = _mm256_xor_si256(
            acc[t], mul32(broadcast_table(c[t].split.lo),
                          broadcast_table(c[t].split.hi), x));
      }
    }
    for (std::size_t t = 0; t < N; ++t) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dsts[t] + i), acc[t]);
    }
  }
  if (i < n) {
    for (std::size_t t = 0; t < N; ++t) {
      mul_set_scalar(coeffs[t].split, srcs[0] + i, dsts[t] + i, n - i);
      for (std::size_t s = 1; s < nsrc; ++s) {
        mul_acc_scalar(coeffs[s * coeff_stride + t].split, srcs[s] + i,
                       dsts[t] + i, n - i);
      }
    }
  }
}
}  // namespace

void mul_dot_multi_avx2(const PreparedCoeff* coeffs,
                        std::size_t coeff_stride,
                        const std::byte* const* srcs, std::size_t nsrc,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n, const std::byte* const* prefetch) {
  switch (ndst) {
    case 1:
      mul_dot_multi_avx2_impl<1>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
    case 2:
      mul_dot_multi_avx2_impl<2>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
    case 3:
      mul_dot_multi_avx2_impl<3>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
    default:
      mul_dot_multi_avx2_impl<4>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
  }
}

void xor_acc_avx2(const std::byte* src, std::byte* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, x));
  }
  if (i < n) xor_acc_scalar(src + i, dst + i, n - i);
}

}  // namespace gf::detail
#endif  // __x86_64__
