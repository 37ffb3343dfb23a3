// AVX-512BW region kernels: VPSHUFB nibble-table GF multiply on 64 B
// zmm vectors, with masked loads/stores covering the tail so no scalar
// epilogue is needed. Compiled with -mavx512f -mavx512bw in its own TU;
// only reached when the runtime dispatcher confirmed host support
// (avx512bw implies avx512f on every shipping CPU and in GCC/Clang's
// -m flag model).
#include "gf/gf_simd.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace gf::detail {

namespace {
inline __m512i broadcast_table(const std::array<gf::u8, 16>& t) {
  const __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(t.data()));
  return _mm512_broadcast_i32x4(v);
}

inline __m512i mul64(const __m512i tlo, const __m512i thi, const __m512i x) {
  const __m512i mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(x, mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi64(x, 4), mask);
  return _mm512_xor_si512(_mm512_shuffle_epi8(tlo, lo),
                          _mm512_shuffle_epi8(thi, hi));
}

/// Mask selecting the final n % 64 lanes' bytes (n % 64 may be 0 only
/// when callers skip the tail entirely, so rem is in [1, 63] here).
inline __mmask64 tail_mask(std::size_t rem) {
  return (~__mmask64{0}) >> (64 - rem);
}
}  // namespace

void mul_acc_avx512(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n) {
  const __m512i tlo = broadcast_table(t.lo);
  const __m512i thi = broadcast_table(t.hi);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i x = _mm512_loadu_si512(src + i);
    __m512i d = _mm512_loadu_si512(dst + i);
    d = _mm512_xor_si512(d, mul64(tlo, thi, x));
    _mm512_storeu_si512(dst + i, d);
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i x = _mm512_maskz_loadu_epi8(k, src + i);
    __m512i d = _mm512_maskz_loadu_epi8(k, dst + i);
    d = _mm512_xor_si512(d, mul64(tlo, thi, x));
    _mm512_mask_storeu_epi8(dst + i, k, d);
  }
}

void mul_set_avx512(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n) {
  const __m512i tlo = broadcast_table(t.lo);
  const __m512i thi = broadcast_table(t.hi);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i x = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, mul64(tlo, thi, x));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i x = _mm512_maskz_loadu_epi8(k, src + i);
    _mm512_mask_storeu_epi8(dst + i, k, mul64(tlo, thi, x));
  }
}

void xor_acc_avx512(const std::byte* src, std::byte* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i x = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, x));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i x = _mm512_maskz_loadu_epi8(k, src + i);
    const __m512i d = _mm512_maskz_loadu_epi8(k, dst + i);
    _mm512_mask_storeu_epi8(dst + i, k, _mm512_xor_si512(d, x));
  }
}

namespace {
// Fused pass, one 64 B zmm vector per cache line: the source vector is
// loaded once and reused for all N accumulators.
template <std::size_t N>
void mul_acc_multi_avx512_impl(const PreparedCoeff* coeffs,
                               const std::byte* src, std::byte* const* dsts,
                               std::size_t n) {
  __m512i tlo[N];
  __m512i thi[N];
  for (std::size_t t = 0; t < N; ++t) {
    tlo[t] = broadcast_table(coeffs[t].split.lo);
    thi[t] = broadcast_table(coeffs[t].split.hi);
  }
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i x = _mm512_loadu_si512(src + i);
    for (std::size_t t = 0; t < N; ++t) {
      __m512i d = _mm512_loadu_si512(dsts[t] + i);
      d = _mm512_xor_si512(d, mul64(tlo[t], thi[t], x));
      _mm512_storeu_si512(dsts[t] + i, d);
    }
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i x = _mm512_maskz_loadu_epi8(k, src + i);
    for (std::size_t t = 0; t < N; ++t) {
      __m512i d = _mm512_maskz_loadu_epi8(k, dsts[t] + i);
      d = _mm512_xor_si512(d, mul64(tlo[t], thi[t], x));
      _mm512_mask_storeu_epi8(dsts[t] + i, k, d);
    }
  }
}
}  // namespace

void mul_acc_multi_avx512(const PreparedCoeff* coeffs, const std::byte* src,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n) {
  switch (ndst) {
    case 1:
      mul_acc_multi_avx512_impl<1>(coeffs, src, dsts, n);
      break;
    case 2:
      mul_acc_multi_avx512_impl<2>(coeffs, src, dsts, n);
      break;
    case 3:
      mul_acc_multi_avx512_impl<3>(coeffs, src, dsts, n);
      break;
    default:
      mul_acc_multi_avx512_impl<4>(coeffs, src, dsts, n);
      break;
  }
}

namespace {
// Dot-product pass, one 64 B zmm tile: all N accumulators live in zmm
// registers across the source loop, one (masked) store per destination
// tile; the masked tail needs no scalar epilogue.
template <std::size_t N>
void mul_dot_multi_avx512_impl(const PreparedCoeff* coeffs,
                               std::size_t coeff_stride,
                               const std::byte* const* srcs,
                               std::size_t nsrc, std::byte* const* dsts,
                               std::size_t n,
                               const std::byte* const* prefetch) {
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t rem = n - i;
    const __mmask64 k = rem >= 64 ? ~__mmask64{0} : tail_mask(rem);
    __m512i acc[N];
    for (std::size_t t = 0; t < N; ++t) acc[t] = _mm512_setzero_si512();
    for (std::size_t s = 0; s < nsrc; ++s) {
      if (prefetch != nullptr) {
        _mm_prefetch(reinterpret_cast<const char*>(prefetch[s] + i),
                     _MM_HINT_T0);
      }
      const __m512i x = _mm512_maskz_loadu_epi8(k, srcs[s] + i);
      const PreparedCoeff* c = coeffs + s * coeff_stride;
      for (std::size_t t = 0; t < N; ++t) {
        acc[t] = _mm512_xor_si512(
            acc[t], mul64(broadcast_table(c[t].split.lo),
                          broadcast_table(c[t].split.hi), x));
      }
    }
    for (std::size_t t = 0; t < N; ++t) {
      _mm512_mask_storeu_epi8(dsts[t] + i, k, acc[t]);
    }
  }
}
}  // namespace

void mul_dot_multi_avx512(const PreparedCoeff* coeffs,
                          std::size_t coeff_stride,
                          const std::byte* const* srcs, std::size_t nsrc,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n, const std::byte* const* prefetch) {
  switch (ndst) {
    case 1:
      mul_dot_multi_avx512_impl<1>(coeffs, coeff_stride, srcs, nsrc, dsts,
                                   n, prefetch);
      break;
    case 2:
      mul_dot_multi_avx512_impl<2>(coeffs, coeff_stride, srcs, nsrc, dsts,
                                   n, prefetch);
      break;
    case 3:
      mul_dot_multi_avx512_impl<3>(coeffs, coeff_stride, srcs, nsrc, dsts,
                                   n, prefetch);
      break;
    default:
      mul_dot_multi_avx512_impl<4>(coeffs, coeff_stride, srcs, nsrc, dsts,
                                   n, prefetch);
      break;
  }
}

}  // namespace gf::detail
#endif  // __x86_64__
