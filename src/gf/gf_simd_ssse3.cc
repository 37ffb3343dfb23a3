// SSSE3 region kernels: PSHUFB-based nibble-table GF multiply, 16 bytes
// per step. Compiled with -mssse3 in its own TU; only reached when the
// runtime dispatcher confirmed host support.
#include "gf/gf_simd.h"

#if defined(__x86_64__)
#include <tmmintrin.h>

namespace gf::detail {

namespace {
inline __m128i mul16(const __m128i tlo, const __m128i thi, const __m128i x) {
  const __m128i mask = _mm_set1_epi8(0x0f);
  const __m128i lo = _mm_and_si128(x, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi64(x, 4), mask);
  return _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
}
}  // namespace

void mul_acc_ssse3(const SplitTable& t, const std::byte* src, std::byte* dst,
                   std::size_t n) {
  const __m128i tlo =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo.data()));
  const __m128i thi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi.data()));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    d = _mm_xor_si128(d, mul16(tlo, thi, x));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  if (i < n) mul_acc_scalar(t, src + i, dst + i, n - i);
}

void mul_set_ssse3(const SplitTable& t, const std::byte* src, std::byte* dst,
                   std::size_t n) {
  const __m128i tlo =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo.data()));
  const __m128i thi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi.data()));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), mul16(tlo, thi, x));
  }
  if (i < n) mul_set_scalar(t, src + i, dst + i, n - i);
}

namespace {
// Fused pass: the source vector (and its nibble split, folded inside
// mul16) is loaded once per 16 B and reused for all N accumulators.
// N is a template parameter so the 2N table registers stay live and
// the inner loop has a compile-time trip count.
template <std::size_t N>
void mul_acc_multi_ssse3_impl(const PreparedCoeff* coeffs,
                              const std::byte* src, std::byte* const* dsts,
                              std::size_t n) {
  __m128i tlo[N];
  __m128i thi[N];
  for (std::size_t t = 0; t < N; ++t) {
    tlo[t] = _mm_load_si128(
        reinterpret_cast<const __m128i*>(coeffs[t].split.lo.data()));
    thi[t] = _mm_load_si128(
        reinterpret_cast<const __m128i*>(coeffs[t].split.hi.data()));
  }
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (std::size_t v = 0; v < 64; v += 16) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + v));
      for (std::size_t t = 0; t < N; ++t) {
        __m128i d =
            _mm_loadu_si128(reinterpret_cast<__m128i*>(dsts[t] + i + v));
        d = _mm_xor_si128(d, mul16(tlo[t], thi[t], x));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dsts[t] + i + v), d);
      }
    }
  }
  if (i < n) {
    for (std::size_t t = 0; t < N; ++t) {
      mul_acc_ssse3(coeffs[t].split, src + i, dsts[t] + i, n - i);
    }
  }
}
}  // namespace

void mul_acc_multi_ssse3(const PreparedCoeff* coeffs, const std::byte* src,
                         std::byte* const* dsts, std::size_t ndst,
                         std::size_t n) {
  switch (ndst) {
    case 1:
      mul_acc_multi_ssse3_impl<1>(coeffs, src, dsts, n);
      break;
    case 2:
      mul_acc_multi_ssse3_impl<2>(coeffs, src, dsts, n);
      break;
    case 3:
      mul_acc_multi_ssse3_impl<3>(coeffs, src, dsts, n);
      break;
    default:
      mul_acc_multi_ssse3_impl<4>(coeffs, src, dsts, n);
      break;
  }
}

namespace {
// Dot-product pass: for each 16 B tile, all N accumulators live in xmm
// registers across the whole source loop; the per-source nibble tables
// are (hot, 16 B, L1-resident) loads inside the loop. One store per
// destination tile replaces the load+store-per-source of the mad form.
template <std::size_t N>
void mul_dot_multi_ssse3_impl(const PreparedCoeff* coeffs,
                              std::size_t coeff_stride,
                              const std::byte* const* srcs,
                              std::size_t nsrc, std::byte* const* dsts,
                              std::size_t n,
                              const std::byte* const* prefetch) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i acc[N];
    for (std::size_t t = 0; t < N; ++t) acc[t] = _mm_setzero_si128();
    const bool line_start = (i % 64) == 0;
    for (std::size_t s = 0; s < nsrc; ++s) {
      if (prefetch != nullptr && line_start) {
        _mm_prefetch(reinterpret_cast<const char*>(prefetch[s] + i),
                     _MM_HINT_T0);
      }
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[s] + i));
      const PreparedCoeff* c = coeffs + s * coeff_stride;
      for (std::size_t t = 0; t < N; ++t) {
        const __m128i tlo = _mm_load_si128(
            reinterpret_cast<const __m128i*>(c[t].split.lo.data()));
        const __m128i thi = _mm_load_si128(
            reinterpret_cast<const __m128i*>(c[t].split.hi.data()));
        acc[t] = _mm_xor_si128(acc[t], mul16(tlo, thi, x));
      }
    }
    for (std::size_t t = 0; t < N; ++t) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dsts[t] + i), acc[t]);
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

void mul_dot_multi_ssse3(const PreparedCoeff* coeffs,
                         std::size_t coeff_stride,
                         const std::byte* const* srcs, std::size_t nsrc,
                         std::byte* const* dsts, std::size_t ndst,
                         std::size_t n, const std::byte* const* prefetch) {
  switch (ndst) {
    case 1:
      mul_dot_multi_ssse3_impl<1>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                  prefetch);
      break;
    case 2:
      mul_dot_multi_ssse3_impl<2>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                  prefetch);
      break;
    case 3:
      mul_dot_multi_ssse3_impl<3>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                  prefetch);
      break;
    default:
      mul_dot_multi_ssse3_impl<4>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                  prefetch);
      break;
  }
}

void xor_acc_ssse3(const std::byte* src, std::byte* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, x));
  }
  if (i < n) xor_acc_scalar(src + i, dst + i, n - i);
}

}  // namespace gf::detail
#endif  // __x86_64__
