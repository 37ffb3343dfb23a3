// GFNI region kernels: one VGF2P8AFFINEQB per 32 B vector replaces the
// 5-op PSHUFB nibble sequence — the multiply-by-c bit matrix from
// PreparedCoeff::affine is broadcast to every qword lane. 256-bit VEX
// forms only (compiled with -mgfni -mavx2 in its own TU), so the
// backend also serves client CPUs that ship GFNI without AVX-512; the
// dispatcher gates it on gfni + avx2. Tails reuse the split-table
// scalar kernel, which is bit-identical by construction.
#include "gf/gf_simd.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace gf::detail {

namespace {
inline __m256i broadcast_matrix(std::uint64_t affine) {
  return _mm256_set1_epi64x(static_cast<long long>(affine));
}

inline __m256i gfmul32(const __m256i matrix, const __m256i x) {
  return _mm256_gf2p8affine_epi64_epi8(x, matrix, 0);
}
}  // namespace

void mul_acc_gfni(const PreparedCoeff& c, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const __m256i matrix = broadcast_matrix(c.affine);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    d = _mm256_xor_si256(d, gfmul32(matrix, x));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  if (i < n) mul_acc_scalar(c.split, src + i, dst + i, n - i);
}

void mul_set_gfni(const PreparedCoeff& c, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const __m256i matrix = broadcast_matrix(c.affine);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), gfmul32(matrix, x));
  }
  if (i < n) mul_set_scalar(c.split, src + i, dst + i, n - i);
}

namespace {
// Fused pass, 64 B (two ymm vectors) per cache line: the source vectors
// are loaded once and reused for all N accumulators, each one affine
// instruction + one XOR per vector.
template <std::size_t N>
void mul_acc_multi_gfni_impl(const PreparedCoeff* coeffs, const std::byte* src,
                             std::byte* const* dsts, std::size_t n) {
  __m256i matrix[N];
  for (std::size_t t = 0; t < N; ++t) {
    matrix[t] = broadcast_matrix(coeffs[t].affine);
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
      d0 = _mm256_xor_si256(d0, gfmul32(matrix[t], x0));
      d1 = _mm256_xor_si256(d1, gfmul32(matrix[t], x1));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dsts[t] + i), d0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dsts[t] + i + 32), d1);
    }
  }
  if (i < n) {
    for (std::size_t t = 0; t < N; ++t) {
      mul_acc_gfni(coeffs[t], src + i, dsts[t] + i, n - i);
    }
  }
}
}  // namespace

void mul_acc_multi_gfni(const PreparedCoeff* coeffs, const std::byte* src,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n) {
  switch (ndst) {
    case 1:
      mul_acc_multi_gfni_impl<1>(coeffs, src, dsts, n);
      break;
    case 2:
      mul_acc_multi_gfni_impl<2>(coeffs, src, dsts, n);
      break;
    case 3:
      mul_acc_multi_gfni_impl<3>(coeffs, src, dsts, n);
      break;
    default:
      mul_acc_multi_gfni_impl<4>(coeffs, src, dsts, n);
      break;
  }
}

namespace {
// Dot-product pass, 32 B per tile: N ymm accumulators live across the
// source loop; each (source, destination) contribution is one matrix
// broadcast + one affine instruction + one XOR, and the parity arrays
// see a single store per tile. A tile that opens a 64 B line issues
// that source's table prefetch, so prefetches run in load-task order.
template <std::size_t N>
void mul_dot_multi_gfni_impl(const PreparedCoeff* coeffs,
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
            acc[t], gfmul32(broadcast_matrix(c[t].affine), x));
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

void mul_dot_multi_gfni(const PreparedCoeff* coeffs,
                        std::size_t coeff_stride,
                        const std::byte* const* srcs, std::size_t nsrc,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n, const std::byte* const* prefetch) {
  switch (ndst) {
    case 1:
      mul_dot_multi_gfni_impl<1>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
    case 2:
      mul_dot_multi_gfni_impl<2>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
    case 3:
      mul_dot_multi_gfni_impl<3>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
    default:
      mul_dot_multi_gfni_impl<4>(coeffs, coeff_stride, srcs, nsrc, dsts, n,
                                 prefetch);
      break;
  }
}

}  // namespace gf::detail
#endif  // __x86_64__
