#include "gf/gf_simd.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gf/gf_simd_dispatch.h"

namespace gf {

SplitTable make_split_table(u8 c) {
  SplitTable t;
  for (unsigned x = 0; x < 16; ++x) {
    t.lo[x] = mul(c, static_cast<u8>(x));
    t.hi[x] = mul(c, static_cast<u8>(x << 4));
  }
  return t;
}

std::uint64_t make_affine_matrix(u8 c) {
  // GF2P8AFFINEQB semantics (Intel SDM): result bit i of each byte is
  // parity(matrix.byte[7 - i] & src byte). Output bit i therefore needs
  // the row whose bit j is set iff bit i of c * x^j is set — column j
  // of the multiply-by-c matrix is the image of basis element x^j.
  std::uint64_t m = 0;
  for (unsigned out = 0; out < 8; ++out) {
    u8 row = 0;
    for (unsigned in = 0; in < 8; ++in) {
      if (mul(c, static_cast<u8>(1u << in)) & (1u << out)) {
        row |= static_cast<u8>(1u << in);
      }
    }
    m |= static_cast<std::uint64_t>(row) << (8 * (7 - out));
  }
  return m;
}

PreparedCoeff prepare_coeff(u8 c) {
  return PreparedCoeff{make_split_table(c), make_affine_matrix(c)};
}

namespace {

IsaLevel detect_best() {
#if defined(__x86_64__)
#if DIALGA_HAVE_GFNI
  if (__builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx2")) {
    return IsaLevel::kGfni;
  }
#endif
#if DIALGA_HAVE_AVX512
  if (__builtin_cpu_supports("avx512bw")) return IsaLevel::kAvx512;
#endif
#if DIALGA_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
#endif
#if DIALGA_HAVE_SSSE3
  if (__builtin_cpu_supports("ssse3")) return IsaLevel::kSsse3;
#endif
#endif
  return IsaLevel::kScalar;
}

/// Initial active level: best_isa() unless DIALGA_ISA pins one.
/// Unsupported or unparseable requests clamp to best_isa() with a
/// stderr note, so a CI matrix leg that asks for avx512 on an avx2-only
/// runner is visible in the log instead of silently testing the wrong
/// backend.
IsaLevel initial_isa() {
  const char* env = std::getenv("DIALGA_ISA");
  if (env == nullptr || *env == '\0') return best_isa();
  const auto parsed = parse_isa(env);
  if (!parsed) {
    std::fprintf(stderr,
                 "gf: DIALGA_ISA='%s' not recognized; using %s\n", env,
                 isa_name(best_isa()));
    return best_isa();
  }
  if (!isa_supported(*parsed)) {
    std::fprintf(stderr,
                 "gf: DIALGA_ISA=%s unsupported on this host/build; "
                 "clamping to %s\n",
                 isa_name(*parsed), isa_name(best_isa()));
    return best_isa();
  }
  return *parsed;
}

/// Single source of truth for the active level. A function-local static
/// (not a namespace-scope atomic) so initialization is ordered after
/// best_isa()'s own local static regardless of TU static-init order,
/// and detect_best() runs exactly once — the old namespace-scope
/// `g_active{detect_best()}` ran a second detection whose relative
/// order against best_isa() was unspecified.
std::atomic<IsaLevel>& active_slot() {
  static std::atomic<IsaLevel> slot{initial_isa()};
  return slot;
}

}  // namespace

IsaLevel best_isa() {
  static const IsaLevel best = detect_best();
  return best;
}

bool isa_supported(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return true;
#if defined(__x86_64__)
    case IsaLevel::kSsse3:
      return DIALGA_HAVE_SSSE3 && __builtin_cpu_supports("ssse3");
    case IsaLevel::kAvx2:
      return DIALGA_HAVE_AVX2 && __builtin_cpu_supports("avx2");
    case IsaLevel::kAvx512:
      return DIALGA_HAVE_AVX512 && __builtin_cpu_supports("avx512bw");
    case IsaLevel::kGfni:
      return DIALGA_HAVE_GFNI && __builtin_cpu_supports("gfni") &&
             __builtin_cpu_supports("avx2");
#endif
    default:
      return false;
  }
}

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kSsse3:
      return "ssse3";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
    case IsaLevel::kGfni:
      return "gfni";
  }
  return "?";
}

std::optional<IsaLevel> parse_isa(std::string_view name) {
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kSsse3, IsaLevel::kAvx2,
        IsaLevel::kAvx512, IsaLevel::kGfni}) {
    if (name == isa_name(level)) return level;
  }
  return std::nullopt;
}

IsaLevel active_isa() {
  return active_slot().load(std::memory_order_relaxed);
}

IsaLevel set_active_isa(IsaLevel level) {
  if (!isa_supported(level)) level = best_isa();
  active_slot().store(level, std::memory_order_relaxed);
  return level;
}

void mul_acc(u8 c, const std::byte* src, std::byte* dst, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__)
#if DIALGA_HAVE_GFNI
    case IsaLevel::kGfni:
      detail::mul_acc_gfni(prepare_coeff(c), src, dst, n);
      return;
#endif
#if DIALGA_HAVE_AVX512
    case IsaLevel::kAvx512:
      detail::mul_acc_avx512(make_split_table(c), src, dst, n);
      return;
#endif
#if DIALGA_HAVE_AVX2
    case IsaLevel::kAvx2:
      detail::mul_acc_avx2(make_split_table(c), src, dst, n);
      return;
#endif
#if DIALGA_HAVE_SSSE3
    case IsaLevel::kSsse3:
      detail::mul_acc_ssse3(make_split_table(c), src, dst, n);
      return;
#endif
#endif
    default:
      detail::mul_acc_scalar(make_split_table(c), src, dst, n);
  }
}

void mul_set(u8 c, const std::byte* src, std::byte* dst, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__)
#if DIALGA_HAVE_GFNI
    case IsaLevel::kGfni:
      detail::mul_set_gfni(prepare_coeff(c), src, dst, n);
      return;
#endif
#if DIALGA_HAVE_AVX512
    case IsaLevel::kAvx512:
      detail::mul_set_avx512(make_split_table(c), src, dst, n);
      return;
#endif
#if DIALGA_HAVE_AVX2
    case IsaLevel::kAvx2:
      detail::mul_set_avx2(make_split_table(c), src, dst, n);
      return;
#endif
#if DIALGA_HAVE_SSSE3
    case IsaLevel::kSsse3:
      detail::mul_set_ssse3(make_split_table(c), src, dst, n);
      return;
#endif
#endif
    default:
      detail::mul_set_scalar(make_split_table(c), src, dst, n);
  }
}

void xor_acc(const std::byte* src, std::byte* dst, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__)
#if DIALGA_HAVE_AVX512
    case IsaLevel::kAvx512:
      detail::xor_acc_avx512(src, dst, n);
      return;
#endif
#if DIALGA_HAVE_AVX2
    case IsaLevel::kGfni:  // GFNI implies AVX2; XOR has no GFNI form
    case IsaLevel::kAvx2:
      detail::xor_acc_avx2(src, dst, n);
      return;
#endif
#if DIALGA_HAVE_SSSE3
    case IsaLevel::kSsse3:
      detail::xor_acc_ssse3(src, dst, n);
      return;
#endif
#endif
    default:
      detail::xor_acc_scalar(src, dst, n);
  }
}

void mul_acc_multi(const PreparedCoeff* coeffs, const std::byte* src,
                   std::byte* const* dsts, std::size_t ndst, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__)
#if DIALGA_HAVE_GFNI
    case IsaLevel::kGfni:
      detail::mul_acc_multi_gfni(coeffs, src, dsts, ndst, n);
      return;
#endif
#if DIALGA_HAVE_AVX512
    case IsaLevel::kAvx512:
      detail::mul_acc_multi_avx512(coeffs, src, dsts, ndst, n);
      return;
#endif
#if DIALGA_HAVE_AVX2
    case IsaLevel::kAvx2:
      detail::mul_acc_multi_avx2(coeffs, src, dsts, ndst, n);
      return;
#endif
#if DIALGA_HAVE_SSSE3
    case IsaLevel::kSsse3:
      detail::mul_acc_multi_ssse3(coeffs, src, dsts, ndst, n);
      return;
#endif
#endif
    default:
      detail::mul_acc_multi_scalar(coeffs, src, dsts, ndst, n);
  }
}

void mul_dot_multi(const PreparedCoeff* coeffs, std::size_t coeff_stride,
                   const std::byte* const* srcs, std::size_t nsrc,
                   std::byte* const* dsts, std::size_t ndst, std::size_t n,
                   const std::byte* const* prefetch) {
  switch (active_isa()) {
#if defined(__x86_64__)
#if DIALGA_HAVE_GFNI
    case IsaLevel::kGfni:
      detail::mul_dot_multi_gfni(coeffs, coeff_stride, srcs, nsrc, dsts,
                                 ndst, n, prefetch);
      return;
#endif
#if DIALGA_HAVE_AVX512
    case IsaLevel::kAvx512:
      detail::mul_dot_multi_avx512(coeffs, coeff_stride, srcs, nsrc, dsts,
                                   ndst, n, prefetch);
      return;
#endif
#if DIALGA_HAVE_AVX2
    case IsaLevel::kAvx2:
      detail::mul_dot_multi_avx2(coeffs, coeff_stride, srcs, nsrc, dsts,
                                 ndst, n, prefetch);
      return;
#endif
#if DIALGA_HAVE_SSSE3
    case IsaLevel::kSsse3:
      detail::mul_dot_multi_ssse3(coeffs, coeff_stride, srcs, nsrc, dsts,
                                  ndst, n, prefetch);
      return;
#endif
#endif
    default:
      detail::mul_dot_multi_scalar(coeffs, coeff_stride, srcs, nsrc, dsts,
                                   ndst, n, prefetch);
  }
}

namespace detail {

void mul_acc_scalar(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const u8 x = static_cast<u8>(src[i]);
    dst[i] ^= static_cast<std::byte>(t.lo[x & 0xf] ^ t.hi[x >> 4]);
  }
}

void mul_set_scalar(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const u8 x = static_cast<u8>(src[i]);
    dst[i] = static_cast<std::byte>(t.lo[x & 0xf] ^ t.hi[x >> 4]);
  }
}

void xor_acc_scalar(const std::byte* src, std::byte* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

namespace {
/// dsts[t][begin..end) ^= coeffs[t] * src[begin..end).
void mul_acc_range_scalar(const PreparedCoeff* coeffs, const std::byte* src,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const u8 x = static_cast<u8>(src[i]);
    const unsigned lo = x & 0xf, hi = x >> 4;
    for (std::size_t t = 0; t < ndst; ++t) {
      dsts[t][i] ^= static_cast<std::byte>(coeffs[t].split.lo[lo] ^
                                           coeffs[t].split.hi[hi]);
    }
  }
}
}  // namespace

void mul_acc_multi_scalar(const PreparedCoeff* coeffs, const std::byte* src,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n) {
  mul_acc_range_scalar(coeffs, src, dsts, ndst, 0, n);
}

void mul_dot_multi_scalar(const PreparedCoeff* coeffs,
                          std::size_t coeff_stride,
                          const std::byte* const* srcs, std::size_t nsrc,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n, const std::byte* const* prefetch) {
  // Zero-then-accumulate realizes the SET semantics; also the bit-
  // exactness reference the SIMD backends are tested against. Walked
  // line-major like the SIMD backends, so the prefetch table is
  // consumed in the same load-task order.
  for (std::size_t t = 0; t < ndst; ++t) std::memset(dsts[t], 0, n);
  for (std::size_t begin = 0; begin < n; begin += 64) {
    const std::size_t end = std::min(n, begin + 64);
    for (std::size_t s = 0; s < nsrc; ++s) {
      if (prefetch != nullptr) __builtin_prefetch(prefetch[s] + begin, 0, 3);
      mul_acc_range_scalar(coeffs + s * coeff_stride, srcs[s], dsts, ndst,
                           begin, end);
    }
  }
}

}  // namespace detail
}  // namespace gf
