// Region kernels for GF(2^8) multiply-accumulate — the computational
// core of table-lookup erasure coding (ISA-L's approach, Fig. 2 left).
//
// A constant multiplier c is expanded into two 16-entry nibble tables
// (lo[x & 0xf] = c*x, hi[x >> 4] = c*(x << 4)); one byte multiply is
// then two table lookups + one XOR, which maps directly onto PSHUFB /
// VPSHUFB (SSSE3 / AVX2 / AVX-512BW), or — on GFNI hosts — onto a
// single GF2P8AFFINEQB with the multiply-by-c bit matrix. Functional
// correctness uses the best ISA available on the host, runtime-
// dispatched; simulated timing is always taken from the cost model so
// results are machine-independent.
//
// Beyond the single-destination kernels, mul_acc_multi fuses up to
// kMaxFusedDst parity accumulators into ONE streaming pass over the
// source: the source vector and its nibble split are loaded once and
// reused for every destination, which is the ISA-L
// gf_Nvect_mad/dot_prod structure the fused encode driver
// (ec/codec_util.h) is built on. mul_dot_multi's optional
// prefetch-pointer table realizes the paper's branchless software
// prefetch (section 4.2.2) inside the kernel loop: one _mm_prefetch per
// (source, 64 B line), address taken from a pre-built per-source table,
// no distance arithmetic or bounds test on the hot path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "gf/gf256.h"

namespace gf {

/// Nibble-split multiplication table for one constant.
struct SplitTable {
  alignas(16) std::array<u8, 16> lo{};
  alignas(16) std::array<u8, 16> hi{};
};

SplitTable make_split_table(u8 c);

/// 8x8 GF(2) bit matrix for multiply-by-c, laid out for GF2P8AFFINEQB:
/// result bit i of each byte = parity(matrix.byte[7 - i] & src byte),
/// so byte (7 - i) holds the row selecting which source bits feed
/// output bit i (Intel SDM affine_byte pseudocode).
std::uint64_t make_affine_matrix(u8 c);

/// One coefficient prepared for every backend: the nibble split tables
/// (scalar/PSHUFB paths) and the GFNI affine matrix, built together so
/// a per-codec cache serves whatever ISA is active at call time.
struct PreparedCoeff {
  SplitTable split;
  std::uint64_t affine = 0;
};

PreparedCoeff prepare_coeff(u8 c);

/// Levels are ordered by preference, not by strict ISA subset: a host
/// can support kGfni (GFNI + AVX2) without kAvx512. Use isa_supported()
/// rather than comparing enum values.
enum class IsaLevel { kScalar, kSsse3, kAvx2, kAvx512, kGfni };

inline constexpr std::size_t kNumIsaLevels = 5;

/// Best ISA the host supports (and the build enabled).
IsaLevel best_isa();
/// True when both the build and the running CPU can execute `level`.
bool isa_supported(IsaLevel level);
/// Lower-case name ("scalar", "ssse3", "avx2", "avx512", "gfni").
const char* isa_name(IsaLevel level);
/// Parse an isa_name (the DIALGA_ISA / --isa vocabulary).
std::optional<IsaLevel> parse_isa(std::string_view name);

/// Currently active ISA for the region kernels. Initialized once to
/// best_isa(), or to DIALGA_ISA when that names a supported level (an
/// unsupported request is clamped to best_isa() with a one-line stderr
/// warning so CI logs show the substitution).
IsaLevel active_isa();
/// Override the dispatch (tests verify all paths agree). Unsupported
/// levels are clamped to best_isa(); the level actually installed is
/// returned so callers can report the clamp.
///
/// Memory-ordering contract: the active level is a single relaxed
/// atomic. Kernels read it once per call, so a concurrent
/// set_active_isa is safe (every level a reader can observe is valid
/// and produces bit-identical output) but is not synchronized — a call
/// racing the store may still run on the previous backend. Callers
/// that need a strict cutover must provide their own happens-before
/// edge.
IsaLevel set_active_isa(IsaLevel level);

/// dst[0..n) ^= c * src[0..n)
void mul_acc(u8 c, const std::byte* src, std::byte* dst, std::size_t n);
/// dst[0..n) = c * src[0..n)
void mul_set(u8 c, const std::byte* src, std::byte* dst, std::size_t n);
/// dst[0..n) ^= src[0..n)
void xor_acc(const std::byte* src, std::byte* dst, std::size_t n);

/// Maximum number of destinations one fused pass keeps live (matches
/// ISA-L's widest gf_4vect kernels; RS codes with m > 4 run in groups).
inline constexpr std::size_t kMaxFusedDst = 4;

/// dsts[t][0..n) ^= coeffs[t] * src[0..n) for t in [0, ndst), in ONE
/// pass over src with all ndst accumulators live. ndst must be in
/// [1, kMaxFusedDst].
void mul_acc_multi(const PreparedCoeff* coeffs, const std::byte* src,
                   std::byte* const* dsts, std::size_t ndst, std::size_t n);

/// Full dot product with register-resident accumulators — the ISA-L
/// gf_Nvect_dot_prod structure:
///   dsts[t][0..n) = XOR_s coeffs[s * coeff_stride + t] * srcs[s][0..n)
/// (SET semantics: destinations are overwritten, no pre-zeroing
/// needed). The SIMD backends keep all ndst accumulators in vector
/// registers across the whole source loop for each tile, so parity
/// traffic collapses to ONE store per destination tile instead of a
/// load+store per source — the main lever behind the fused encode
/// driver's speedup. Requires nsrc >= 1 and ndst in [1, kMaxFusedDst].
///
/// `coeff_stride` is the distance between consecutive sources in
/// `coeffs` (codec caches store coefficients source-major with stride
/// m). `prefetch`, when non-null, holds nsrc pointers: entering 64 B
/// line `l` of source `s` issues _mm_prefetch(prefetch[s] + 64 * l,
/// T0). The kernels walk line-major (every source's line l, then line
/// l + 1), which is the row order the paper numbers load tasks in, so a
/// distance of d load tasks is one table entry per source: d = k is one
/// row ahead (ec::BuildPrefetchTable). Every such address must lie
/// inside a caller-owned buffer for each line the call starts.
void mul_dot_multi(const PreparedCoeff* coeffs, std::size_t coeff_stride,
                   const std::byte* const* srcs, std::size_t nsrc,
                   std::byte* const* dsts, std::size_t ndst, std::size_t n,
                   const std::byte* const* prefetch = nullptr);

namespace detail {
void mul_acc_scalar(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n);
void mul_set_scalar(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n);
void xor_acc_scalar(const std::byte* src, std::byte* dst, std::size_t n);
void mul_acc_multi_scalar(const PreparedCoeff* coeffs, const std::byte* src,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n);
void mul_dot_multi_scalar(const PreparedCoeff* coeffs,
                          std::size_t coeff_stride,
                          const std::byte* const* srcs, std::size_t nsrc,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n, const std::byte* const* prefetch);
#if defined(__x86_64__)
void mul_acc_ssse3(const SplitTable& t, const std::byte* src, std::byte* dst,
                   std::size_t n);
void mul_set_ssse3(const SplitTable& t, const std::byte* src, std::byte* dst,
                   std::size_t n);
void xor_acc_ssse3(const std::byte* src, std::byte* dst, std::size_t n);
void mul_acc_multi_ssse3(const PreparedCoeff* coeffs, const std::byte* src,
                         std::byte* const* dsts, std::size_t ndst,
                         std::size_t n);
void mul_dot_multi_ssse3(const PreparedCoeff* coeffs,
                         std::size_t coeff_stride,
                         const std::byte* const* srcs, std::size_t nsrc,
                         std::byte* const* dsts, std::size_t ndst,
                         std::size_t n, const std::byte* const* prefetch);
void mul_acc_avx2(const SplitTable& t, const std::byte* src, std::byte* dst,
                  std::size_t n);
void mul_set_avx2(const SplitTable& t, const std::byte* src, std::byte* dst,
                  std::size_t n);
void xor_acc_avx2(const std::byte* src, std::byte* dst, std::size_t n);
void mul_acc_multi_avx2(const PreparedCoeff* coeffs, const std::byte* src,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n);
void mul_dot_multi_avx2(const PreparedCoeff* coeffs,
                        std::size_t coeff_stride,
                        const std::byte* const* srcs, std::size_t nsrc,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n, const std::byte* const* prefetch);
// AVX-512BW: 64 B per step, compiled with function-level target
// attributes in gf_simd_avx512.cc so the rest of the binary stays
// portable.
void mul_acc_avx512(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n);
void mul_set_avx512(const SplitTable& t, const std::byte* src, std::byte* dst,
                    std::size_t n);
void xor_acc_avx512(const std::byte* src, std::byte* dst, std::size_t n);
void mul_acc_multi_avx512(const PreparedCoeff* coeffs, const std::byte* src,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n);
void mul_dot_multi_avx512(const PreparedCoeff* coeffs,
                          std::size_t coeff_stride,
                          const std::byte* const* srcs, std::size_t nsrc,
                          std::byte* const* dsts, std::size_t ndst,
                          std::size_t n, const std::byte* const* prefetch);
// GFNI: one VGF2P8AFFINEQB per vector instead of the 5-op nibble
// sequence. 256-bit VEX forms only (gated on gfni + avx2), so the
// backend also serves client CPUs that ship GFNI without AVX-512.
void mul_acc_gfni(const PreparedCoeff& c, const std::byte* src,
                  std::byte* dst, std::size_t n);
void mul_set_gfni(const PreparedCoeff& c, const std::byte* src,
                  std::byte* dst, std::size_t n);
void mul_acc_multi_gfni(const PreparedCoeff* coeffs, const std::byte* src,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n);
void mul_dot_multi_gfni(const PreparedCoeff* coeffs,
                        std::size_t coeff_stride,
                        const std::byte* const* srcs, std::size_t nsrc,
                        std::byte* const* dsts, std::size_t ndst,
                        std::size_t n, const std::byte* const* prefetch);
#endif
}  // namespace detail

}  // namespace gf
