// Shared functional encode/decode over a systematic GF(2^8) generator,
// used by every codec's correctness path.
//
// Execution engine: a fused, cache-blocked driver (FusedEncode) instead
// of the naive O(k*m) formulation. The block is walked in L1-sized
// chunks; within a chunk, up to gf::kMaxFusedDst parity accumulators
// are held live in registers while every source streams through
// gf::mul_dot_multi — so for k=12,m=4 a parity chunk is written once
// per chunk instead of the whole parity block being re-read/re-written
// k times, and each source chunk is read once per parity group instead
// of m times. Coefficient tables come from a CoeffCache built once
// (per codec, or transiently per call), never per region pass.
//
// The driver also realizes the paper's section 4.2.2 branchless
// software prefetch: when HostKernelOptions::prefetch_distance d > 0,
// a k-entry prefetch-pointer table is built once per call
// (BuildPrefetchTable) in the kernel's own row-major load-task order —
// the order ec::BuildRowPlan numbers the simulated tasks in — and
// handed to the kernels, which issue one _mm_prefetch(T0) per (source,
// line) with no bounds branch. Rows whose targets would fall past the
// block end revert to the plain kernel. DIALGA's planned distance
// reaches this layer via dialga::Strategy::to_host_options().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gf/gf_simd.h"
#include "gf/matrix.h"

namespace ec {

/// Host-kernel tuning knobs, derived from the DIALGA strategy for the
/// paper-guided paths and defaulted everywhere else.
struct HostKernelOptions {
  /// Software-prefetch distance in 64 B load tasks in row order (the
  /// unit DIALGA plans in): d = k is one row ahead. 0 disables the
  /// prefetch-pointer table entirely.
  std::size_t prefetch_distance = 0;
  /// Chunk size for the cache-blocked outer loop, rounded down to a
  /// 64 B multiple (minimum one line). Default keeps one source chunk
  /// plus a 4-parity group comfortably inside a 32-48 KiB L1D.
  std::size_t chunk_bytes = 16 * 1024;
};

/// All coefficients of a generator sub-matrix prepared once for every
/// backend (nibble split tables + GFNI affine matrices), laid out
/// source-major: the entries for one source column are contiguous over
/// the output rows, so a fused group's coefficient pointer is just
/// col(i) + j0.
class CoeffCache {
 public:
  CoeffCache() = default;
  /// Rows [row0, row0 + nrows) of mat, columns [0, cols).
  CoeffCache(const gf::Matrix& mat, std::size_t row0, std::size_t nrows,
             std::size_t cols);
  /// Arbitrary row subset (decode matrices, erased-parity rows).
  CoeffCache(const gf::Matrix& mat, std::span<const std::size_t> row_list,
             std::size_t cols);

  std::size_t rows() const { return nrows_; }
  std::size_t cols() const { return cols_; }
  /// Coefficient feeding output row `row` from source column `col`.
  const gf::PreparedCoeff& at(std::size_t col, std::size_t row) const {
    return coeffs_[col * nrows_ + row];
  }
  /// Contiguous [rows()] coefficients for one source column.
  const gf::PreparedCoeff* col(std::size_t c) const {
    return coeffs_.data() + c * nrows_;
  }
  /// Source-major base pointer and stride for gf::mul_dot_multi:
  /// data() + j0 with stride() addresses coefficient (source s,
  /// output row j0 + t) as base[s * stride() + t].
  const gf::PreparedCoeff* data() const { return coeffs_.data(); }
  std::size_t stride() const { return nrows_; }

 private:
  std::size_t nrows_ = 0;
  std::size_t cols_ = 0;
  std::vector<gf::PreparedCoeff> coeffs_;
};

/// The section 4.2.2 prefetch-pointer table for one fused call over k =
/// srcs.size() source blocks of block_size bytes. Load tasks are
/// numbered in row order (task row * k + s loads 64 B line `row` of
/// source s) and task n prefetches task n + d. With q = d / k and
/// r = d % k, that is the paper's two offset groups:
///   table[s] = srcs[s + r]     + 64 * q        for s <  k - r,
///   table[s] = srcs[s + r - k] + 64 * (q + 1)  for s >= k - r,
/// and row `row` of source s prefetches table[s] + 64 * row. Returns the
/// byte length (a multiple of 64) of the block prefix whose rows have
/// every target inside the source blocks; later rows — and every row
/// when it returns 0 (d == 0, or d reaches past the block) — run
/// without prefetch, and `table` is then left unwritten. `table` must
/// hold k entries.
std::size_t BuildPrefetchTable(std::span<const std::byte* const> srcs,
                               std::size_t block_size, std::size_t distance,
                               const std::byte** table);

/// dsts[j][0..block_size) = sum_i cache.at(i, j) * srcs[i], computed by
/// the fused cache-blocked driver described above. srcs.size() must be
/// cache.cols() (below gf::kFieldSize), dsts.size() cache.rows(); dst
/// blocks must not alias the sources. Makes no heap allocation.
void FusedEncode(const CoeffCache& cache, std::size_t block_size,
                 std::span<const std::byte* const> srcs,
                 std::span<std::byte* const> dsts,
                 const HostKernelOptions& opts = {});

/// dst[0..block_size) ^= srcs[0] ^ srcs[1] ^ ..., chunked so the dst
/// chunk stays cache-resident across all sources (XOR codes / LRC
/// local groups share the fused loop shape without coefficients).
void FusedXorInto(std::span<const std::byte* const> srcs, std::byte* dst,
                  std::size_t block_size, const HostKernelOptions& opts = {});

/// The pre-rewrite O(k*m) formulation: one full-block gf::mul_acc pass
/// per (source, parity) coefficient, split tables rebuilt per pass.
/// Kept as the bit-exactness reference for tests and the unfused
/// baseline bench_host_kernels measures the fused driver against.
void NaiveSystematicEncode(const gf::Matrix& gen, std::size_t k,
                           std::size_t m, std::size_t block_size,
                           std::span<const std::byte* const> data,
                           std::span<std::byte* const> parity);

/// parity[j] = sum_i gen(k+j, i) * data[i], region-wise.
void SystematicEncode(const gf::Matrix& gen, std::size_t k, std::size_t m,
                      std::size_t block_size,
                      std::span<const std::byte* const> data,
                      std::span<std::byte* const> parity,
                      const HostKernelOptions& opts = {});

/// Reconstruct erased blocks in place (blocks = k data then m parity).
/// Returns false when unrecoverable.
bool SystematicDecode(const gf::Matrix& gen, std::size_t k, std::size_t m,
                      std::size_t block_size,
                      std::span<std::byte* const> blocks,
                      std::span<const std::size_t> erasures,
                      const HostKernelOptions& opts = {});

}  // namespace ec
