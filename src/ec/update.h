// Small-write parity updates — the "update" half of erasure coding on
// PM that the paper's related work (CodePM, TVARAK, Vilamb) targets and
// that section 4.1 notes DIALGA's prefetch scheduling also applies to.
//
// For a systematic RS stripe, overwriting a range of one data block
// does not require re-encoding the stripe: with delta = old ^ new,
// every parity updates independently as
//     parity_j ^= gen(k+j, i) * delta .
// The memory pattern is a read-modify-write of the touched data lines
// and the same lines of every parity block — a load-dominated pattern
// (1 + m loads per line) that benefits from prefetch scheduling exactly
// like encoding does.
#pragma once

#include <span>
#include <vector>

#include "ec/codec.h"
#include "ec/isal.h"
#include "gf/gf_simd.h"
#include "gf/matrix.h"

namespace ec {

class UpdateEngine {
 public:
  /// `gen` is the (k+m) x k systematic generator of the stripe's codec.
  UpdateEngine(gf::Matrix gen, std::size_t k, std::size_t m,
               SimdWidth simd = SimdWidth::kAvx512);

  /// Convenience: adopt a codec's generator.
  explicit UpdateEngine(const IsalCodec& codec)
      : UpdateEngine(codec.generator(), codec.params().k, codec.params().m,
                     codec.simd()) {}

  std::size_t k() const { return k_; }
  std::size_t m() const { return m_; }

  /// Overwrite `new_bytes` at `offset` of data block `block_index`,
  /// updating all parities in place via the delta property. `data`
  /// points at the current (old) block contents and is overwritten.
  /// Throws std::out_of_range when block_index >= k or the range does
  /// not fit in the block, and std::invalid_argument when `parity` does
  /// not hold m blocks; either leaves data and parity untouched.
  void apply(std::size_t block_size, std::size_t block_index,
             std::size_t offset, std::span<const std::byte> new_bytes,
             std::byte* data, std::span<std::byte* const> parity) const;

  /// Memory access pattern of one small write of `len` bytes at
  /// `offset` (both cacheline-aligned internally). Slot layout:
  /// slot 0 = the data block, slots 1..m = parity blocks; all slots are
  /// RMW'd over the touched lines, ending with a persistence fence.
  /// `opts` carries DIALGA's prefetch scheduling into the update path.
  /// Throws std::out_of_range when the range does not fit in the block.
  EncodePlan update_plan(std::size_t block_size, std::size_t offset,
                         std::size_t len, const simmem::ComputeCost& cost,
                         const IsalPlanOptions& opts = {}) const;

  /// Bytes of traffic a delta update moves (reads + writes) vs a full
  /// re-encode of the stripe — the crossover analysis in
  /// bench_update_path.
  static std::size_t update_traffic_bytes(std::size_t len, std::size_t m);
  static std::size_t reencode_traffic_bytes(std::size_t block_size,
                                            std::size_t k, std::size_t m);

 private:
  std::size_t k_;
  std::size_t m_;
  SimdWidth simd_;
  gf::Matrix gen_;
  // Parity coefficients prepared once, source-major (entry i*m + j
  // feeds parity j from data block i) so one small write's m
  // coefficients are contiguous for the fused delta kernel.
  std::vector<gf::PreparedCoeff> coeffs_;
};

}  // namespace ec
