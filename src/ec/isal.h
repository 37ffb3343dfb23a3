// ISA-L-style table-lookup Reed-Solomon codec.
//
// Functional path: split-table (PSHUFB-style) GF(2^8) multiply-
// accumulate region kernels, identical math to ISA-L's ec_encode_data.
//
// Timing path: the canonical access pattern the paper analyzes — for
// each 64 B row position, load one line from each of the k data blocks
// (k concurrent streams!), accumulate the m parity lines in registers,
// and store them with non-temporal writes. IsalPlanOptions exposes the
// hooks DIALGA's lightweight operator uses: row shuffling (defeats the
// L2 streamer), pipelined software prefetch at a configurable distance,
// XPLine-aware split distances, and XPLine-widened loop granularity.
// Plain ISA-L is the all-defaults configuration.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "ec/codec.h"
#include "ec/codec_util.h"
#include "gf/matrix.h"

namespace ec {

enum class GeneratorKind : std::uint8_t { kCauchy, kVandermonde };

/// Plan-generation knobs (all defaults == stock ISA-L).
struct IsalPlanOptions {
  /// Visit rows in a strided (non-sequential) order within each 4 KiB
  /// window so the L2 stream prefetcher never gains confidence
  /// (DIALGA section 4.2.2, the fine-grained HW prefetcher "switch").
  bool shuffle_rows = false;

  /// Pipelined software prefetch distance in load tasks in row order
  /// (0 = off): d = k is one row ahead. The prefetch address for task n
  /// is task n+d's line — the branchless prefetch-pointer construction
  /// of section 4.2.2, which the host driver realizes with the same
  /// targets (ec::BuildPrefetchTable).
  std::size_t prefetch_distance = 0;

  /// Buffer-friendly split distances (section 4.3.2): lines that open a
  /// new 256 B XPLine are prefetched `xpline_first_distance` tasks
  /// ahead; other lines use `prefetch_distance`. 0 = uniform.
  std::size_t xpline_first_distance = 0;

  /// Widen the loop granularity to one XPLine (4 rows) per block per
  /// iteration (section 4.3.3) so implicitly buffered lines are
  /// consumed before eviction under high concurrency.
  bool widen_to_xpline = false;

  /// Only prefetch lines at or beyond this block offset. Used for
  /// blocks larger than 4 KiB that are not 4 KiB-multiples: the
  /// streamer covers the aligned prefix at peak efficiency, software
  /// prefetch handles only the unaligned tail (section 4.1). 0 = all.
  std::size_t prefetch_tail_offset = 0;

  /// Ablation: model a naive branchy software-prefetch interface by
  /// charging this many extra cycles per prefetch (branch misprediction
  /// penalty the branchless design avoids).
  double naive_prefetch_penalty_cycles = 0.0;
};

class IsalCodec : public Codec {
 public:
  IsalCodec(std::size_t k, std::size_t m,
            SimdWidth simd = SimdWidth::kAvx512,
            GeneratorKind gen = GeneratorKind::kCauchy);

  std::string name() const override;
  CodeParams params() const override { return {k_, m_}; }
  SimdWidth simd() const override { return simd_; }

  void encode(std::size_t block_size, std::span<const std::byte* const> data,
              std::span<std::byte* const> parity) const override;
  bool decode(std::size_t block_size, std::span<std::byte* const> blocks,
              std::span<const std::size_t> erasures) const override;

  /// Host-execution entry points with explicit kernel options — how a
  /// DIALGA strategy's software-prefetch distance reaches the fused
  /// driver. Parity rows use the construction-time coefficient cache;
  /// decode matrices are still derived per call (they depend on the
  /// erasure set).
  void encode_with(std::size_t block_size,
                   std::span<const std::byte* const> data,
                   std::span<std::byte* const> parity,
                   const HostKernelOptions& opts) const;
  bool decode_with(std::size_t block_size, std::span<std::byte* const> blocks,
                   std::span<const std::size_t> erasures,
                   const HostKernelOptions& opts) const;

  EncodePlan encode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost) const override;
  EncodePlan decode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost,
                         std::span<const std::size_t> erasures) const override;

  /// Plan with explicit options — the entry point DIALGA's operator
  /// uses to realize a scheduling strategy (mirrors the paper's
  /// "multiple variant assembly entry points").
  EncodePlan encode_plan_with(std::size_t block_size,
                              const simmem::ComputeCost& cost,
                              const IsalPlanOptions& opts) const;
  EncodePlan decode_plan_with(std::size_t block_size,
                              const simmem::ComputeCost& cost,
                              std::span<const std::size_t> erasures,
                              const IsalPlanOptions& opts) const;

  const gf::Matrix& generator() const { return gen_; }

 private:
  std::size_t k_;
  std::size_t m_;
  SimdWidth simd_;
  GeneratorKind gen_kind_;
  gf::Matrix gen_;  // (k+m) x k systematic generator
  // All k*m parity coefficients prepared once at construction (split
  // tables + GFNI affine matrices) — encode never rebuilds a table.
  CoeffCache parity_cache_;
};

/// Shared row-interleaved plan builder (also used by decode and LRC):
/// loads one line per source slot per row, charges
/// `cycles_per_line` after each load, and stores one line per target
/// slot per row (group), honoring all IsalPlanOptions.
EncodePlan BuildRowPlan(std::size_t block_size,
                        std::span<const std::size_t> source_slots,
                        std::span<const std::size_t> target_slots,
                        std::size_t num_data, std::size_t num_parity,
                        double cycles_per_line,
                        const IsalPlanOptions& opts);

/// The strided row permutation used by shuffle_rows (exposed for tests:
/// must be a bijection and must avoid +-1 deltas for windows > 4 rows).
std::vector<std::size_t> ShuffledRowOrder(std::size_t rows);

}  // namespace ec
