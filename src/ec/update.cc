#include "ec/update.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "gf/gf_simd.h"
#include "simmem/config.h"

namespace ec {

namespace {

/// Throws std::out_of_range unless [offset, offset + len) lies inside a
/// block of `block_size` bytes (written so the sum cannot wrap).
void CheckRange(std::size_t block_size, std::size_t offset, std::size_t len) {
  if (offset > block_size || len > block_size - offset) {
    throw std::out_of_range("update range [" + std::to_string(offset) + ", +" +
                            std::to_string(len) + ") exceeds block size " +
                            std::to_string(block_size));
  }
}

}  // namespace

UpdateEngine::UpdateEngine(gf::Matrix gen, std::size_t k, std::size_t m,
                           SimdWidth simd)
    : k_(k), m_(m), simd_(simd), gen_(std::move(gen)) {
  assert(gen_.rows() == k + m && gen_.cols() == k);
  coeffs_.reserve(k * m);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      coeffs_.push_back(gf::prepare_coeff(gen_.at(k + j, i)));
    }
  }
}

void UpdateEngine::apply(std::size_t block_size, std::size_t block_index,
                         std::size_t offset,
                         std::span<const std::byte> new_bytes,
                         std::byte* data,
                         std::span<std::byte* const> parity) const {
  if (block_index >= k_) {
    throw std::out_of_range("update block index " +
                            std::to_string(block_index) + " >= k " +
                            std::to_string(k_));
  }
  CheckRange(block_size, offset, new_bytes.size());
  if (parity.size() != m_) {
    throw std::invalid_argument("update needs " + std::to_string(m_) +
                                " parity blocks, got " +
                                std::to_string(parity.size()));
  }
  const std::size_t len = new_bytes.size();

  // delta = old ^ new, then overwrite the data range.
  std::vector<std::byte> delta(len);
  for (std::size_t i = 0; i < len; ++i) {
    delta[i] = data[offset + i] ^ new_bytes[i];
    data[offset + i] = new_bytes[i];
  }

  // One fused streaming pass over the delta per group of up to
  // kMaxFusedDst parities, with the construction-time coefficients.
  for (std::size_t j0 = 0; j0 < m_; j0 += gf::kMaxFusedDst) {
    const std::size_t g = std::min(gf::kMaxFusedDst, m_ - j0);
    std::byte* dsts[gf::kMaxFusedDst];
    for (std::size_t t = 0; t < g; ++t) dsts[t] = parity[j0 + t] + offset;
    gf::mul_acc_multi(coeffs_.data() + block_index * m_ + j0, delta.data(),
                      dsts, g, len);
  }
}

EncodePlan UpdateEngine::update_plan(std::size_t block_size,
                                     std::size_t offset, std::size_t len,
                                     const simmem::ComputeCost& cost,
                                     const IsalPlanOptions& opts) const {
  CheckRange(block_size, offset, len);
  // Widen to cacheline granularity: RMW always moves whole lines.
  const std::size_t first_line =
      offset / simmem::kCacheLineBytes * simmem::kCacheLineBytes;
  const std::size_t end = offset + len;
  const std::size_t last_line_end =
      (end + simmem::kCacheLineBytes - 1) / simmem::kCacheLineBytes *
      simmem::kCacheLineBytes;
  const std::size_t span = last_line_end - first_line;

  // The RMW pattern is a row plan whose sources AND targets are the
  // data block plus every parity block: each touched line of each slot
  // is loaded, combined with the delta, and streamed back out.
  std::vector<std::size_t> slots(1 + m_);
  std::iota(slots.begin(), slots.end(), 0);
  const double per_parity = simd_ == SimdWidth::kAvx512
                                ? cost.avx512_cycles_per_line_parity
                                : cost.avx256_cycles_per_line_parity;
  const double xor_scale = simd_ == SimdWidth::kAvx256 ? 2.0 : 1.0;
  // Per loaded line: loop overhead plus, amortized, one delta XOR and
  // one GF multiply-accumulate.
  const double cycles_per_line = cost.per_line_overhead_cycles +
                                 cost.xor_cycles_per_line * xor_scale +
                                 per_parity;

  EncodePlan plan = BuildRowPlan(span, slots, slots, 1, m_,
                                 cycles_per_line, opts);
  // plan.block_size stays `span`: data_bytes() then reports the bytes
  // this small write actually touches. Offsets are rebased to the
  // absolute position within the block so slot bindings stay block
  // base addresses.
  if (first_line != 0) {
    for (PlanOp& op : plan.ops) {
      if (op.kind == PlanOp::Kind::kCompute ||
          op.kind == PlanOp::Kind::kFence) {
        continue;
      }
      op.offset += static_cast<std::uint32_t>(first_line);
    }
  }
  return plan;
}

std::size_t UpdateEngine::update_traffic_bytes(std::size_t len,
                                               std::size_t m) {
  // (1 + m) lines read + (1 + m) lines written per touched line.
  const std::size_t lines =
      (len + simmem::kCacheLineBytes - 1) / simmem::kCacheLineBytes;
  return 2 * (1 + m) * lines * simmem::kCacheLineBytes;
}

std::size_t UpdateEngine::reencode_traffic_bytes(std::size_t block_size,
                                                 std::size_t k,
                                                 std::size_t m) {
  return (k + m) * block_size;  // k read + m written
}

}  // namespace ec
