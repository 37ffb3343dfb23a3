#include "dialga/dialga.h"

namespace dialga {

DialgaPlanProvider::DialgaPlanProvider(PlanFactory factory,
                                       const PatternInfo& pattern,
                                       const Features& features,
                                       const Thresholds& thresholds,
                                       std::size_t pm_buffer_bytes)
    : factory_(std::move(factory)),
      coord_(pattern, features, thresholds, pm_buffer_bytes) {}

void DialgaPlanProvider::observe_pattern(const PatternInfo& pattern) {
  coord_.update_pattern(pattern);
}

const ec::EncodePlan& DialgaPlanProvider::next_plan(
    std::size_t /*tid*/, simmem::MemorySystem& mem) {
  const Strategy& s = coord_.strategy(mem);
  auto [it, inserted] = cache_.try_emplace(s.key());
  if (inserted) {
    it->second =
        std::make_unique<ec::EncodePlan>(factory_(s.to_plan_options()));
  }
  return *it->second;
}

DialgaCodec::DialgaCodec(std::size_t k, std::size_t m, ec::SimdWidth simd,
                         Features features, Thresholds thresholds)
    : inner_(k, m, simd), features_(features), thresholds_(thresholds) {}

Strategy DialgaCodec::host_strategy(std::size_t block_size) const {
  // The coordinator's initial strategy for this pattern: its
  // software-prefetch distance feeds the fused driver's branchless
  // prefetch-pointer array (output stays bit-identical to plain ISA-L —
  // scheduling only moves cache fills).
  return InitialStrategy({params().k, params().m, block_size, 1}, features_,
                         thresholds_, 0);
}

void DialgaCodec::encode(std::size_t block_size,
                         std::span<const std::byte* const> data,
                         std::span<std::byte* const> parity) const {
  inner_.encode_with(block_size, data, parity,
                     host_strategy(block_size).to_host_options());
}

bool DialgaCodec::decode(std::size_t block_size,
                         std::span<std::byte* const> blocks,
                         std::span<const std::size_t> erasures) const {
  return inner_.decode_with(block_size, blocks, erasures,
                            host_strategy(block_size).to_host_options());
}

ec::EncodePlan DialgaCodec::encode_plan(
    std::size_t block_size, const simmem::ComputeCost& cost) const {
  const PatternInfo pattern{params().k, params().m, block_size, 1};
  return inner_.encode_plan_with(
      block_size, cost,
      InitialStrategy(pattern, features_, thresholds_, 0).to_plan_options());
}

ec::EncodePlan DialgaCodec::decode_plan(
    std::size_t block_size, const simmem::ComputeCost& cost,
    std::span<const std::size_t> erasures) const {
  const PatternInfo pattern{params().k, params().m, block_size, 1};
  return inner_.decode_plan_with(
      block_size, cost, erasures,
      InitialStrategy(pattern, features_, thresholds_, 0).to_plan_options());
}

std::unique_ptr<DialgaPlanProvider> DialgaCodec::make_encode_provider(
    const PatternInfo& pattern, const simmem::SimConfig& cfg) const {
  const ec::IsalCodec* inner = &inner_;
  const simmem::ComputeCost cost = cfg.cost;
  const std::size_t block_size = pattern.block_size;
  return std::make_unique<DialgaPlanProvider>(
      [inner, cost, block_size](const ec::IsalPlanOptions& opts) {
        return inner->encode_plan_with(block_size, cost, opts);
      },
      pattern, features_, thresholds_, cfg.pm_read_buffer_total());
}

std::unique_ptr<DialgaPlanProvider> DialgaCodec::make_decode_provider(
    const PatternInfo& pattern, const simmem::SimConfig& cfg,
    std::vector<std::size_t> erasures) const {
  const ec::IsalCodec* inner = &inner_;
  const simmem::ComputeCost cost = cfg.cost;
  const std::size_t block_size = pattern.block_size;
  return std::make_unique<DialgaPlanProvider>(
      [inner, cost, block_size, erasures = std::move(erasures)](
          const ec::IsalPlanOptions& opts) {
        return inner->decode_plan_with(block_size, cost, erasures, opts);
      },
      pattern, features_, thresholds_, cfg.pm_read_buffer_total());
}

}  // namespace dialga
