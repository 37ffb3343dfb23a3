#include "dialga/dialga.h"

namespace dialga {

DialgaPlanProvider::DialgaPlanProvider(PlanFactory factory,
                                       const PatternInfo& pattern,
                                       const Features& features,
                                       const Thresholds& thresholds,
                                       std::size_t pm_buffer_bytes,
                                       const SelectorOptions& selector)
    : factory_(std::move(factory)),
      coord_(pattern, features, thresholds, pm_buffer_bytes, selector) {}

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
    : inner_(k, m, simd), features_(features), thresholds_(thresholds) {
  // The host face never builds a Coordinator, so register the
  // selector/plan-cache families here: a scrape sees them at zero.
  TouchSelectorMetrics();
}

void DialgaCodec::set_selector_options(const SelectorOptions& opts) {
  std::lock_guard<std::mutex> lock(host_mu_);
  selector_opts_ = opts;
  host_cache_loaded_ = false;
}

Strategy DialgaCodec::host_strategy(std::size_t block_size) const {
  const PatternInfo pattern{params().k, params().m, block_size, 1};
  if (selector_opts_.enabled) {
    // Read-only plan-cache replay: only the learning path (a live
    // Coordinator's selector) commits entries, each with a measured
    // reward; the host face never writes the file.
    std::lock_guard<std::mutex> lock(host_mu_);
    if (!host_cache_loaded_) {
      host_cache_loaded_ = true;
      if (!selector_opts_.plan_cache_path.empty()) {
        host_cache_.load_warn_if_corrupt(selector_opts_.plan_cache_path);
      }
    }
    if (const PlanCache::Entry* e = host_cache_.lookup(ShapeKey(pattern))) {
      return ReplayStrategy(Strategy::from_key(e->strategy_key), features_);
    }
  }
  // Otherwise the coordinator's initial strategy for this pattern: its
  // software-prefetch distance feeds the fused driver's branchless
  // prefetch-pointer array (output stays bit-identical to plain ISA-L —
  // scheduling only moves cache fills).
  return InitialStrategy(pattern, features_, thresholds_, 0);
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
      pattern, features_, thresholds_, cfg.pm_read_buffer_total(),
      selector_opts_);
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
      pattern, features_, thresholds_, cfg.pm_read_buffer_total(),
      selector_opts_);
}

}  // namespace dialga
