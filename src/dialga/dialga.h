// DIALGA public API.
//
// DialgaCodec is a drop-in ec::Codec: functionally it is the ISA-L
// table-lookup codec (bit-identical output); for timed runs it supplies
// an adaptive PlanProvider that re-decides the prefetcher-scheduling
// strategy at every sampling window, exactly as the paper's coordinator
// switches between variant assembly entry points inside the standard
// ISA-L encoding interface.
//
// Typical timed use:
//   dialga::DialgaCodec codec(k, m);
//   auto provider = codec.make_encode_provider(
//       {k, m, block_size, nthreads}, sim_config);
//   // hand `provider.get()` to ec::RunThreads as the PlanProvider
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "dialga/coordinator.h"
#include "ec/codec.h"
#include "ec/executor.h"
#include "ec/isal.h"

namespace dialga {

/// Adaptive plan provider: coordinator + per-strategy plan map. The
/// plan factory maps realized plan options to a concrete plan (encode
/// or decode), which is how one provider class serves both directions
/// and LRC.
class DialgaPlanProvider : public ec::PlanProvider {
 public:
  using PlanFactory =
      std::function<ec::EncodePlan(const ec::IsalPlanOptions&)>;

  DialgaPlanProvider(PlanFactory factory, const PatternInfo& pattern,
                     const Features& features, const Thresholds& thresholds,
                     std::size_t pm_buffer_bytes);

  const ec::EncodePlan& next_plan(std::size_t tid,
                                  simmem::MemorySystem& mem) override;

  /// Feed a fresh I/O access pattern (the live admitted request mix a
  /// front-end like svc::StripeService observes) into the coordinator;
  /// the strategy is re-decided immediately and subsequent next_plan
  /// calls materialize plans for it. Plans already cached stay valid —
  /// the cache is keyed by realized strategy, not by pattern.
  void observe_pattern(const PatternInfo& pattern);

  const Coordinator& coordinator() const { return coord_; }
  Coordinator& coordinator() { return coord_; }
  /// Number of distinct strategies materialized so far.
  std::size_t plans_built() const { return cache_.size(); }

 private:
  PlanFactory factory_;
  Coordinator coord_;
  // unique_ptr values keep plan references stable across rehashing.
  std::unordered_map<std::uint64_t, std::unique_ptr<ec::EncodePlan>> cache_;
};

class DialgaCodec : public ec::Codec {
 public:
  DialgaCodec(std::size_t k, std::size_t m,
              ec::SimdWidth simd = ec::SimdWidth::kAvx512,
              Features features = Features::all(),
              Thresholds thresholds = Thresholds{});

  std::string name() const override { return "DIALGA"; }
  ec::CodeParams params() const override { return inner_.params(); }
  ec::SimdWidth simd() const override { return inner_.simd(); }

  void encode(std::size_t block_size, std::span<const std::byte* const> data,
              std::span<std::byte* const> parity) const override;
  bool decode(std::size_t block_size, std::span<std::byte* const> blocks,
              std::span<const std::size_t> erasures) const override;

  /// Static snapshot plans (initial strategy, before any sampling) —
  /// used when a caller needs a fixed plan; timed runs should prefer
  /// the adaptive providers below.
  ec::EncodePlan encode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost) const override;
  ec::EncodePlan decode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost,
                         std::span<const std::size_t> erasures) const override;

  /// Adaptive providers for timed runs.
  std::unique_ptr<DialgaPlanProvider> make_encode_provider(
      const PatternInfo& pattern, const simmem::SimConfig& cfg) const;
  std::unique_ptr<DialgaPlanProvider> make_decode_provider(
      const PatternInfo& pattern, const simmem::SimConfig& cfg,
      std::vector<std::size_t> erasures) const;

  const Features& features() const { return features_; }
  const Thresholds& thresholds() const { return thresholds_; }
  const ec::IsalCodec& inner() const { return inner_; }

  /// Strategy encode()/decode() run for this block size: the
  /// coordinator's initial strategy for the single-thread shape.
  /// Publishes no coordinator metrics.
  Strategy host_strategy(std::size_t block_size) const;

 private:
  ec::IsalCodec inner_;
  Features features_;
  Thresholds thresholds_;
};

}  // namespace dialga
