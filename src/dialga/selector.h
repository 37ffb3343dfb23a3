// Persistent plan cache in front of the coordinator's section 4.1
// ladder + hill climb.
//
// The hill climb searches the software-prefetch distance afresh every
// time a workload shape appears. The plan cache remembers what each
// shape settled on, so a warm process replays it on the first window
// instead of searching again:
//
//  * StrategySelector — the plan-cache learner a live Coordinator
//    consults once per sampling window. decide() answers with the
//    committed Strategy for the window's shape (a hit, replayed through
//    ReplayStrategy), or with nothing, and the ladder + hill climb
//    decide the window. Every window's throughput is credited to the
//    strategy that ran it: searched windows accumulate per-shape
//    evidence whose best repeated strategy is committed, and cached
//    windows that stay far below the shape's recent peak evict the
//    entry.
//  * PlanCache — the persistent ShapeKey -> Strategy store. Versioned +
//    CRC-32C checksummed file (SelectorOptions::plan_cache_path or
//    DIALGA_PLAN_CACHE), written durably through the aio datapath; a
//    corrupt or version-skewed file is ignored and rebuilt.
//
// Determinism: decisions are pure functions of (plan-cache state, the
// pattern/throughput sequence). The injected VirtualTime only paces
// cache flushes, never decisions, so tests and the --phase-shift bench
// replay bit-identically.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dialga/policy.h"

namespace dialga {

/// Injectable clock + sleep pair — the cluster::VirtualTime idiom
/// (src/cluster/token_bucket.h) extended into dialga so plan-cache
/// tests drive the periodic flush in manual time. Real() is the steady
/// clock; Manual(&t) reads a counter whose sleep advances it.
struct VirtualTime {
  std::function<std::uint64_t()> now_ns;
  std::function<void(std::uint64_t)> sleep_ns;

  static VirtualTime Real() {
    return {
        [] {
          return static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count());
        },
        [](std::uint64_t ns) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
        }};
  }

  static VirtualTime Manual(std::uint64_t* t) {
    return {[t] { return *t; }, [t](std::uint64_t ns) { *t += ns; }};
  }
};

/// Plan-cache key of a workload shape: k, m, log2 block size and thread
/// count, packed. Its values are pinned by the tests — changing them
/// orphans every cache file already written.
std::uint64_t ShapeKey(const PatternInfo& pattern);

/// Plan-cache knobs. Disabled by default: a Coordinator built without
/// options runs the ladder + hill climb alone.
struct SelectorOptions {
  bool enabled = false;
  /// false freezes the plan cache (replay only — no commits, no
  /// evictions, no cache writes).
  bool learn = true;
  /// Persistent plan-cache file; empty = in-memory only. Loaded at
  /// construction (corrupt -> ignored and rebuilt), flushed on
  /// destruction and every flush_period_ns of injected time.
  std::string plan_cache_path;
  std::uint64_t flush_period_ns = 30'000'000'000ull;
  VirtualTime time = VirtualTime::Real();

  /// Environment overrides (a malformed flag warns on stderr and keeps
  /// the default):
  ///   DIALGA_PLAN_CACHE  cache path (non-empty enables the selector;
  ///                      "~" prefix expands to $HOME)
  ///   DIALGA_SELECTOR    on/off master switch
  static SelectorOptions FromEnv(SelectorOptions base);
  static SelectorOptions FromEnv();
};

/// Per-instance mirror of the dialga_selector_* / dialga_plan_cache_*
/// registry families, for tests and the --phase-shift bench.
struct SelectorStats {
  std::uint64_t fallbacks = 0;  ///< windows left to the ladder + hill climb
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t commits = 0;    ///< strategies committed to the cache
  std::uint64_t flushes = 0;    ///< successful cache file writes
};

/// Persistent ShapeKey -> converged-Strategy store. File format
/// (little-endian):
///   u32 magic 'DPLC'  u32 version  u32 count  u32 reserved
///   count x { u64 shape_key, u64 strategy_key, u64 reward_millis }
///   u32 CRC-32C over everything above
/// Entries are serialized in ascending shape_key order so identical
/// contents produce identical bytes. Any mismatch (magic, version,
/// size, checksum) makes load() return false with the cache left
/// empty — corrupt caches are rebuilt, never trusted.
class PlanCache {
 public:
  struct Entry {
    std::uint64_t strategy_key = 0;
    /// Best reward observed under this entry, in [-1, 1] (stored for
    /// introspection; not used by decide()).
    double reward = 0.0;
  };

  static constexpr std::uint32_t kMagic = 0x434C5044u;  // "DPLC"
  static constexpr std::uint32_t kVersion = 1;

  /// Replace contents from `path`. False (and an empty cache) when the
  /// file is missing, unreadable, truncated, version-skewed or
  /// checksum-corrupt.
  bool load(const std::string& path) { return load_from(path, false); }
  /// load(), but a present-yet-unusable file gets one stderr line
  /// (missing is normal on first run and stays silent).
  bool load_warn_if_corrupt(const std::string& path) {
    return load_from(path, true);
  }
  /// Durably persist to `path` (temp, fsync, rename, directory fsync);
  /// clears the dirty flag and counts a dialga_plan_cache_flushes_total
  /// on success.
  bool flush(const std::string& path);

  /// Counts dialga_plan_cache_{hits,misses}_total.
  const Entry* lookup(std::uint64_t shape_key) const;
  void insert(std::uint64_t shape_key, const Entry& e);
  void erase(std::uint64_t shape_key);

  std::size_t size() const { return map_.size(); }
  bool dirty() const { return dirty_; }

  std::vector<std::uint8_t> serialize() const;
  bool deserialize(std::span<const std::uint8_t> bytes);

 private:
  bool load_from(const std::string& path, bool warn);

  std::unordered_map<std::uint64_t, Entry> map_;
  bool dirty_ = false;
};

class StrategySelector {
 public:
  explicit StrategySelector(SelectorOptions opts);
  ~StrategySelector();  ///< graceful-shutdown flush

  StrategySelector(const StrategySelector&) = delete;
  StrategySelector& operator=(const StrategySelector&) = delete;

  /// Decide the next window: the committed strategy for `pattern`'s
  /// shape on a plan-cache hit; nothing on a miss (counted as a
  /// fallback), which leaves the window to the ladder + hill climb.
  std::optional<Strategy> decide(const PatternInfo& pattern);

  /// Tell the selector what strategy actually ran the window just
  /// decided (after the coordinator realized/shaped it) — the strategy
  /// its throughput is credited to.
  void note_applied(const Strategy& realized);

  /// Observed throughput of the pending window. Updates the shape's
  /// recent peak, accumulates the per-shape commit evidence (the
  /// shape's best repeated strategy is committed once enough windows
  /// are credited), and evicts cache entries that stay badly below
  /// peak. The first window after a shape switch is dropped: it
  /// straddles the phase boundary and measures a mixture of the old
  /// and new workloads.
  void credit(double window_gbps);

  /// Commit a converged strategy for `pattern`'s shape to the plan
  /// cache (a finished hill climb). No-op when learning is frozen or
  /// the cache already holds this exact strategy.
  void commit(const PatternInfo& pattern, const Strategy& converged);

  /// Flush the plan cache if dirty and flush_period_ns of injected
  /// time has passed since the last flush.
  void maybe_flush();
  /// Unconditional flush (graceful shutdown); no-op without a path or
  /// when clean.
  void flush();

  const SelectorStats& stats() const { return stats_; }
  const SelectorOptions& options() const { return opts_; }
  const PlanCache& plan_cache() const { return cache_; }
  PlanCache& plan_cache() { return cache_; }

 private:
  SelectorOptions opts_;
  PlanCache cache_;
  SelectorStats stats_;

  /// Recent-best window throughput per shape (decaying max) — the
  /// reward reference.
  std::unordered_map<std::uint64_t, double> peak_gbps_;

  // Pending episode: the decision awaiting its throughput.
  bool has_pending_ = false;
  PatternInfo pending_pattern_{};
  bool pending_from_cache_ = false;
  Strategy pending_strategy_{};

  /// Per-(shape, realized strategy) empirical throughput: the
  /// auto-commit evidence. The hill climb changes strategy every probe
  /// window, so commit cannot wait for a stable streak of one strategy
  /// — instead each shape commits its best-observed strategy once
  /// enough windows are credited.
  struct StrategyRecord {
    std::uint32_t count = 0;
    double mean_gbps = 0.0;
  };
  struct ShapeEvidence {
    std::uint32_t windows = 0;  ///< credited non-cache windows
    std::unordered_map<std::uint64_t, StrategyRecord> by_strategy;
  };
  std::unordered_map<std::uint64_t, ShapeEvidence> evidence_;

  // Boundary-window detection + bad-streak cache eviction state.
  bool has_last_credit_shape_ = false;
  std::uint64_t last_credit_shape_ = 0;
  std::uint32_t cache_bad_streak_ = 0;

  std::uint64_t last_flush_ns_ = 0;
};

/// Eagerly register the dialga_selector_* / dialga_plan_cache_*
/// families (at zero) so a metrics scrape sees them even when the plan
/// cache never engages. Called from the Coordinator and DialgaCodec
/// constructors.
void TouchSelectorMetrics();

}  // namespace dialga
