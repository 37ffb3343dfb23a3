#include "dialga/selector.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "aio/datapath.h"
#include "dialga/registry.h"
#include "integrity/checksum.h"
#include "obs/metrics.h"

namespace dialga {
namespace {

struct SelectorMetrics {
  obs::Counter* fallbacks;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* flushes;
  obs::Counter* commits;

  SelectorMetrics() {
    auto& reg = obs::Registry::Global();
    fallbacks = &reg.counter("dialga_selector_fallbacks_total", {},
                             "Sampling windows with the plan cache on that "
                             "the ladder + hill climb decided (cache miss)");
    cache_hits = &reg.counter("dialga_plan_cache_hits_total", {},
                              "Plan-cache lookups that found a committed "
                              "strategy for the workload shape");
    cache_misses = &reg.counter("dialga_plan_cache_misses_total", {},
                                "Plan-cache lookups for a shape with no "
                                "committed strategy");
    flushes = &reg.counter("dialga_plan_cache_flushes_total", {},
                           "Successful plan-cache file writes");
    commits = &reg.counter("dialga_plan_cache_commits_total", {},
                           "Strategies committed to the plan cache");
  }
};

SelectorMetrics& Metrics() {
  static SelectorMetrics m;
  return m;
}

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void AppendU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t ReadU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t ReadU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string ExpandHome(const std::string& path) {
  if (path.empty() || path[0] != '~') return path;
  const char* home = std::getenv("HOME");
  if (home == nullptr || *home == '\0') return path;
  return std::string(home) + path.substr(1);
}

// Credited (non-cache) windows a shape accumulates before its
// best-observed strategy is auto-committed to the plan cache. The hill
// climb changes strategy every probe window, so the commit decision is
// evidence-based (best mean throughput), not streak-based.
constexpr std::uint32_t kCommitWindows = 8;
// Per-window decay on a shape's remembered peak throughput. A sticky
// all-time max would let one lucky window set a bar the steady state
// can never reach; decaying it keeps the eviction gate relative to the
// *recent* peak.
constexpr double kPeakDecay = 0.98;
// Consecutive strongly-below-peak windows under a cached strategy
// before the entry is evicted (the workload's optimum moved).
constexpr std::uint32_t kEvictStreak = 8;

}  // namespace

std::uint64_t ShapeKey(const PatternInfo& p) {
  const std::uint64_t bs_log =
      p.block_size > 0
          ? static_cast<std::uint64_t>(std::bit_width(p.block_size) - 1)
          : 0;
  std::uint64_t key =
      static_cast<std::uint64_t>(std::min<std::size_t>(p.k, 0xFFFF));
  key |= static_cast<std::uint64_t>(std::min<std::size_t>(p.m, 0xFF)) << 16;
  key |= (bs_log & 0x3F) << 24;
  key |= static_cast<std::uint64_t>(std::min<std::size_t>(p.nthreads, 63))
         << 30;
  return key;
}

SelectorOptions SelectorOptions::FromEnv(SelectorOptions base) {
  if (const char* path = std::getenv("DIALGA_PLAN_CACHE");
      path != nullptr && *path != '\0') {
    base.plan_cache_path = ExpandHome(path);
    base.enabled = true;
  }
  base.enabled = EnvFlag("DIALGA_SELECTOR", base.enabled);
  return base;
}

SelectorOptions SelectorOptions::FromEnv() { return FromEnv(SelectorOptions{}); }

// ---------------------------------------------------------------------------
// PlanCache

std::vector<std::uint8_t> PlanCache::serialize() const {
  std::vector<std::pair<std::uint64_t, Entry>> sorted(map_.begin(), map_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::uint8_t> out;
  out.reserve(16 + sorted.size() * 24 + 4);
  AppendU32(out, kMagic);
  AppendU32(out, kVersion);
  AppendU32(out, static_cast<std::uint32_t>(sorted.size()));
  AppendU32(out, 0);  // reserved
  for (const auto& [key, e] : sorted) {
    AppendU64(out, key);
    AppendU64(out, e.strategy_key);
    // Reward stored as fixed-point millis: deterministic bytes, no
    // float-bit-pattern portability concerns.
    const auto millis = static_cast<std::int64_t>(
        std::lround(std::clamp(e.reward, -1.0, 1.0) * 1000.0));
    AppendU64(out, static_cast<std::uint64_t>(millis));
  }
  AppendU32(out, integrity::Crc32c(out.data(), out.size()));
  return out;
}

bool PlanCache::deserialize(std::span<const std::uint8_t> bytes) {
  map_.clear();
  dirty_ = false;
  if (bytes.size() < 20) return false;
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t want = ReadU32(bytes.data() + body);
  if (integrity::Crc32c(bytes.data(), body) != want) return false;
  if (ReadU32(bytes.data()) != kMagic) return false;
  if (ReadU32(bytes.data() + 4) != kVersion) return false;
  const std::uint32_t count = ReadU32(bytes.data() + 8);
  if (body != 16 + static_cast<std::size_t>(count) * 24) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* p = bytes.data() + 16 + i * 24;
    Entry e;
    e.strategy_key = ReadU64(p + 8);
    e.reward =
        static_cast<double>(static_cast<std::int64_t>(ReadU64(p + 16))) / 1000.0;
    map_.emplace(ReadU64(p), e);
  }
  return true;
}

bool PlanCache::load_from(const std::string& path, bool warn) {
  std::vector<std::byte> raw;
  const aio::IoStatus st = aio::ReadFileFull(path, &raw);
  if (st.ok() &&
      deserialize({reinterpret_cast<const std::uint8_t*>(raw.data()),
                   raw.size()})) {
    return true;
  }
  map_.clear();
  dirty_ = false;
  // Missing is normal on first run; a present-but-unusable file is
  // worth a line — it will be rebuilt from scratch.
  if (warn && st.ok()) {
    std::fprintf(stderr,
                 "dialga: plan cache '%s' is corrupt or version-skewed; "
                 "ignoring and rebuilding\n",
                 path.c_str());
  } else if (warn && st.err != ENOENT) {
    std::fprintf(stderr,
                 "dialga: plan cache '%s' is unreadable (%s: %s); ignoring "
                 "and rebuilding\n",
                 path.c_str(), st.detail.c_str(), std::strerror(st.err));
  }
  return false;
}

bool PlanCache::flush(const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize();
  // A few hundred bytes: the plain syscall backend, never a ring.
  aio::Transfer xfer(aio::Backend::kStdio);
  if (!aio::WriteFileDurable(xfer, path, std::as_bytes(std::span(bytes)))
           .ok()) {
    return false;
  }
  dirty_ = false;
  Metrics().flushes->inc();
  return true;
}

const PlanCache::Entry* PlanCache::lookup(std::uint64_t shape_key) const {
  auto it = map_.find(shape_key);
  if (it == map_.end()) {
    Metrics().cache_misses->inc();
    return nullptr;
  }
  Metrics().cache_hits->inc();
  return &it->second;
}

void PlanCache::insert(std::uint64_t shape_key, const Entry& e) {
  auto it = map_.find(shape_key);
  if (it != map_.end() && it->second.strategy_key == e.strategy_key &&
      it->second.reward == e.reward) {
    return;
  }
  map_[shape_key] = e;
  dirty_ = true;
}

void PlanCache::erase(std::uint64_t shape_key) {
  if (map_.erase(shape_key) > 0) dirty_ = true;
}

// ---------------------------------------------------------------------------
// StrategySelector

StrategySelector::StrategySelector(SelectorOptions opts)
    : opts_(std::move(opts)) {
  if (!opts_.plan_cache_path.empty()) {
    cache_.load_warn_if_corrupt(opts_.plan_cache_path);
  }
  last_flush_ns_ = opts_.time.now_ns ? opts_.time.now_ns() : 0;
}

StrategySelector::~StrategySelector() { flush(); }

std::optional<Strategy> StrategySelector::decide(const PatternInfo& pattern) {
  if (!opts_.enabled) return std::nullopt;
  has_pending_ = true;
  pending_pattern_ = pattern;
  pending_strategy_ = Strategy{};  // set by note_applied

  // A committed strategy for this shape replays verbatim — a warm
  // process never re-searches a known workload.
  if (const PlanCache::Entry* e = cache_.lookup(ShapeKey(pattern));
      e != nullptr) {
    ++stats_.cache_hits;
    pending_from_cache_ = true;
    pending_strategy_ = Strategy::from_key(e->strategy_key);
    return pending_strategy_;
  }
  // Otherwise the ladder + hill climb run this window; its realized
  // strategy (via note_applied) is what the window's throughput counts
  // for.
  ++stats_.cache_misses;
  ++stats_.fallbacks;
  Metrics().fallbacks->inc();
  pending_from_cache_ = false;
  return std::nullopt;
}

void StrategySelector::note_applied(const Strategy& realized) {
  if (has_pending_) pending_strategy_ = realized;
}

void StrategySelector::credit(double window_gbps) {
  if (!has_pending_) return;
  has_pending_ = false;
  if (window_gbps <= 0.0) return;

  const std::uint64_t shape = ShapeKey(pending_pattern_);
  // The first window after a shape switch straddles the phase
  // boundary: its throughput measures a mixture of the old and new
  // workloads. Accumulating commit evidence on it would poison the
  // shape's record, so the episode is dropped.
  if (has_last_credit_shape_ && shape != last_credit_shape_) {
    last_credit_shape_ = shape;
    return;
  }
  has_last_credit_shape_ = true;
  last_credit_shape_ = shape;

  double& peak = peak_gbps_[shape];
  peak = std::max(window_gbps, peak * kPeakDecay);
  if (!opts_.learn) return;

  if (pending_from_cache_) {
    // Reward: throughput relative to the best recent window this shape
    // has produced, mapped to [-1, 1]. Evict a cached plan that stays
    // badly below the shape's peak — the workload behind this shape
    // changed and the entry is toxic.
    const double r = std::clamp(
        2.0 * (window_gbps / std::max(peak, 1e-12)) - 1.0, -1.0, 1.0);
    if (r < -0.5) {
      if (++cache_bad_streak_ >= kEvictStreak) {
        cache_.erase(shape);
        cache_bad_streak_ = 0;
      }
    } else {
      cache_bad_streak_ = 0;
    }
    return;
  }
  cache_bad_streak_ = 0;

  // Auto-commit: once a shape has accumulated kCommitWindows credited
  // windows, its best-observed strategy (by mean throughput) is the
  // converged plan. Only strategies observed at least twice qualify —
  // a single window can be a startup or noise outlier measured far
  // from its steady state; if nothing has repeated yet, the commit
  // waits for the next evidence batch.
  ShapeEvidence& ev = evidence_[shape];
  StrategyRecord& rec = ev.by_strategy[pending_strategy_.key()];
  ++rec.count;
  rec.mean_gbps += (window_gbps - rec.mean_gbps) / rec.count;
  if (++ev.windows % kCommitWindows == 0) {
    std::uint64_t best_key = 0;
    double best_mean = 0.0;
    bool have = false;
    for (const auto& [key, sr] : ev.by_strategy) {
      if (sr.count < 2) continue;
      if (!have || sr.mean_gbps > best_mean) {
        best_key = key;
        best_mean = sr.mean_gbps;
        have = true;
      }
    }
    if (have) commit(pending_pattern_, Strategy::from_key(best_key));
  }
}

void StrategySelector::commit(const PatternInfo& pattern,
                              const Strategy& converged) {
  if (!opts_.enabled || !opts_.learn) return;
  const std::uint64_t shape = ShapeKey(pattern);
  PlanCache::Entry e;
  e.strategy_key = converged.key();
  const auto it = peak_gbps_.find(shape);
  e.reward = it != peak_gbps_.end() && it->second > 0.0 ? 1.0 : 0.0;
  const std::size_t before = cache_.size();
  const bool was_dirty = cache_.dirty();
  cache_.insert(shape, e);
  if (cache_.size() != before || (cache_.dirty() && !was_dirty)) {
    ++stats_.commits;
    Metrics().commits->inc();
  }
}

void StrategySelector::maybe_flush() {
  if (opts_.plan_cache_path.empty() || !cache_.dirty() || !opts_.learn) return;
  const std::uint64_t now = opts_.time.now_ns ? opts_.time.now_ns() : 0;
  if (now - last_flush_ns_ < opts_.flush_period_ns) return;
  last_flush_ns_ = now;
  if (cache_.flush(opts_.plan_cache_path)) ++stats_.flushes;
}

void StrategySelector::flush() {
  if (opts_.plan_cache_path.empty() || !cache_.dirty() || !opts_.learn) return;
  if (cache_.flush(opts_.plan_cache_path)) ++stats_.flushes;
}

void TouchSelectorMetrics() { (void)Metrics(); }

}  // namespace dialga
