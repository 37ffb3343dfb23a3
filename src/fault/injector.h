// Deterministic fault injection for robustness testing: named sites in
// the shard/service/cluster layers ask a process-wide Injector
// whether this operation should fail, and plans installed per site
// decide — by every-nth counter, an explicit list of operation
// numbers, or a seeded pseudo-random probability. All three are
// reproducible: the decision for operation #n of a site is a pure
// function of (seed, site name, n), so a fixed seed replays the same
// fault schedule regardless of wall clock (thread interleavings may
// permute which caller draws which operation number, but the set of
// failed operation numbers is identical).
//
// With no plans installed every site check is one relaxed atomic load,
// so instrumented hot paths (service admission, codec batches) cost
// nothing in production.
//
// Site catalog (see docs/fault_injection.md):
//   shard.open        shard/manifest file open fails (errno)
//   shard.read        a segment pread fails after the open (errno)
//   shard.short_read  read stops short of the expected bytes
//   shard.write       durable shard/manifest write fails (errno)
//   svc.admission     service admission reports the queue full
//   svc.codec         codec batch execution throws InjectedFault
//   cluster.send      a cluster RPC fails on the sender side
//   cluster.recv      a cluster RPC fails on the receiver side
//
// Corruption sites (corrupt=bitflip|torn|zero plans; see
// docs/fault_injection.md for the catalogue): instead of an errno the
// plan mutates the payload in flight, so verify-on-read defenses are
// exercised. Distinct site names keep errno op-numbering untouched:
//   shard.read.corrupt   shard payload bytes mutated after a full read
//   cluster.recv.corrupt serialized RPC response bytes mutated pre-decode
//
// Per-node site prefixes: cluster call sites consult FireErrnoAt(node,
// site), which checks the node-scoped site "n<id>.<site>" first and
// falls back to the plain site, so a spec like
//   n3.cluster.recv:p=0.5;cluster.send:nth=7
// targets node 3's receive path specifically while the un-prefixed
// plan still covers every node. The spec parser treats the prefix as
// part of the site name — any "nN." prefix is valid for any site.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fault {

/// Payload mutators for corruption-mode plans. kNone keeps the plan an
/// errno plan (the default); anything else turns it into a data
/// corruptor consulted via fire_corruption() instead of fire().
enum class CorruptKind : std::uint8_t {
  kNone = 0,
  kBitFlip,    ///< flip one seeded bit
  kTorn,       ///< overwrite `span` bytes with seeded garbage
  kStaleZero,  ///< zero `span` bytes (stale / unwritten region)
};

/// When (and how) one site fails. Triggers combine with OR: the site
/// fires on operation #n if n is in `nth`, or n is a multiple of
/// `every`, or the seeded coin for n lands under `probability`.
struct SitePlan {
  double probability = 0.0;        ///< [0, 1]; seeded, per-operation
  std::vector<std::uint64_t> nth;  ///< 1-based operation numbers
  std::uint64_t every = 0;         ///< fire every Nth op; 0 = off
  std::uint64_t max_fires = ~std::uint64_t{0};  ///< stop after this many
  int error = EIO;  ///< errno delivered at I/O sites
  CorruptKind corrupt = CorruptKind::kNone;  ///< data-corruption mode
  std::uint32_t corrupt_span = 16;  ///< bytes mutated by torn/zero kinds
};

/// One fired corruption: the kind plus a seeded 64-bit token that fully
/// determines the mutation (offset, bit index, garbage stream), so a
/// corruption at (seed, site, op#) replays bit-identically.
struct Corruption {
  CorruptKind kind = CorruptKind::kNone;
  std::uint64_t token = 0;
  std::uint32_t span = 16;
};

/// Thread-safe per-site counters (snapshot).
struct SiteStats {
  std::uint64_t ops = 0;    ///< times the site was consulted
  std::uint64_t fires = 0;  ///< times it was told to fail
};

/// Thrown by MaybeThrow at compute sites (svc.codec) when the site
/// fires — exercises the consumer's exception path.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(const std::string& site, int err)
      : std::runtime_error("injected fault at " + site), error_(err) {}
  int error() const { return error_; }

 private:
  int error_ = 0;
};

class Injector {
 public:
  /// The process-wide instance every built-in site consults.
  static Injector& Global();

  /// Seed for the probability coin. Changing the seed does not reset
  /// operation counters; call clear() between schedules.
  void set_seed(std::uint64_t seed);
  std::uint64_t seed() const;

  /// Install (or replace) a site's plan; its counters restart at zero.
  void install(const std::string& site, SitePlan plan);
  void remove(const std::string& site);
  void clear();  ///< drop every plan and counter

  /// Install plans from a spec string:
  ///   seed=42;shard.read:p=0.01,err=EINTR;svc.admission:nth=2+5,max=3
  /// Returns false (and fills *error_out) on a malformed spec; plans
  /// parsed before the error are left installed.
  bool install_spec(const std::string& spec, std::string* error_out = nullptr);

  /// Install DIALGA_FAULT_PLAN / DIALGA_FAULT_SEED from the
  /// environment, if set. Returns false on a malformed plan.
  bool install_from_env(std::string* error_out = nullptr);

  /// Consult the site for one operation. Returns the errno to inject
  /// (nonzero) when the site fires, 0 otherwise. Thread-safe; each
  /// call advances the site's operation counter. A corruption-mode
  /// plan (corrupt != kNone) never yields an errno here — its ops
  /// still count, but only fire_corruption() can make it fire.
  int fire(const std::string& site);

  /// Consult the site for one operation as a *data corruptor*. Returns
  /// the mutation to apply when a corruption-mode plan fires, nullopt
  /// otherwise (including for errno-mode plans, whose ops still
  /// advance). The token is a pure function of (seed, site, op#).
  std::optional<Corruption> fire_corruption(const std::string& site);

  /// Canonical round-trippable dump of the installed schedule:
  /// "seed=N;site:key=value,..." with sites sorted by name — feeding it
  /// back to install_spec() reproduces the plan. Empty when no plans
  /// are installed.
  std::string describe() const;

  /// True when any plan is installed — the hot-path gate.
  bool active() const { return active_.load(std::memory_order_relaxed); }

  SiteStats stats(const std::string& site) const;
  std::vector<std::pair<std::string, SiteStats>> all_stats() const;

 private:
  struct Site {
    SitePlan plan;
    std::uint64_t ops = 0;
    std::uint64_t fires = 0;
  };

  mutable std::mutex mu_;
  std::uint64_t seed_ = 0;                      // guarded by mu_
  std::unordered_map<std::string, Site> sites_;  // guarded by mu_
  std::atomic<bool> active_{false};
};

/// RAII plan registration for tests: installs on construction, removes
/// the site (from the global injector) on destruction.
class ScopedPlan {
 public:
  ScopedPlan(std::string site, SitePlan plan) : site_(std::move(site)) {
    Injector::Global().install(site_, std::move(plan));
  }
  ~ScopedPlan() { Injector::Global().remove(site_); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

 private:
  std::string site_;
};

/// Site-check helpers over the global injector. All are a single
/// relaxed load when no plan is installed.
inline int FireErrno(const char* site) {
  Injector& in = Injector::Global();
  if (!in.active()) return 0;
  return in.fire(site);
}

inline bool Fires(const char* site) { return FireErrno(site) != 0; }

/// The node-scoped spelling of a site: "n<id>.<site>".
inline std::string NodeSite(std::uint32_t node, const char* site) {
  std::string s = "n";
  s += std::to_string(node);
  s += '.';
  s += site;
  return s;
}

/// Per-node site check: the node-scoped plan ("n<id>.<site>") is
/// consulted first, then the plain site, so node-targeted and global
/// chaos schedules compose. Still a single relaxed load when no plan
/// is installed anywhere.
inline int FireErrnoAt(std::uint32_t node, const char* site) {
  Injector& in = Injector::Global();
  if (!in.active()) return 0;
  if (const int err = in.fire(NodeSite(node, site)); err != 0) return err;
  return in.fire(site);
}

inline bool FiresAt(std::uint32_t node, const char* site) {
  return FireErrnoAt(node, site) != 0;
}

inline void MaybeThrow(const char* site) {
  if (const int err = FireErrno(site); err != 0) {
    throw InjectedFault(site, err);
  }
}

/// Apply a fired Corruption to a byte range. The token alone picks the
/// offset/bit/garbage, so replaying the same (seed, site, op#) against
/// the same-sized buffer mutates identical bytes. Returns true when at
/// least one byte changed (zeroing already-zero bytes is a no-op — the
/// data stays self-consistent and checksums still match, which is the
/// honest outcome for a stale-zero hit on a zero region).
bool ApplyCorruption(const Corruption& c, void* data, std::size_t n);

/// Corruption-site check over the global injector; single relaxed load
/// when no plan is installed.
inline std::optional<Corruption> FireCorruption(const char* site) {
  Injector& in = Injector::Global();
  if (!in.active()) return std::nullopt;
  return in.fire_corruption(site);
}

/// Node-scoped corruption check: "n<id>.<site>" first, then the plain
/// site, mirroring FireErrnoAt.
inline std::optional<Corruption> FireCorruptionAt(std::uint32_t node,
                                                  const char* site) {
  Injector& in = Injector::Global();
  if (!in.active()) return std::nullopt;
  if (auto c = in.fire_corruption(NodeSite(node, site))) return c;
  return in.fire_corruption(site);
}

/// Consult `site` and, if it fires, mutate [data, data+n). Returns true
/// when bytes actually changed.
inline bool MaybeCorrupt(const char* site, void* data, std::size_t n) {
  if (const auto c = FireCorruption(site)) {
    return ApplyCorruption(*c, data, n);
  }
  return false;
}

inline bool MaybeCorruptAt(std::uint32_t node, const char* site, void* data,
                           std::size_t n) {
  if (const auto c = FireCorruptionAt(node, site)) {
    return ApplyCorruption(*c, data, n);
  }
  return false;
}

}  // namespace fault
