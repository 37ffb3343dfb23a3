// pmpool — an erasure-coded object pool on (simulated) persistent
// memory: the application layer the paper's introduction motivates
// (NOVA-Fortis / Pangolin-style software redundancy for PM).
//
// Objects are striped RS(k, m) across k+m PM regions with per-block
// checksums. Reads verify-on-read by default: every consumed block's
// checksum is checked, a mismatch transparently reconstructs the bad
// blocks from the stripe's survivors and reseats them in place, and a
// stripe that keeps failing past the heal-retry cap is quarantined —
// get() on it reports damage (nullopt) instead of ever returning
// corrupt bytes as clean. A scrub pass verifies every block, repairs
// stripe-wise, and lifts quarantine from stripes it fully heals.
// Small overwrites go through the delta-update engine (ec/update.h) so
// parity maintenance touches only the affected lines.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dialga/dialga.h"
#include "ec/update.h"
#include "simmem/address_space.h"

namespace pmpool {

struct PoolConfig {
  std::size_t k = 8;
  std::size_t m = 3;
  std::size_t block_size = 1024;

  /// Verify consumed blocks on every get() (see header note). Turning
  /// it off restores the old unverified fast path — the bench
  /// integrity series measures the delta; keep it on in production.
  bool verify_on_read = true;
  /// Failed heals a stripe survives before it is quarantined.
  std::size_t heal_retry_cap = 3;

  std::size_t stripe_payload() const { return k * block_size; }
};

struct ScrubReport {
  std::size_t blocks_checked = 0;
  std::size_t blocks_damaged = 0;
  std::size_t blocks_repaired = 0;
  std::size_t objects_lost = 0;  ///< stripes beyond m damaged blocks
  std::size_t stripes_unquarantined = 0;  ///< quarantines lifted this pass
  bool clean() const { return blocks_damaged == blocks_repaired; }
};

struct PoolStats {
  std::size_t objects = 0;
  std::size_t stripes = 0;
  std::size_t payload_bytes = 0;   ///< user bytes stored
  std::size_t pm_bytes = 0;        ///< raw PM reserved (data + parity)
  double storage_overhead() const {
    return payload_bytes == 0
               ? 0.0
               : static_cast<double>(pm_bytes) /
                     static_cast<double>(payload_bytes);
  }
};

/// Not thread-safe: guard concurrent access externally (the functional
/// codecs themselves are safe for concurrent use on distinct buffers —
/// see ec/parallel.h).
class Pool {
 public:
  using ObjectId = std::uint64_t;

  /// Sentinel returned by put() when stripe allocation fails (today
  /// only under injected `pmpool.alloc` faults); get() on it yields
  /// nullopt. Prefer try_put() where failure matters.
  static constexpr ObjectId kPutFailed = ~ObjectId{0};

  explicit Pool(const PoolConfig& cfg = {});

  /// Store an object; returns its id, or kPutFailed if a stripe
  /// allocation failed. Objects spanning multiple stripes are split at
  /// stripe-payload boundaries.
  ObjectId put(std::span<const std::byte> value);

  /// Store an object, reporting allocation failure as nullopt. A
  /// failed put is all-or-nothing: stripes already carved for the
  /// object are released, so a later scrub never sees half an object.
  std::optional<ObjectId> try_put(std::span<const std::byte> value);

  /// Read an object back. With cfg.verify_on_read (default) every
  /// consumed block is checksum-verified; mismatches heal in place
  /// from the stripe's survivors, and an unhealable or quarantined
  /// stripe yields nullopt — corrupt bytes are never returned as
  /// clean. Logically const: healing restores sealed state.
  std::optional<std::vector<std::byte>> get(ObjectId id) const;

  /// Overwrite `bytes` at `offset` within the object, updating parity
  /// via delta updates (touched lines only). Cannot grow the object.
  bool update(ObjectId id, std::size_t offset,
              std::span<const std::byte> bytes);

  /// Verify every block checksum; repair damaged blocks stripe-wise.
  ScrubReport scrub();

  PoolStats stats() const;
  const PoolConfig& config() const { return cfg_; }

  /// Stripes currently quarantined (heal failures past the cap).
  std::size_t quarantined_stripes() const;

  /// Fault injection for tests/demos: flip one bit of a stored block.
  /// `block` indexes the stripe's k+m blocks.
  void inject_fault(ObjectId id, std::size_t stripe_of_object,
                    std::size_t block, std::size_t byte_offset);

 private:
  struct Stripe {
    std::vector<simmem::Region> blocks;          // k + m, host-backed
    std::vector<std::uint64_t> checksums;        // k + m
    std::size_t heal_attempts = 0;  ///< consecutive failed heals
    bool quarantined = false;
  };
  struct Object {
    std::vector<std::size_t> stripes;  // indices into stripes_
    std::size_t size = 0;
  };

  /// nullopt when allocation fails (injected `pmpool.alloc` fault).
  std::optional<std::size_t> new_stripe();
  void encode_stripe(Stripe& s);
  void reseal(Stripe& s);  // recompute checksums after a data change
  std::uint64_t seal(const Stripe& s, std::size_t block) const;
  /// Verify all k+m blocks, reconstruct the bad ones in place, and
  /// confirm against the seals. On failure bumps heal_attempts and
  /// quarantines past the cap. True when the stripe ends verified-clean.
  bool heal_stripe(Stripe& s) const;

  PoolConfig cfg_;
  dialga::DialgaCodec codec_;
  ec::UpdateEngine updater_;
  simmem::AddressSpace space_;
  // Mutable: get() is logically const but heals corrupt blocks back to
  // their sealed bytes (and tracks quarantine state) as it reads.
  mutable std::vector<Stripe> stripes_;
  std::vector<Object> objects_;
};

}  // namespace pmpool
