// Client-facing routing and repair orchestration for the cluster tier.
//
// The coordinator owns the Placement, routes writes to a primary node
// (which computes parity with its own cached codec on the RPC's thread
// — each node's codec cache is its per-node planner — and fans chunks
// out to their homes), serves reads — degraded reads go to the target's
// LRC local group FIRST and only fall back to a global reconstruction
// when the group cannot help — and runs the scrub/rebuild
// orchestrator: background integrity passes and membership-change
// rebalancing whose traffic is capped by per-class token buckets
// (scrub vs rebuild), so repair never starves foreground I/O.
//
// An acknowledged write (OpResult::ok()) means every one of the
// stripe's k+global+local chunks reached its home node — the
// durability contract the chaos suite's zero-data-loss invariant
// leans on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/placement.h"
#include "cluster/token_bucket.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "ec/codec.h"
#include "svc/retry.h"

namespace cluster {

struct CoordinatorConfig {
  Geometry geom;
  /// Per-class repair bandwidth caps in bytes/second; 0 = unlimited.
  /// Scrub covers verification reads, rebuild covers reconstruction
  /// and rebalance movement.
  double scrub_rate_bps = 0.0;
  double rebuild_rate_bps = 0.0;
  /// Token-bucket burst; 0 = one second of the class rate.
  double rate_burst_bytes = 0.0;
  /// Bounded backoff for retrying failed chunk stores on the write
  /// path (the coordinator re-sends the chunks the primary could not
  /// place before acknowledging).
  svc::RetryPolicy store_retry{.max_retries = 2};
  /// Injectable clock/sleep (tests pin it to virtual time so the
  /// bandwidth invariant is checked deterministically).
  VirtualTime time = VirtualTime::Real();
  /// After a degraded read caused by a missing/corrupt chunk whose
  /// home is up, write the reconstructed chunk back in place so the
  /// next read is healthy again (read-repair).
  bool read_repair = true;
  /// Failed read-repairs a stripe survives before its automatic heal
  /// write-backs stop (reads still serve degraded; scrub_pass
  /// rehabilitates and lifts the quarantine).
  std::size_t heal_retry_cap = 3;
};

struct OpResult {
  enum class Code {
    kOk = 0,
    kDegraded,    ///< served, but reconstruction was needed
    kQuorumLoss,  ///< fewer than k survivors — data unreachable
    kTransport,   ///< delivery failure after retries
    kInvalid,
  };
  Code code = Code::kOk;
  std::string detail;

  /// Both kOk and kDegraded delivered correct bytes.
  bool ok() const { return code == Code::kOk || code == Code::kDegraded; }
};

const char* to_string(OpResult::Code c);

struct HeartbeatReport {
  std::vector<NodeId> up;
  std::vector<NodeId> down;
};

struct ScrubReport {
  std::size_t stripes = 0;
  std::size_t chunks_checked = 0;
  std::size_t corrupt = 0;       ///< present but failed its checksum
  std::size_t repaired = 0;
  std::size_t unreachable = 0;   ///< homes down — left for rebuild
  std::size_t unrecoverable = 0; ///< < k survivors; named, not hidden
  std::size_t stripes_unquarantined = 0;  ///< quarantines lifted this pass
  std::uint64_t throttle_waits = 0;
};

struct RebalanceReport {
  std::size_t moved = 0;    ///< chunks copied from a live old home
  std::size_t rebuilt = 0;  ///< chunks reconstructed from survivors
  std::size_t failed = 0;
  std::uint64_t throttle_waits = 0;
};

class Coordinator {
 public:
  /// `placement` and `transport` must outlive the coordinator.
  Coordinator(CoordinatorConfig cfg, Placement* placement,
              LoopbackTransport* transport);

  const Geometry& geom() const { return cfg_.geom; }

  /// Write one stripe (k data blocks of geom.block_size). On kOk every
  /// chunk reached its home and the stripe is tracked for scrub/
  /// rebuild. Anything else is NOT acknowledged.
  OpResult write_stripe(std::uint64_t stripe,
                        std::span<const std::byte* const> data);

  /// Read one shard's chunk. Healthy path is a single RPC to the home
  /// node; a miss goes degraded: local LRC group first (one
  /// kDegradedRead to a surviving group member), global reconstruction
  /// at the coordinator only after that.
  OpResult read_block(std::uint64_t stripe, std::uint32_t shard,
                      std::vector<std::byte>* out);

  /// Read the stripe's k data blocks into caller buffers.
  OpResult read_stripe(std::uint64_t stripe,
                       std::span<std::byte* const> out);

  /// Track a stripe written by an earlier process over the same node
  /// directories (the CLI's decode/repair path).
  void track(std::uint64_t stripe);
  std::size_t tracked() const;

  /// Ping every placement member; nodes that miss are marked down
  /// (routing skips them) until a later heartbeat sees them again.
  HeartbeatReport heartbeat();

  /// One scrub pass over every tracked stripe: read-verify each chunk
  /// (scrub-bucket throttled) and repair missing/corrupt chunks whose
  /// home is up (rebuild-bucket throttled, local-group repair
  /// preferred).
  ScrubReport scrub_pass();

  /// Remove a node from membership and re-home the minimal chunk set:
  /// chunks whose home moved are copied from the (live) old home, and
  /// chunks the dead node held are reconstructed — all through the
  /// rebuild bucket.
  RebalanceReport remove_node(NodeId dead);
  /// Add a node and copy the chunks whose home moved onto it.
  RebalanceReport add_node(const NodeInfo& node);

  const TokenBucket& scrub_bucket() const { return scrub_bucket_; }
  const TokenBucket& rebuild_bucket() const { return rebuild_bucket_; }

  /// Stripes whose read-repair write-backs failed past the cap and are
  /// waiting for a scrub pass to rehabilitate them.
  std::size_t quarantined_stripes() const;

  /// Toggle read-repair write-backs at runtime. Report-only readers
  /// (eccli verify without --heal) turn this off so observing a store
  /// never mutates it.
  void set_read_repair(bool on) { cfg_.read_repair = on; }

 private:
  enum class RepairKind { kScrub, kRebuild };

  int Call(NodeId to, const Frame& req, Frame* resp);
  bool NodeUp(NodeId id) const;
  /// Fetch one chunk from its home (no reconstruction).
  WireStatus FetchChunk(std::uint64_t stripe, std::uint32_t shard,
                        const std::vector<NodeId>& table,
                        std::vector<std::byte>* out);
  /// Degraded read: group member first, then global. Fills *out and
  /// reports which scope served it.
  OpResult DegradedRead(std::uint64_t stripe, std::uint32_t shard,
                        const std::vector<NodeId>& table,
                        std::vector<std::byte>* out);
  /// Global reconstruction at the coordinator (gather >= k, decode).
  OpResult GlobalReconstruct(std::uint64_t stripe, std::uint32_t shard,
                             const std::vector<NodeId>& table,
                             std::vector<std::byte>* out);
  /// Reconstruct-and-store one chunk to `dest` via a surviving group
  /// member (kRepair RPC) or the coordinator's global path.
  bool RepairChunk(std::uint64_t stripe, std::uint32_t shard,
                   const std::vector<NodeId>& table, NodeId dest,
                   RepairKind kind);
  bool StoreChunk(std::uint64_t stripe, std::uint32_t shard, NodeId dest,
                  std::vector<std::byte> bytes);
  /// Read-repair after a degraded read: store the reconstructed chunk
  /// back to its (up) home. Failures count toward the stripe's heal
  /// cap; past it the stripe is quarantined and write-backs stop.
  void MaybeReadRepair(std::uint64_t stripe, std::uint32_t shard,
                       const std::vector<NodeId>& table,
                       const std::vector<std::byte>& bytes);
  RebalanceReport Rebalance(
      const std::vector<std::pair<std::uint64_t, std::vector<NodeId>>>&
          old_tables);
  const ec::Codec& CodecFor(const Geometry& geom);

  CoordinatorConfig cfg_;
  Placement* placement_;
  LoopbackTransport* transport_;
  TokenBucket scrub_bucket_;
  TokenBucket rebuild_bucket_;

  mutable std::mutex mu_;
  std::set<std::uint64_t> acked_;  // guarded by mu_
  std::set<NodeId> down_;          // guarded by mu_
  std::map<std::uint64_t, std::size_t> heal_attempts_;  // guarded by mu_
  std::set<std::uint64_t> quarantined_;                 // guarded by mu_

  std::mutex codec_mu_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::unique_ptr<const ec::Codec>>
      codecs_;
};

}  // namespace cluster
