// One storage node of the cluster tier: a checksummed chunk store
// (memory-resident, optionally persisted through the aio datapath)
// plus the node's own codecs. A node runs its codec on the thread that
// runs the RPC handler: encode and global decode are one direct call,
// with no queue or worker handoff in between. Its per-geometry codec
// cache is the per-node planner: plain RS geometries get the node's own
// DialgaCodec, so each node's prefetcher scheduling is its own (the
// POWER7 runtime-guided-reconfiguration argument: per-node planners,
// not one global setting).
//
// Nodes are placement-agnostic: every RPC that needs to reach peers
// (encode fan-out, local-group gathering) carries the stripe's
// placement table in the frame, so a node never holds cluster-wide
// state beyond its transport handle.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "ec/codec.h"
#include "integrity/checksum.h"

namespace cluster {

struct NodeConfig {
  NodeId id = 0;
  std::uint32_t domain = 0;
  /// Chunk persistence root; empty = memory-only. Chunks already on
  /// disk are loaded (and checksum-verified) at construction, so a
  /// node restarted over an existing directory serves its old chunks.
  std::filesystem::path data_dir;
};

class Node {
 public:
  /// Registers the node's RPC handler with `transport` (must outlive
  /// the node); the destructor unregisters it.
  Node(NodeConfig cfg, LoopbackTransport* transport);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return cfg_.id; }
  std::uint32_t domain() const { return cfg_.domain; }

  /// The RPC entry point (also what the transport invokes): returns 0
  /// and fills `*resp` — RPC-level failures are WireStatus values in
  /// the response, not errnos. Chunk payloads are moved out of `req`.
  int handle(Frame&& req, Frame* resp);

  // --- direct inspection / manipulation for tests and the CLI ---
  std::size_t chunk_count() const;
  bool has_chunk(std::uint64_t stripe, std::uint32_t shard) const;
  bool get_chunk(std::uint64_t stripe, std::uint32_t shard,
                 std::vector<std::byte>* out) const;
  /// Flip one byte of a stored chunk (memory and disk) — simulates bit
  /// rot for scrub tests. False when the chunk is absent.
  bool corrupt_chunk(std::uint64_t stripe, std::uint32_t shard);
  bool drop_chunk(std::uint64_t stripe, std::uint32_t shard);

 private:
  struct Chunk {
    std::vector<std::byte> bytes;
    std::uint64_t sum = 0;  ///< CRC-32C of `bytes`, zero-extended
  };
  using Key = std::pair<std::uint64_t, std::uint32_t>;

  Frame HandleStore(Frame&& req);
  Frame HandleRead(const Frame& req);
  Frame HandleEncode(Frame&& req);
  Frame HandleDegradedRead(const Frame& req);
  Frame HandleRepair(const Frame& req);
  Frame HandleHeartbeat(const Frame& req);

  /// Store locally (checksum + optional persist). False on persist
  /// failure (the memory copy is still installed).
  bool PutChunk(std::uint64_t stripe, std::uint32_t shard,
                std::vector<std::byte> bytes);
  /// kOk + bytes, kCorrupt, or kNotFound.
  WireStatus FetchChunk(std::uint64_t stripe, std::uint32_t shard,
                        std::vector<std::byte>* out) const;
  /// Fetch a shard from wherever the table says it lives: locally when
  /// this node is home, one kRead RPC otherwise.
  WireStatus FetchRemote(const Frame& ctx, std::uint32_t shard,
                         std::vector<std::byte>* out);

  /// Reconstruct one shard of a stripe: local-group XOR when the
  /// geometry has groups and every other member is reachable (scope
  /// set to 0), full decode over >= k survivors otherwise (scope 1).
  WireStatus Reconstruct(const Frame& ctx, std::uint32_t target,
                         std::vector<std::byte>* out, std::uint64_t* scope);

  const ec::Codec& CodecFor(const Geometry& geom);

  std::filesystem::path ChunkPath(std::uint64_t stripe,
                                  std::uint32_t shard) const;
  void LoadDir();
  bool PersistChunk(std::uint64_t stripe, std::uint32_t shard,
                    const Chunk& c) const;

  NodeConfig cfg_;
  LoopbackTransport* transport_;

  mutable std::mutex mu_;
  std::map<Key, Chunk> chunks_;  // guarded by mu_

  std::mutex codec_mu_;
  /// Per-geometry codec cache: DialgaCodec for plain RS (the node's
  /// own adaptive planner), LrcCodec when the geometry has groups.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::unique_ptr<const ec::Codec>>
      codecs_;
};

}  // namespace cluster
