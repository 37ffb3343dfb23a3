// In-process cluster harness: N cluster::Node instances over one
// deterministic LoopbackTransport plus a Coordinator wired to them —
// the fixture the chaos suite, the CLI's --cluster-nodes mode and
// dialga_bench's cluster_rw workload all stand on. kill/revive/
// partition/heal forward to the transport so a seeded chaos schedule
// drives real RPC paths. Building a cluster starts no thread: every
// RPC, and the codec call a node makes for it, runs on the caller's
// thread, and each node's own codec cache is its per-node planner.
//
// ClusterManifest makes the CLI's cluster durable across process
// invocations: a small key=value file next to the node directories
// records the membership and geometry, so `eccli decode` in a fresh
// process rebuilds the identical placement the `eccli encode` process
// used.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/transport.h"

namespace cluster {

struct LocalClusterConfig {
  std::size_t nodes = 4;
  /// Failure domains to spread the nodes over (round-robin); 0 = one
  /// domain per node.
  std::size_t domains = 0;
  Geometry geom;
  /// When set, node i persists its chunks under data_root/n<i>.
  std::filesystem::path data_root;
  double scrub_rate_bps = 0.0;
  double rebuild_rate_bps = 0.0;
  double rate_burst_bytes = 0.0;
  svc::RetryPolicy store_retry{.max_retries = 2};
  VirtualTime time = VirtualTime::Real();
  /// Has no effect: nodes run their codecs on the RPC's thread and
  /// start no workers. Kept only so existing callers that set it still
  /// build; it goes once they stop.
  std::size_t service_threads = 2;
};

class LocalCluster {
 public:
  explicit LocalCluster(LocalClusterConfig cfg);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  Coordinator& coordinator() { return *coordinator_; }
  LoopbackTransport& transport() { return transport_; }
  Placement& placement() { return placement_; }
  std::size_t size() const { return nodes_.size(); }
  /// Node by position (ids are 1-based on the wire: node(i).id()==i+1).
  Node& node(std::size_t i) { return *nodes_[i]; }

  /// Chaos controls: kill stops a node answering (its chunks survive
  /// in memory/on disk and come back on revive); partition severs the
  /// links between the two groups (node positions); heal clears
  /// partitions only.
  void kill(std::size_t i) { transport_.set_down(id_of(i), true); }
  void revive(std::size_t i) { transport_.set_down(id_of(i), false); }
  void partition(const std::vector<std::size_t>& a,
                 const std::vector<std::size_t>& b);
  void heal() { transport_.heal(); }

  static NodeId id_of(std::size_t i) {
    return static_cast<NodeId>(i + 1);
  }

 private:
  LocalClusterConfig cfg_;
  LoopbackTransport transport_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Placement placement_;
  std::unique_ptr<Coordinator> coordinator_;
};

/// The CLI's durable cluster descriptor — membership, geometry and the
/// stripes written so far, as `key value` lines. Parsing is hardened
/// the same way the wire codec is: unknown keys are ignored, malformed
/// values fail the parse instead of faulting.
struct ClusterManifest {
  std::size_t nodes = 0;
  std::size_t domains = 0;
  Geometry geom;
  /// Original byte length of the encoded file (the last stripe is
  /// zero-padded up to k * block_size).
  std::uint64_t file_size = 0;
  std::vector<std::uint64_t> stripes;

  std::string serialize() const;
  static bool parse(const std::string& text, ClusterManifest* out);

  bool save(const std::filesystem::path& path) const;
  static bool load(const std::filesystem::path& path, ClusterManifest* out);
};

}  // namespace cluster
