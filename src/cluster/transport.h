// The cluster tier's message transport: in-process, deterministic, and
// fault-injectable.
//
// LoopbackTransport::call is a synchronous RPC: the request frame is
// serialized, delivered to the destination node, and the response
// frame comes back — or an errno explains why not. Every call runs
// through the real wire codec (serialize -> parse on both legs, so the
// RPC paths exercise the exact byte format the frames define),
// consults the cluster.send / cluster.recv fault sites (per-node
// spellings n<id>.cluster.send / n<id>.cluster.recv first), and honors
// kill/partition state for chaos schedules. Calls execute on the
// caller's thread, so a seeded schedule replays exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/wire.h"

namespace cluster {

class LoopbackTransport {
 public:
  /// A node's RPC entry point. It receives the request decoded from the
  /// wire bytes of this one call and owns it: it may move payloads out
  /// of `req` (a stored chunk keeps the decoded bytes instead of
  /// copying them). The caller's frame passed to call() is untouched.
  using Handler = std::function<int(Frame&& req, Frame* resp)>;

  LoopbackTransport();

  /// Nodes register their RPC handler; a node without a handler is
  /// unreachable (EHOSTUNREACH).
  void register_handler(NodeId id, Handler h);
  void unregister_handler(NodeId id);

  /// Chaos controls. A down node rejects every call in either
  /// direction; a partition blocks the unordered {a, b} link. The
  /// client (kClientId) can be partitioned from nodes too.
  void set_down(NodeId id, bool down);
  bool is_down(NodeId id) const;
  void partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b);
  void block_link(NodeId a, NodeId b);
  void heal();  ///< clear every partition (down markers stay)

  /// Deliver `req` from `from` (kClientId for the coordinator) to node
  /// `to` and fill `*resp` with the node's reply. Returns 0 on
  /// success, an errno on delivery failure (EHOSTUNREACH for dead or
  /// partitioned destinations, EBADMSG for frames the receiver could
  /// not parse, injected errnos from the fault sites).
  int call(NodeId from, NodeId to, const Frame& req, Frame* resp);

 private:
  bool blocked(NodeId a, NodeId b) const;

  mutable std::mutex mu_;
  std::map<NodeId, Handler> handlers_;
  std::set<NodeId> down_;
  std::set<std::pair<NodeId, NodeId>> blocked_links_;  ///< normalized a<b
};

/// Eagerly registers every dialga_cluster_* metric family (zero-valued)
/// so scrapes — and the CI metrics gate — see the families even before
/// the first RPC. Idempotent.
void RegisterClusterMetrics();

}  // namespace cluster
