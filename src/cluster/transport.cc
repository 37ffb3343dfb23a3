#include "cluster/transport.h"

#include <cerrno>

#include "fault/injector.h"
#include "obs/metrics.h"

namespace cluster {

namespace {

obs::Counter& RpcCounter(MsgType type) {
  // One cached counter per RPC type; the array is indexed by the wire
  // type value so steady state never touches the registry map.
  static obs::Counter* counters[16] = {};
  static std::mutex mu;
  const std::size_t idx = static_cast<std::size_t>(type);
  obs::Counter* c = counters[idx];
  if (c == nullptr) {
    std::lock_guard<std::mutex> lk(mu);
    if (counters[idx] == nullptr) {
      counters[idx] = &obs::Registry::Global().counter(
          "dialga_cluster_rpc_total", {{"type", type_name(type)}},
          "Cluster RPCs by frame type");
    }
    c = counters[idx];
  }
  return *c;
}

obs::Counter& RpcBytes(bool response) {
  static obs::Counter& req = obs::Registry::Global().counter(
      "dialga_cluster_rpc_bytes_total", {{"dir", "req"}},
      "Serialized cluster RPC bytes");
  static obs::Counter& resp = obs::Registry::Global().counter(
      "dialga_cluster_rpc_bytes_total", {{"dir", "resp"}},
      "Serialized cluster RPC bytes");
  return response ? resp : req;
}

obs::Counter& RpcErrors() {
  static obs::Counter& c = obs::Registry::Global().counter(
      "dialga_cluster_rpc_errors_total", {},
      "Cluster RPCs that failed delivery (dead node, partition, "
      "injected fault, unparseable frame)");
  return c;
}

}  // namespace

void RegisterClusterMetrics() {
  static const bool once = [] {
    auto& reg = obs::Registry::Global();
    for (std::uint8_t t = static_cast<std::uint8_t>(MsgType::kEncode);
         t <= static_cast<std::uint8_t>(MsgType::kHeartbeatResp); ++t) {
      RpcCounter(static_cast<MsgType>(t));
    }
    RpcBytes(false);
    RpcBytes(true);
    RpcErrors();
    for (const char* kind : {"scrub", "rebuild"}) {
      reg.counter("dialga_cluster_repair_total", {{"kind", kind}},
                  "Chunks repaired by the scrub/rebuild orchestrator");
      reg.counter("dialga_cluster_repair_bytes_total", {{"kind", kind}},
                  "Bytes moved by chunk repair, post-throttle");
      reg.counter("dialga_cluster_throttle_waits_total", {{"kind", kind}},
                  "Token-bucket waits taken by repair traffic");
    }
    reg.counter("dialga_cluster_rebalance_total", {},
                "Chunks re-homed by membership-change rebalance");
    for (const char* scope : {"local", "global"}) {
      reg.counter("dialga_cluster_degraded_read_total", {{"scope", scope}},
                  "Degraded reads served, by reconstruction scope");
    }
    reg.counter("dialga_cluster_quorum_loss_total", {},
                "Operations that failed with fewer than k survivors");
    reg.gauge("dialga_cluster_nodes_up", {},
              "Nodes answering heartbeats in the last sweep");
    return true;
  }();
  (void)once;
}

LoopbackTransport::LoopbackTransport() { RegisterClusterMetrics(); }

void LoopbackTransport::register_handler(NodeId id, Handler h) {
  std::lock_guard<std::mutex> lk(mu_);
  handlers_[id] = std::move(h);
}

void LoopbackTransport::unregister_handler(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  handlers_.erase(id);
}

void LoopbackTransport::set_down(NodeId id, bool down) {
  std::lock_guard<std::mutex> lk(mu_);
  if (down) {
    down_.insert(id);
  } else {
    down_.erase(id);
  }
}

bool LoopbackTransport::is_down(NodeId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return down_.count(id) != 0;
}

void LoopbackTransport::partition(const std::vector<NodeId>& a,
                                  const std::vector<NodeId>& b) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const NodeId x : a) {
    for (const NodeId y : b) {
      if (x == y) continue;
      blocked_links_.insert({std::min(x, y), std::max(x, y)});
    }
  }
}

void LoopbackTransport::block_link(NodeId a, NodeId b) {
  std::lock_guard<std::mutex> lk(mu_);
  if (a != b) blocked_links_.insert({std::min(a, b), std::max(a, b)});
}

void LoopbackTransport::heal() {
  std::lock_guard<std::mutex> lk(mu_);
  blocked_links_.clear();
}

bool LoopbackTransport::blocked(NodeId a, NodeId b) const {
  return blocked_links_.count({std::min(a, b), std::max(a, b)}) != 0;
}

int LoopbackTransport::call(NodeId from, NodeId to, const Frame& req,
                            Frame* resp) {
  RpcCounter(req.type).inc();

  // Sender-side fault site, then reachability, then receiver-side
  // site — the order a real stack would fail in.
  if (const int err = fault::FireErrnoAt(from, "cluster.send"); err != 0) {
    RpcErrors().inc();
    return err;
  }
  Handler handler;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (down_.count(from) != 0 || down_.count(to) != 0 ||
        blocked(from, to)) {
      RpcErrors().inc();
      return EHOSTUNREACH;
    }
    const auto it = handlers_.find(to);
    if (it == handlers_.end()) {
      RpcErrors().inc();
      return EHOSTUNREACH;
    }
    handler = it->second;  // invoke outside the lock: handlers re-enter
  }
  if (const int err = fault::FireErrnoAt(to, "cluster.recv"); err != 0) {
    RpcErrors().inc();
    return err;
  }

  // Round-trip both legs through the real wire codec so every RPC
  // exercises the exact byte format (and its bounds checks) a socket
  // transport would put on the network. The `cluster.recv.corrupt`
  // site mutates the serialized bytes in flight — the frame CRC turns
  // that into EBADMSG at the receiver, never silently-wrong payloads.
  std::vector<std::byte> wire_req = EncodeFrame(req);
  RpcBytes(false).inc(wire_req.size());
  fault::MaybeCorruptAt(to, "cluster.recv.corrupt", wire_req.data(),
                        wire_req.size());
  Frame decoded_req;
  if (DecodeFrame(wire_req, &decoded_req) != ParseStatus::kOk) {
    RpcErrors().inc();
    return EBADMSG;
  }

  Frame raw_resp;
  if (const int err = handler(std::move(decoded_req), &raw_resp);
      err != 0) {
    RpcErrors().inc();
    return err;
  }

  std::vector<std::byte> wire_resp = EncodeFrame(raw_resp);
  RpcBytes(true).inc(wire_resp.size());
  RpcCounter(raw_resp.type).inc();
  fault::MaybeCorruptAt(from, "cluster.recv.corrupt", wire_resp.data(),
                        wire_resp.size());
  if (DecodeFrame(wire_resp, resp) != ParseStatus::kOk) {
    RpcErrors().inc();
    return EBADMSG;
  }
  return 0;
}

}  // namespace cluster
