#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "dialga/dialga.h"
#include "ec/lrc.h"
#include "integrity/checksum.h"
#include "obs/metrics.h"

namespace cluster {

namespace {

obs::Counter& DegradedCounter(bool local) {
  static obs::Counter& l = obs::Registry::Global().counter(
      "dialga_cluster_degraded_read_total", {{"scope", "local"}});
  static obs::Counter& g = obs::Registry::Global().counter(
      "dialga_cluster_degraded_read_total", {{"scope", "global"}});
  return local ? l : g;
}

obs::Counter& RepairCounter(bool scrub) {
  static obs::Counter& s = obs::Registry::Global().counter(
      "dialga_cluster_repair_total", {{"kind", "scrub"}});
  static obs::Counter& r = obs::Registry::Global().counter(
      "dialga_cluster_repair_total", {{"kind", "rebuild"}});
  return scrub ? s : r;
}

obs::Counter& RepairBytes(bool scrub) {
  static obs::Counter& s = obs::Registry::Global().counter(
      "dialga_cluster_repair_bytes_total", {{"kind", "scrub"}});
  static obs::Counter& r = obs::Registry::Global().counter(
      "dialga_cluster_repair_bytes_total", {{"kind", "rebuild"}});
  return scrub ? s : r;
}

obs::Counter& ThrottleWaits(bool scrub) {
  static obs::Counter& s = obs::Registry::Global().counter(
      "dialga_cluster_throttle_waits_total", {{"kind", "scrub"}});
  static obs::Counter& r = obs::Registry::Global().counter(
      "dialga_cluster_throttle_waits_total", {{"kind", "rebuild"}});
  return scrub ? s : r;
}

obs::Counter& QuorumLoss() {
  static obs::Counter& c = obs::Registry::Global().counter(
      "dialga_cluster_quorum_loss_total", {});
  return c;
}

obs::Counter& RebalanceMoves() {
  static obs::Counter& c = obs::Registry::Global().counter(
      "dialga_cluster_rebalance_total", {});
  return c;
}

}  // namespace

const char* to_string(OpResult::Code c) {
  switch (c) {
    case OpResult::Code::kOk: return "ok";
    case OpResult::Code::kDegraded: return "degraded";
    case OpResult::Code::kQuorumLoss: return "quorum-loss";
    case OpResult::Code::kTransport: return "transport";
    case OpResult::Code::kInvalid: return "invalid";
  }
  return "?";
}

Coordinator::Coordinator(CoordinatorConfig cfg, Placement* placement,
                         LoopbackTransport* transport)
    : cfg_(std::move(cfg)),
      placement_(placement),
      transport_(transport),
      scrub_bucket_(cfg_.scrub_rate_bps, cfg_.rate_burst_bytes, cfg_.time),
      rebuild_bucket_(cfg_.rebuild_rate_bps, cfg_.rate_burst_bytes,
                      cfg_.time) {
  RegisterClusterMetrics();
}

int Coordinator::Call(NodeId to, const Frame& req, Frame* resp) {
  return transport_->call(kClientId, to, req, resp);
}

bool Coordinator::NodeUp(NodeId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return down_.count(id) == 0;
}

const ec::Codec& Coordinator::CodecFor(const Geometry& geom) {
  std::lock_guard<std::mutex> lk(codec_mu_);
  const auto key = std::make_tuple(geom.k, geom.global, geom.local);
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    std::unique_ptr<const ec::Codec> codec;
    if (geom.local > 0) {
      codec = std::make_unique<ec::LrcCodec>(geom.k, geom.global, geom.local);
    } else {
      codec = std::make_unique<dialga::DialgaCodec>(geom.k, geom.global);
    }
    it = codecs_.emplace(key, std::move(codec)).first;
  }
  return *it->second;
}

void Coordinator::track(std::uint64_t stripe) {
  std::lock_guard<std::mutex> lk(mu_);
  acked_.insert(stripe);
}

std::size_t Coordinator::tracked() const {
  std::lock_guard<std::mutex> lk(mu_);
  return acked_.size();
}

bool Coordinator::StoreChunk(std::uint64_t stripe, std::uint32_t shard,
                             NodeId dest, std::vector<std::byte> bytes) {
  Frame req;
  req.type = MsgType::kStore;
  req.stripe = stripe;
  req.geom = cfg_.geom;
  req.blocks.push_back({shard, std::move(bytes)});
  Frame resp;
  return Call(dest, req, &resp) == 0 && resp.status == WireStatus::kOk;
}

OpResult Coordinator::write_stripe(std::uint64_t stripe,
                                   std::span<const std::byte* const> data) {
  const Geometry& geom = cfg_.geom;
  if (!geom.valid() || data.size() != geom.k) {
    return {OpResult::Code::kInvalid, "need k data blocks"};
  }
  const std::vector<NodeId> table = placement_->table(stripe, geom);
  if (table.empty()) {
    return {OpResult::Code::kInvalid, "empty membership"};
  }

  Frame req;
  req.type = MsgType::kEncode;
  req.stripe = stripe;
  req.geom = geom;
  req.placement = table;
  for (std::uint32_t i = 0; i < geom.k; ++i) {
    req.blocks.push_back(
        {i, std::vector<std::byte>(data[i], data[i] + geom.block_size)});
  }

  // Primary = first reachable home in table order; every candidate is
  // tried before giving up, so a dead shard-0 home does not fail the
  // write.
  Frame resp;
  bool delivered = false;
  for (const NodeId candidate : table) {
    if (!NodeUp(candidate)) continue;
    if (Call(candidate, req, &resp) == 0) {
      delivered = true;
      break;
    }
  }
  if (!delivered) {
    return {OpResult::Code::kTransport, "no reachable primary"};
  }
  if (resp.status == WireStatus::kBadRequest) {
    return {OpResult::Code::kInvalid, "primary rejected encode"};
  }

  // The primary reports the chunks it could not place (with payloads);
  // retry them directly before acknowledging. An unplaced chunk means
  // the stripe is NOT acknowledged.
  if (resp.status == WireStatus::kStoreFailed) {
    for (std::size_t i = 0; i < resp.placement.size(); ++i) {
      const std::uint32_t shard = resp.placement[i];
      if (shard >= table.size() || i >= resp.blocks.size()) {
        return {OpResult::Code::kTransport, "malformed encode response"};
      }
      bool stored = false;
      for (std::size_t attempt = 0;
           attempt <= cfg_.store_retry.max_retries && !stored; ++attempt) {
        if (attempt > 0) {
          cfg_.time.sleep_ns(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  cfg_.store_retry.delay(attempt - 1))
                  .count()));
        }
        stored = StoreChunk(stripe, shard, table[shard],
                            resp.blocks[i].bytes);
      }
      if (!stored) {
        return {OpResult::Code::kTransport,
                "chunk " + std::to_string(shard) + " unplaced"};
      }
    }
  }
  track(stripe);
  return {};
}

WireStatus Coordinator::FetchChunk(std::uint64_t stripe, std::uint32_t shard,
                                   const std::vector<NodeId>& table,
                                   std::vector<std::byte>* out) {
  if (shard >= table.size()) return WireStatus::kBadRequest;
  if (!NodeUp(table[shard])) return WireStatus::kNotFound;
  Frame req;
  req.type = MsgType::kRead;
  req.stripe = stripe;
  req.shard = shard;
  req.geom = cfg_.geom;
  Frame resp;
  if (Call(table[shard], req, &resp) != 0) return WireStatus::kNotFound;
  if (resp.status != WireStatus::kOk || resp.blocks.size() != 1 ||
      resp.blocks[0].bytes.size() != cfg_.geom.block_size) {
    return resp.status == WireStatus::kOk ? WireStatus::kNotFound
                                          : resp.status;
  }
  *out = std::move(resp.blocks[0].bytes);
  return WireStatus::kOk;
}

OpResult Coordinator::GlobalReconstruct(std::uint64_t stripe,
                                        std::uint32_t shard,
                                        const std::vector<NodeId>& table,
                                        std::vector<std::byte>* out) {
  const Geometry& geom = cfg_.geom;
  const std::uint32_t total = geom.total_shards();
  std::vector<std::vector<std::byte>> buffers(total);
  std::vector<std::byte*> blocks(total);
  std::vector<std::size_t> erasures;
  for (std::uint32_t j = 0; j < total; ++j) {
    buffers[j].assign(geom.block_size, std::byte{0});
    blocks[j] = buffers[j].data();
    if (j == shard) {
      erasures.push_back(j);
      continue;
    }
    std::vector<std::byte> chunk;
    if (FetchChunk(stripe, j, table, &chunk) == WireStatus::kOk) {
      buffers[j] = std::move(chunk);
      blocks[j] = buffers[j].data();
    } else {
      erasures.push_back(j);
    }
  }
  if (total - erasures.size() < geom.k) {
    QuorumLoss().inc();
    return {OpResult::Code::kQuorumLoss,
            std::to_string(total - erasures.size()) + " of " +
                std::to_string(geom.k) + " required survivors"};
  }
  if (!CodecFor(geom).decode(geom.block_size,
                             std::span<std::byte* const>(blocks),
                             std::span<const std::size_t>(erasures))) {
    QuorumLoss().inc();
    return {OpResult::Code::kQuorumLoss, "decode failed"};
  }
  DegradedCounter(false).inc();
  *out = std::move(buffers[shard]);
  return {OpResult::Code::kDegraded, "global reconstruction"};
}

OpResult Coordinator::DegradedRead(std::uint64_t stripe, std::uint32_t shard,
                                   const std::vector<NodeId>& table,
                                   std::vector<std::byte>* out) {
  const Geometry& geom = cfg_.geom;
  // Local first: ask a surviving member of the target's group to XOR
  // the group — group_size reads inside one failure domain, no global
  // parity traffic.
  if (geom.group_of(shard) >= 0) {
    Frame req;
    req.type = MsgType::kDegradedRead;
    req.stripe = stripe;
    req.shard = shard;
    req.geom = geom;
    req.placement = table;
    for (const std::uint32_t member : geom.group_members(
             static_cast<std::uint32_t>(geom.group_of(shard)))) {
      if (member == shard) continue;
      const NodeId helper = table[member];
      if (helper == table[shard] || !NodeUp(helper)) continue;
      Frame resp;
      if (Call(helper, req, &resp) != 0) continue;
      if (resp.status == WireStatus::kOk && resp.blocks.size() == 1 &&
          resp.blocks[0].bytes.size() == geom.block_size) {
        DegradedCounter(true).inc();
        *out = std::move(resp.blocks[0].bytes);
        return {OpResult::Code::kDegraded, "local group reconstruction"};
      }
      break;  // the group cannot help (kNeedGlobal); go global
    }
  }
  return GlobalReconstruct(stripe, shard, table, out);
}

void Coordinator::MaybeReadRepair(std::uint64_t stripe, std::uint32_t shard,
                                  const std::vector<NodeId>& table,
                                  const std::vector<std::byte>& bytes) {
  if (!cfg_.read_repair) return;
  if (shard >= table.size() || !NodeUp(table[shard])) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (quarantined_.count(stripe) != 0) return;  // scrub's job now
  }
  auto& im = integrity::Metrics::Get();
  const bool stored = StoreChunk(stripe, shard, table[shard], bytes);
  im.heal(integrity::Layer::kCluster, stored);
  std::lock_guard<std::mutex> lk(mu_);
  if (stored) {
    heal_attempts_.erase(stripe);
    return;
  }
  if (++heal_attempts_[stripe] >= cfg_.heal_retry_cap) {
    quarantined_.insert(stripe);
    im.quarantine(integrity::Layer::kCluster);
  }
}

std::size_t Coordinator::quarantined_stripes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return quarantined_.size();
}

OpResult Coordinator::read_block(std::uint64_t stripe, std::uint32_t shard,
                                 std::vector<std::byte>* out) {
  const Geometry& geom = cfg_.geom;
  if (!geom.valid() || shard >= geom.total_shards()) {
    return {OpResult::Code::kInvalid, "shard out of range"};
  }
  const std::vector<NodeId> table = placement_->table(stripe, geom);
  if (table.empty()) return {OpResult::Code::kInvalid, "empty membership"};
  if (FetchChunk(stripe, shard, table, out) == WireStatus::kOk) return {};
  const OpResult r = DegradedRead(stripe, shard, table, out);
  // The degraded bytes are codec-verified output; if the home is up
  // (its chunk was corrupt or dropped, not unreachable), reseat them
  // so the next read takes the healthy path again.
  if (r.ok()) MaybeReadRepair(stripe, shard, table, *out);
  return r;
}

OpResult Coordinator::read_stripe(std::uint64_t stripe,
                                  std::span<std::byte* const> out) {
  const Geometry& geom = cfg_.geom;
  if (out.size() != geom.k) {
    return {OpResult::Code::kInvalid, "need k output blocks"};
  }
  OpResult worst;
  for (std::uint32_t i = 0; i < geom.k; ++i) {
    std::vector<std::byte> chunk;
    const OpResult r = read_block(stripe, i, &chunk);
    if (!r.ok()) return r;
    std::copy(chunk.begin(), chunk.end(), out[i]);
    if (r.code == OpResult::Code::kDegraded) worst = r;
  }
  return worst;
}

HeartbeatReport Coordinator::heartbeat() {
  HeartbeatReport report;
  Frame req;
  req.type = MsgType::kHeartbeat;
  req.geom = cfg_.geom;
  for (const NodeInfo& n : placement_->nodes()) {
    Frame resp;
    const bool up = Call(n.id, req, &resp) == 0 &&
                    resp.status == WireStatus::kOk;
    std::lock_guard<std::mutex> lk(mu_);
    if (up) {
      down_.erase(n.id);
      report.up.push_back(n.id);
    } else {
      down_.insert(n.id);
      report.down.push_back(n.id);
    }
  }
  obs::Registry::Global()
      .gauge("dialga_cluster_nodes_up", {})
      .set(static_cast<double>(report.up.size()));
  return report;
}

bool Coordinator::RepairChunk(std::uint64_t stripe, std::uint32_t shard,
                              const std::vector<NodeId>& table, NodeId dest,
                              RepairKind kind) {
  const Geometry& geom = cfg_.geom;
  const bool scrub = kind == RepairKind::kScrub;
  const std::uint64_t waits =
      (scrub ? scrub_bucket_ : rebuild_bucket_).throttle(geom.block_size);
  if (waits > 0) ThrottleWaits(scrub).inc(waits);

  // Prefer a surviving group member doing the repair next to the data
  // (one kRepair RPC; the member reads its group, XORs, stores to
  // dest). Global fallback runs at the coordinator.
  if (geom.group_of(shard) >= 0) {
    Frame req;
    req.type = MsgType::kRepair;
    req.stripe = stripe;
    req.shard = shard;
    req.aux = dest;
    req.geom = geom;
    req.placement = table;
    for (const std::uint32_t member : geom.group_members(
             static_cast<std::uint32_t>(geom.group_of(shard)))) {
      if (member == shard) continue;
      const NodeId helper = table[member];
      if (!NodeUp(helper)) continue;
      Frame resp;
      if (Call(helper, req, &resp) != 0) continue;
      if (resp.status == WireStatus::kOk) {
        RepairCounter(scrub).inc();
        RepairBytes(scrub).inc(geom.block_size);
        return true;
      }
      break;
    }
  }

  std::vector<std::byte> rebuilt;
  const OpResult r = GlobalReconstruct(stripe, shard, table, &rebuilt);
  if (!r.ok()) return false;
  if (!StoreChunk(stripe, shard, dest, std::move(rebuilt))) return false;
  RepairCounter(scrub).inc();
  RepairBytes(scrub).inc(geom.block_size);
  return true;
}

ScrubReport Coordinator::scrub_pass() {
  const Geometry& geom = cfg_.geom;
  ScrubReport report;
  std::vector<std::uint64_t> stripes;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stripes.assign(acked_.begin(), acked_.end());
  }
  report.stripes = stripes.size();
  for (const std::uint64_t stripe : stripes) {
    const std::vector<NodeId> table = placement_->table(stripe, geom);
    bool converged = true;  // every chunk verified or repaired
    for (std::uint32_t j = 0; j < geom.total_shards(); ++j) {
      if (j >= table.size()) break;
      if (!NodeUp(table[j])) {
        ++report.unreachable;  // rebuild's job, not scrub's
        converged = false;
        continue;
      }
      const std::uint64_t waits = scrub_bucket_.throttle(geom.block_size);
      if (waits > 0) ThrottleWaits(true).inc(waits);
      ++report.chunks_checked;
      std::vector<std::byte> chunk;
      const WireStatus st = FetchChunk(stripe, j, table, &chunk);
      if (st == WireStatus::kOk) continue;
      if (st == WireStatus::kCorrupt) ++report.corrupt;
      if (RepairChunk(stripe, j, table, table[j], RepairKind::kScrub)) {
        ++report.repaired;
      } else {
        ++report.unrecoverable;
        converged = false;
      }
    }
    if (converged) {
      // A stripe scrub fully verified (or repaired) is rehabilitated:
      // read-repair write-backs may run again.
      std::lock_guard<std::mutex> lk(mu_);
      heal_attempts_.erase(stripe);
      if (quarantined_.erase(stripe) != 0) ++report.stripes_unquarantined;
    }
  }
  report.throttle_waits = scrub_bucket_.waits() + rebuild_bucket_.waits();
  return report;
}

RebalanceReport Coordinator::Rebalance(
    const std::vector<std::pair<std::uint64_t, std::vector<NodeId>>>&
        old_tables) {
  const Geometry& geom = cfg_.geom;
  RebalanceReport report;
  for (const auto& [stripe, old_table] : old_tables) {
    const std::vector<NodeId> new_table = placement_->table(stripe, geom);
    for (std::uint32_t j = 0; j < geom.total_shards(); ++j) {
      if (j >= new_table.size() || j >= old_table.size()) break;
      if (new_table[j] == old_table[j]) continue;  // minimal movement
      const std::uint64_t waits = rebuild_bucket_.throttle(geom.block_size);
      if (waits > 0) ThrottleWaits(false).inc(waits);

      // Cheap path: the old home still answers — plain copy, no
      // reconstruction math.
      bool done = false;
      if (NodeUp(old_table[j])) {
        Frame req;
        req.type = MsgType::kRead;
        req.stripe = stripe;
        req.shard = j;
        req.geom = geom;
        Frame resp;
        if (Call(old_table[j], req, &resp) == 0 &&
            resp.status == WireStatus::kOk && resp.blocks.size() == 1) {
          done = StoreChunk(stripe, j, new_table[j],
                            std::move(resp.blocks[0].bytes));
          if (done) {
            ++report.moved;
            RepairBytes(false).inc(geom.block_size);
          }
        }
      }
      if (!done) {
        // Reconstruct from the OLD table: that is where the surviving
        // chunks still live mid-pass (a copy leaves the old replica in
        // place, and shards not yet rebalanced have not moved at all).
        // Fetching via the new table would count every not-yet-moved
        // shard as an erasure and burn quorum for nothing.
        if (RepairChunk(stripe, j, old_table, new_table[j],
                        RepairKind::kRebuild)) {
          ++report.rebuilt;
        } else {
          ++report.failed;
          continue;
        }
      }
      RebalanceMoves().inc();
    }
  }
  report.throttle_waits = rebuild_bucket_.waits();
  return report;
}

RebalanceReport Coordinator::remove_node(NodeId dead) {
  std::vector<std::pair<std::uint64_t, std::vector<NodeId>>> old_tables;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::uint64_t s : acked_) {
      old_tables.emplace_back(s, placement_->table(s, cfg_.geom));
    }
    down_.insert(dead);
  }
  if (!placement_->remove_node(dead)) return {};
  return Rebalance(old_tables);
}

RebalanceReport Coordinator::add_node(const NodeInfo& node) {
  std::vector<std::pair<std::uint64_t, std::vector<NodeId>>> old_tables;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::uint64_t s : acked_) {
      old_tables.emplace_back(s, placement_->table(s, cfg_.geom));
    }
    down_.erase(node.id);
  }
  if (!placement_->add_node(node)) return {};
  return Rebalance(old_tables);
}

}  // namespace cluster
