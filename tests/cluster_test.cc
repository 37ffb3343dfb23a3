// Functional coverage of the cluster tier over the in-process
// LocalCluster harness: write/read round trips (RS and LRC), the
// degraded-read scope ordering (local group before global parity),
// scrub repair of dropped and bit-rotted chunks, membership-change
// rebalancing, the token-bucket rate limiter in virtual time, the
// cluster manifest, per-node fault-site routing, the persisted chunk
// format (pinned bytes; "DIALGA1" chunks fail closed), and nodes that
// run their codecs on the caller's thread: a cluster starts no thread,
// and clients on several threads share one cluster bit-exactly.
#include "cluster/local_cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/token_bucket.h"
#include "fault/injector.h"
#include "obs/metrics.h"

namespace {

namespace fs = std::filesystem;
using cluster::ClusterManifest;
using cluster::Geometry;
using cluster::LocalCluster;
using cluster::LocalClusterConfig;
using cluster::OpResult;
using cluster::TokenBucket;
using cluster::VirtualTime;

constexpr Geometry kRs{.k = 4, .global = 2, .local = 0, .block_size = 1024};
constexpr Geometry kLrc{.k = 4, .global = 2, .local = 2, .block_size = 1024};

LocalClusterConfig Cfg(std::size_t nodes, std::size_t domains,
                       const Geometry& geom,
                       const fs::path& data_root = {}) {
  LocalClusterConfig c;
  c.nodes = nodes;
  c.domains = domains;
  c.geom = geom;
  c.data_root = data_root;
  return c;
}

std::vector<std::vector<std::byte>> MakeStripe(const Geometry& g,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::byte>> data(g.k);
  for (auto& block : data) {
    block.resize(g.block_size);
    for (auto& b : block) {
      b = std::byte{static_cast<unsigned char>(rng() & 0xff)};
    }
  }
  return data;
}

std::vector<const std::byte*> Ptrs(
    const std::vector<std::vector<std::byte>>& blocks) {
  std::vector<const std::byte*> p;
  for (const auto& b : blocks) p.push_back(b.data());
  return p;
}

std::uint64_t CounterValue(const std::string& name,
                           const obs::Labels& labels) {
  return obs::Registry::Global().counter(name, labels).value();
}

class ClusterTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::Global().clear(); }
};

TEST_F(ClusterTest, WriteReadRoundTripRs) {
  LocalCluster c(Cfg(6, 0, kRs));
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto data = MakeStripe(kRs, s);
    const auto ptrs = Ptrs(data);
    ASSERT_EQ(c.coordinator()
                  .write_stripe(s, std::span<const std::byte* const>(ptrs))
                  .code,
              OpResult::Code::kOk);
    for (std::uint32_t j = 0; j < kRs.k; ++j) {
      std::vector<std::byte> out;
      const OpResult r = c.coordinator().read_block(s, j, &out);
      EXPECT_EQ(r.code, OpResult::Code::kOk);
      EXPECT_EQ(out, data[j]);
    }
  }
  EXPECT_EQ(c.coordinator().tracked(), 8u);
}

TEST_F(ClusterTest, WriteReadRoundTripLrc) {
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 99);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(1, std::span<const std::byte* const>(ptrs))
                  .ok());
  // Every one of the 8 chunks must have reached a distinct node.
  std::size_t total_chunks = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    total_chunks += c.node(i).chunk_count();
  }
  EXPECT_EQ(total_chunks, kLrc.total_shards());
  std::vector<std::vector<std::byte>> out(kLrc.k);
  std::vector<std::byte*> outp;
  for (auto& b : out) {
    b.resize(kLrc.block_size);
    outp.push_back(b.data());
  }
  ASSERT_TRUE(c.coordinator()
                  .read_stripe(1, std::span<std::byte* const>(outp))
                  .ok());
  for (std::uint32_t j = 0; j < kLrc.k; ++j) EXPECT_EQ(out[j], data[j]);
}

TEST_F(ClusterTest, DegradedReadServedFromLocalGroup) {
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 7);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(5, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(5, kLrc);
  // Kill shard 0's home; its local group (shards 0,1,6 in one rack)
  // still has k_group survivors, so the degraded read must be served
  // from the LOCAL group without touching global parity.
  const std::uint64_t local_before = CounterValue(
      "dialga_cluster_degraded_read_total", {{"scope", "local"}});
  const std::uint64_t global_before = CounterValue(
      "dialga_cluster_degraded_read_total", {{"scope", "global"}});
  c.kill(table[0] - 1);
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(5, 0, &out);
  ASSERT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
  EXPECT_EQ(out, data[0]);
  EXPECT_EQ(CounterValue("dialga_cluster_degraded_read_total",
                         {{"scope", "local"}}),
            local_before + 1);
  EXPECT_EQ(CounterValue("dialga_cluster_degraded_read_total",
                         {{"scope", "global"}}),
            global_before);
}

TEST_F(ClusterTest, DegradedReadFallsBackToGlobalWhenGroupIsGone) {
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 11);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(2, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(2, kLrc);
  // Losing the whole rack holding group 0 (shards 0, 1 and local
  // parity 6 share a domain) exceeds the local parity's budget; the
  // read must fall back to a global reconstruction and still be
  // bit-correct.
  const std::uint64_t global_before = CounterValue(
      "dialga_cluster_degraded_read_total", {{"scope", "global"}});
  for (const std::uint32_t shard : kLrc.group_members(0)) {
    c.kill(table[shard] - 1);
  }
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(2, 0, &out);
  ASSERT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
  EXPECT_EQ(out, data[0]);
  EXPECT_GT(CounterValue("dialga_cluster_degraded_read_total",
                         {{"scope", "global"}}),
            global_before);
}

TEST_F(ClusterTest, QuorumLossIsNamedNotSilent) {
  LocalCluster c(Cfg(6, 0, kRs));
  const auto data = MakeStripe(kRs, 3);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(9, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(9, kRs);
  // Kill m+1 = 3 homes: fewer than k survivors remain reachable.
  for (std::uint32_t j = 0; j < 3; ++j) c.kill(table[j] - 1);
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(9, 0, &out);
  EXPECT_EQ(r.code, OpResult::Code::kQuorumLoss);
  EXPECT_FALSE(r.ok());
  EXPECT_GT(CounterValue("dialga_cluster_quorum_loss_total", {}), 0u);
}

TEST_F(ClusterTest, ScrubRepairsDroppedAndCorruptChunks) {
  LocalCluster c(Cfg(6, 0, kRs));
  const auto data = MakeStripe(kRs, 21);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(4, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(4, kRs);
  ASSERT_TRUE(c.node(table[1] - 1).drop_chunk(4, 1));
  ASSERT_TRUE(c.node(table[2] - 1).corrupt_chunk(4, 2));
  const auto report = c.coordinator().scrub_pass();
  EXPECT_EQ(report.stripes, 1u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.unrecoverable, 0u);
  // Healthy reads again, bit-correct.
  for (std::uint32_t j = 0; j < kRs.k; ++j) {
    std::vector<std::byte> out;
    EXPECT_EQ(c.coordinator().read_block(4, j, &out).code,
              OpResult::Code::kOk);
    EXPECT_EQ(out, data[j]);
  }
}

TEST_F(ClusterTest, RemoveNodeRebuildsItsChunks) {
  LocalCluster c(Cfg(6, 0, kRs));
  std::vector<std::vector<std::vector<std::byte>>> stripes;
  for (std::uint64_t s = 0; s < 6; ++s) {
    stripes.push_back(MakeStripe(kRs, 100 + s));
    const auto ptrs = Ptrs(stripes.back());
    ASSERT_TRUE(
        c.coordinator()
            .write_stripe(s, std::span<const std::byte* const>(ptrs))
            .ok());
  }
  // Node at position 2 dies for good: placement drops it, rebalance
  // re-homes (reconstructing, since the old home is dead) every chunk
  // it held.
  c.kill(2);
  const auto report = c.coordinator().remove_node(LocalCluster::id_of(2));
  EXPECT_GT(report.moved + report.rebuilt, 0u);
  EXPECT_EQ(report.failed, 0u);
  for (std::uint64_t s = 0; s < 6; ++s) {
    for (const auto node : c.placement().table(s, kRs)) {
      EXPECT_NE(node, LocalCluster::id_of(2));
    }
    for (std::uint32_t j = 0; j < kRs.k; ++j) {
      std::vector<std::byte> out;
      EXPECT_EQ(c.coordinator().read_block(s, j, &out).code,
                OpResult::Code::kOk);
      EXPECT_EQ(out, stripes[s][j]);
    }
  }
}

// One cluster through its whole stripe lifecycle at chunk-sized
// blocks, over enough stripes that every node homes data chunks:
// acknowledged writes, bit-exact stripe reads healthy and with a node
// down, one scrub pass restoring every dropped chunk, and a live
// node's removal moving its chunks without a failure.
TEST_F(ClusterTest, StripeLifecycleAtChunkSizedBlocks) {
  constexpr Geometry kGeom{
      .k = 4, .global = 2, .local = 0, .block_size = 64 * 1024};
  constexpr std::uint64_t kStripes = 16;
  LocalCluster c(Cfg(6, 0, kGeom));
  std::vector<std::vector<std::vector<std::byte>>> stripes;
  for (std::uint64_t s = 0; s < kStripes; ++s) {
    stripes.push_back(MakeStripe(kGeom, 300 + s));
    const auto ptrs = Ptrs(stripes.back());
    ASSERT_EQ(c.coordinator()
                  .write_stripe(s, std::span<const std::byte* const>(ptrs))
                  .code,
              OpResult::Code::kOk)
        << "stripe " << s;
  }
  auto expect_stripes_read_back = [&] {
    std::vector<std::vector<std::byte>> out(kGeom.k);
    std::vector<std::byte*> outp;
    for (auto& b : out) {
      b.resize(kGeom.block_size);
      outp.push_back(b.data());
    }
    for (std::uint64_t s = 0; s < kStripes; ++s) {
      for (auto& b : out) std::fill(b.begin(), b.end(), std::byte{0});
      EXPECT_TRUE(c.coordinator()
                      .read_stripe(s, std::span<std::byte* const>(outp))
                      .ok())
          << "stripe " << s;
      EXPECT_EQ(out, stripes[s]) << "stripe " << s;
    }
  };
  expect_stripes_read_back();
  c.kill(0);
  expect_stripes_read_back();
  c.revive(0);

  std::size_t dropped = 0;
  for (std::uint64_t s = 0; s < kStripes; ++s) {
    const auto table = c.placement().table(s, kGeom);
    if (c.node(table[0] - 1).drop_chunk(s, 0)) ++dropped;
  }
  EXPECT_EQ(dropped, kStripes);
  const auto scrub = c.coordinator().scrub_pass();
  EXPECT_EQ(scrub.repaired, dropped);
  EXPECT_EQ(scrub.unrecoverable, 0u);

  const auto rebalance =
      c.coordinator().remove_node(LocalCluster::id_of(5));
  EXPECT_EQ(rebalance.failed, 0u);
  EXPECT_GT(rebalance.moved, 0u);
  expect_stripes_read_back();
}

TEST_F(ClusterTest, AddNodeMovesChunksOntoIt) {
  LocalCluster cl(Cfg(5, 0, kRs));
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto data = MakeStripe(kRs, 200 + s);
    const auto ptrs = Ptrs(data);
    ASSERT_TRUE(
        cl.coordinator()
            .write_stripe(s, std::span<const std::byte* const>(ptrs))
            .ok());
  }
  // A 6th node joins. The harness only pre-builds cfg.nodes nodes, so
  // register the newcomer by hand the way a deployment would.
  cluster::NodeConfig nc;
  nc.id = 77;
  nc.domain = 77;
  cluster::Node newcomer(nc, &cl.transport());
  const auto report = cl.coordinator().add_node({77, 77});
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(newcomer.chunk_count(), 0u);  // it must take some load
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto data = MakeStripe(kRs, 200 + s);
    for (std::uint32_t j = 0; j < kRs.k; ++j) {
      std::vector<std::byte> out;
      EXPECT_EQ(cl.coordinator().read_block(s, j, &out).code,
                OpResult::Code::kOk);
      EXPECT_EQ(out, data[j]);
    }
  }
}

TEST_F(ClusterTest, HeartbeatTracksUpAndDown) {
  LocalCluster c(Cfg(4, 0, kRs));
  auto hb = c.coordinator().heartbeat();
  EXPECT_EQ(hb.up.size(), 4u);
  EXPECT_TRUE(hb.down.empty());
  c.kill(1);
  hb = c.coordinator().heartbeat();
  EXPECT_EQ(hb.up.size(), 3u);
  ASSERT_EQ(hb.down.size(), 1u);
  EXPECT_EQ(hb.down[0], LocalCluster::id_of(1));
  c.revive(1);
  hb = c.coordinator().heartbeat();
  EXPECT_EQ(hb.up.size(), 4u);
}

TEST_F(ClusterTest, NodePersistenceSurvivesRestart) {
  const fs::path root =
      fs::temp_directory_path() / "dialga_cluster_persist_test";
  fs::remove_all(root);
  fs::create_directories(root);
  const auto data = MakeStripe(kRs, 55);
  {
    LocalCluster c(Cfg(4, 0, kRs, root));
    const auto ptrs = Ptrs(data);
    ASSERT_TRUE(
        c.coordinator()
            .write_stripe(0, std::span<const std::byte* const>(ptrs))
            .ok());
  }
  {
    // Fresh process image: same directories, new nodes.
    LocalCluster c(Cfg(4, 0, kRs, root));
    c.coordinator().track(0);
    for (std::uint32_t j = 0; j < kRs.k; ++j) {
      std::vector<std::byte> out;
      EXPECT_EQ(c.coordinator().read_block(0, j, &out).code,
                OpResult::Code::kOk);
      EXPECT_EQ(out, data[j]);
    }
  }
  fs::remove_all(root);
}

TEST_F(ClusterTest, PerNodeFaultSitesHitOnlyTheirNode) {
  LocalCluster c(Cfg(4, 0, kRs));
  // 100% recv failure on node 2 only: RPCs to it fail, others fine.
  ASSERT_TRUE(fault::Injector::Global().install_spec(
      "n2.cluster.recv:p=1.0,err=EIO"));
  cluster::Frame req;
  req.type = cluster::MsgType::kHeartbeat;
  cluster::Frame resp;
  EXPECT_EQ(c.transport().call(cluster::kClientId, 2, req, &resp), EIO);
  EXPECT_EQ(c.transport().call(cluster::kClientId, 1, req, &resp), 0);
  EXPECT_EQ(c.transport().call(cluster::kClientId, 3, req, &resp), 0);
  fault::Injector::Global().clear();
  // The plain site hits every node.
  ASSERT_TRUE(fault::Injector::Global().install_spec(
      "cluster.send:p=1.0,err=ETIMEDOUT"));
  EXPECT_EQ(c.transport().call(cluster::kClientId, 1, req, &resp),
            ETIMEDOUT);
  EXPECT_EQ(c.transport().call(cluster::kClientId, 3, req, &resp),
            ETIMEDOUT);
}

TEST_F(ClusterTest, FailedFanOutStoreIsRetriedWithItsPayload) {
  // One store from the primary fails at a non-primary home. The
  // primary reports that chunk with its payload, the coordinator
  // stores it directly, and the write is acknowledged with the chunk
  // bit-exact at its home — for a data chunk and for a parity chunk.
  LocalCluster c(Cfg(6, 0, kRs));
  const auto data = MakeStripe(kRs, 31);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(0, std::span<const std::byte* const>(ptrs))
                  .ok());
  const std::uint32_t parity_shard = kRs.k + 1;
  std::vector<std::byte> want_parity;
  ASSERT_TRUE(c.node(c.placement().table(0, kRs)[parity_shard] - 1)
                  .get_chunk(0, parity_shard, &want_parity));

  std::uint64_t stripe = 1;
  for (const std::uint32_t shard : {2u, parity_shard}) {
    const auto table = c.placement().table(stripe, kRs);
    const cluster::NodeId home = table[shard];
    ASSERT_NE(home, table[0]) << "the primary stores its own chunk";
    const std::string site = fault::NodeSite(home, "cluster.recv");
    ASSERT_TRUE(
        fault::Injector::Global().install_spec(site + ":nth=1,err=EIO"));
    EXPECT_EQ(c.coordinator()
                  .write_stripe(stripe,
                                std::span<const std::byte* const>(ptrs))
                  .code,
              OpResult::Code::kOk)
        << "shard " << shard;
    EXPECT_EQ(fault::Injector::Global().stats(site).fires, 1u);
    fault::Injector::Global().clear();
    std::vector<std::byte> got;
    ASSERT_TRUE(c.node(home - 1).get_chunk(stripe, shard, &got));
    EXPECT_EQ(got, shard < kRs.k ? data[shard] : want_parity)
        << "shard " << shard;
    ++stripe;
  }
}

TEST_F(ClusterTest, TokenBucketEnforcesRateInVirtualTime) {
  std::uint64_t now = 0;
  TokenBucket bucket(1000.0, 500.0, VirtualTime::Manual(&now));
  // Drain far past the burst; every grant beyond it must advance the
  // virtual clock enough that granted <= rate * elapsed + burst.
  for (int i = 0; i < 100; ++i) bucket.throttle(100);
  const double elapsed_s = static_cast<double>(now) / 1e9;
  EXPECT_LE(static_cast<double>(bucket.granted()),
            1000.0 * elapsed_s + 500.0 + 1e-6);
  EXPECT_GT(bucket.waits(), 0u);
  EXPECT_EQ(bucket.granted(), 100u * 100u);
}

TEST_F(ClusterTest, TokenBucketOversizedRequestBorrowsWithoutDeadlock) {
  std::uint64_t now = 0;
  TokenBucket bucket(1000.0, 64.0, VirtualTime::Manual(&now));
  bucket.throttle(1000);  // 15x the burst: must return, not spin
  EXPECT_EQ(bucket.granted(), 1000u);
}

TEST_F(ClusterTest, UnlimitedBucketNeverWaits) {
  TokenBucket bucket(0.0, 0.0);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_EQ(bucket.throttle(1 << 20), 0u);
  EXPECT_EQ(bucket.waits(), 0u);
}

TEST_F(ClusterTest, ManifestRoundTrip) {
  ClusterManifest m;
  m.nodes = 6;
  m.domains = 3;
  m.geom = kLrc;
  m.stripes = {0, 1, 5, 42};
  ClusterManifest out;
  ASSERT_TRUE(ClusterManifest::parse(m.serialize(), &out));
  EXPECT_EQ(out.nodes, m.nodes);
  EXPECT_EQ(out.domains, m.domains);
  EXPECT_EQ(out.geom, m.geom);
  EXPECT_EQ(out.stripes, m.stripes);
}

TEST_F(ClusterTest, ManifestRejectsGarbage) {
  ClusterManifest out;
  EXPECT_FALSE(ClusterManifest::parse("", &out));
  EXPECT_FALSE(ClusterManifest::parse("version 2\nnodes 4\n", &out));
  EXPECT_FALSE(ClusterManifest::parse("version 1\nnodes zero\n", &out));
  EXPECT_FALSE(ClusterManifest::parse("version 1\nnodes 0\n", &out));
  // Unknown keys are forward-compatible, not fatal.
  ClusterManifest m;
  m.nodes = 4;
  m.geom = kRs;
  EXPECT_TRUE(
      ClusterManifest::parse(m.serialize() + "future_key 9\n", &out));
}

// --- Chunk trailer format ------------------------------------------------

std::string ReadAll(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

fs::path ChunkFile(const fs::path& node_dir, std::uint64_t stripe,
                   std::uint32_t shard) {
  char name[64];
  std::snprintf(name, sizeof(name), "s%016llx_%04u.chunk",
                static_cast<unsigned long long>(stripe), shard);
  return node_dir / name;
}

TEST_F(ClusterTest, PersistedChunkTrailerMatchesThePinnedBytes) {
  // A persisted chunk is payload + CRC-32C (u64 LE) + "DIALGA2", byte
  // for byte as written by the release that still loaded "DIALGA1"
  // chunks, so every chunk written since then still loads.
  const fs::path dir = fs::temp_directory_path() / "dialga_chunk_pin_test";
  fs::remove_all(dir);
  {
    cluster::NodeConfig nc;
    nc.id = 1;
    nc.data_dir = dir;
    cluster::Node node(nc, nullptr);
    cluster::Frame req;
    req.type = cluster::MsgType::kStore;
    req.stripe = 5;
    req.geom = {.k = 4, .global = 2, .local = 0, .block_size = 16};
    cluster::Blob b;
    b.index = 1;
    for (int i = 0; i < 16; ++i) {
      b.bytes.push_back(std::byte{static_cast<unsigned char>(i * 7 + 1)});
    }
    req.blocks.push_back(std::move(b));
    cluster::Frame resp;
    ASSERT_EQ(node.handle(std::move(req), &resp), 0);
    ASSERT_EQ(resp.status, cluster::WireStatus::kOk);
  }
  const std::string pinned(
      "\x01\x08\x0f\x16\x1d\x24\x2b\x32\x39\x40\x47\x4e\x55\x5c\x63\x6a"
      "\x7f\x04\xb3\x84\x00\x00\x00\x00"  // CRC-32C, zero-extended
      "DIALAGA2",                          // the "DIALGA2" magic, LE
      32);
  EXPECT_EQ(ReadAll(ChunkFile(dir, 5, 1)), pinned);
  fs::remove_all(dir);
}

TEST_F(ClusterTest, Dialga1ChunkIsNotLoadedAndScrubRestoresIt) {
  const fs::path root = fs::temp_directory_path() / "dialga_chunk_v1_test";
  fs::remove_all(root);
  const auto data = MakeStripe(kRs, 77);
  std::size_t home = 0;
  {
    LocalCluster c(Cfg(4, 0, kRs, root));
    const auto ptrs = Ptrs(data);
    ASSERT_TRUE(
        c.coordinator()
            .write_stripe(0, std::span<const std::byte* const>(ptrs))
            .ok());
    home = c.placement().table(0, kRs)[1] - 1;
  }
  // Re-seal shard 1's chunk as a "DIALGA1" generation: its FNV-1a 64
  // sum and magic, the trailer this code no longer reads.
  std::string node_dir = "n";
  node_dir += std::to_string(home);
  const fs::path chunk = ChunkFile(root / node_dir, 0, 1);
  std::string file = ReadAll(chunk);
  ASSERT_GT(file.size(), 16u);
  file.resize(file.size() - 16);
  std::uint64_t fnv = 1469598103934665603ull;
  for (const char ch : file) {
    fnv ^= static_cast<unsigned char>(ch);
    fnv *= 1099511628211ull;
  }
  for (const std::uint64_t v : {fnv, std::uint64_t{0x314147414c414944ull}}) {
    for (int i = 0; i < 8; ++i) file.push_back(static_cast<char>(v >> (8 * i)));
  }
  std::ofstream(chunk, std::ios::binary | std::ios::trunc) << file;

  LocalCluster c(Cfg(4, 0, kRs, root));
  c.coordinator().track(0);
  EXPECT_FALSE(c.node(home).has_chunk(0, 1))
      << "a DIALGA1 chunk must be skipped at load like a foreign file";
  const auto report = c.coordinator().scrub_pass();
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_TRUE(c.node(home).has_chunk(0, 1));
  for (std::uint32_t j = 0; j < kRs.k; ++j) {
    std::vector<std::byte> out;
    EXPECT_EQ(c.coordinator().read_block(0, j, &out).code,
              OpResult::Code::kOk);
    EXPECT_EQ(out, data[j]);
  }
  // Rewritten by scrub in today's format (the magic's 8 LE bytes).
  EXPECT_TRUE(ReadAll(chunk).ends_with("DIALAGA2"));
  fs::remove_all(root);
}

// Entries of /proc/self/task: this process's threads, or nullopt
// where the kernel does not expose them.
std::optional<std::size_t> ThreadCount() {
  std::error_code ec;
  fs::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  return static_cast<std::size_t>(
      std::distance(it, fs::directory_iterator{}));
}

// A node runs its codec on the thread that carries the RPC, so a
// whole cluster, through a write, a read and a degraded read, starts
// no thread at all.
TEST_F(ClusterTest, LocalClusterStartsNoThreads) {
  const std::optional<std::size_t> before = ThreadCount();
  if (!before) GTEST_SKIP() << "/proc/self/task is not available";
  {
    LocalCluster c(Cfg(9, 3, kLrc));
    const auto data = MakeStripe(kLrc, 41);
    const auto ptrs = Ptrs(data);
    ASSERT_TRUE(c.coordinator()
                    .write_stripe(3, std::span<const std::byte* const>(ptrs))
                    .ok());
    std::vector<std::byte> out;
    ASSERT_EQ(c.coordinator().read_block(3, 1, &out).code,
              OpResult::Code::kOk);
    EXPECT_EQ(out, data[1]);
    c.kill(c.placement().table(3, kLrc)[1] - 1);
    ASSERT_EQ(c.coordinator().read_block(3, 1, &out).code,
              OpResult::Code::kDegraded);
    EXPECT_EQ(out, data[1]);
    EXPECT_EQ(ThreadCount(), before);
  }
  EXPECT_EQ(ThreadCount(), before);
}

// Four client threads share one RS and one LRC cluster, so each node's
// codec cache and codecs serve several callers at once. Every thread
// writes, reads and degraded-reads only its own stripes, and degrades
// a read by dropping one of its own chunks rather than killing a node,
// so no thread can change what another reads.
TEST_F(ClusterTest, ConcurrentClientsStayBitExact) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kStripesPerThread = 12;
  LocalCluster rs(Cfg(6, 0, kRs));
  LocalCluster lrc(Cfg(9, 3, kLrc));
  auto client = [](LocalCluster& c, const Geometry& g, std::size_t t) {
    for (std::uint64_t i = 0; i < kStripesPerThread; ++i) {
      const std::uint64_t s = t * 1000 + i;
      const auto data = MakeStripe(g, 7000 + s);
      const auto ptrs = Ptrs(data);
      ASSERT_EQ(c.coordinator()
                    .write_stripe(s, std::span<const std::byte* const>(ptrs))
                    .code,
                OpResult::Code::kOk)
          << "stripe " << s;
      std::vector<std::vector<std::byte>> out(
          g.k, std::vector<std::byte>(g.block_size));
      std::vector<std::byte*> outp;
      for (auto& b : out) outp.push_back(b.data());
      ASSERT_EQ(c.coordinator()
                    .read_stripe(s, std::span<std::byte* const>(outp))
                    .code,
                OpResult::Code::kOk)
          << "stripe " << s;
      EXPECT_EQ(out, data) << "stripe " << s;
      const std::uint32_t lost = static_cast<std::uint32_t>(i % g.k);
      ASSERT_TRUE(
          c.node(c.placement().table(s, g)[lost] - 1).drop_chunk(s, lost));
      std::vector<std::byte> block;
      ASSERT_EQ(c.coordinator().read_block(s, lost, &block).code,
                OpResult::Code::kDegraded)
          << "stripe " << s;
      EXPECT_EQ(block, data[lost]) << "stripe " << s;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      client(rs, kRs, t);
      client(lrc, kLrc, t);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rs.coordinator().tracked(), kThreads * kStripesPerThread);
  EXPECT_EQ(lrc.coordinator().tracked(), kThreads * kStripesPerThread);
}

}  // namespace
