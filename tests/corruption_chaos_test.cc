// Corruption chaos matrix: seeded data-corrupting fault injection over
// every corruption site, asserting the silent-corruption defenses hold
// their three invariants —
//   1. corrupt bytes are never returned as clean data,
//   2. acknowledged data within the parity budget is never lost,
//   3. scrub + read-repair converge every injected generation back to
//      verified-clean (or name the loss explicitly).
// CHAOS_SEED narrows the matrix to one seed when reproducing a failure;
// the effective plan for any run is printable via Injector::describe().
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_seeds.h"
#include "cluster/local_cluster.h"
#include "dialga/dialga.h"
#include "fault/injector.h"
#include "shard/shard_store.h"

namespace {

namespace fs = std::filesystem;

struct InjectorReset {
  InjectorReset() { fault::Injector::Global().clear(); }
  ~InjectorReset() { fault::Injector::Global().clear(); }
};

std::string MakePayload(std::size_t n, std::uint64_t seed) {
  std::string payload(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<char>((i * 131 + seed * 89 + 17) & 0xff);
  }
  return payload;
}

void WriteFileBytes(const fs::path& p, const std::string& s) {
  std::ofstream(p, std::ios::binary) << s;
}

std::string ReadFileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// --- Injector corruption mechanics ---------------------------------------

TEST(CorruptionInjector, ReplaysBitIdenticallyFromSeedSiteOp) {
  InjectorReset reset;
  auto& in = fault::Injector::Global();
  auto run = [&] {
    in.clear();
    in.set_seed(99);
    fault::SitePlan plan;
    plan.every = 1;
    plan.corrupt = fault::CorruptKind::kTorn;
    plan.corrupt_span = 8;
    in.install("x.corrupt", plan);
    std::vector<std::vector<unsigned char>> bufs;
    for (int op = 0; op < 5; ++op) {
      std::vector<unsigned char> buf(64, 0xAB);
      const auto c = in.fire_corruption("x.corrupt");
      EXPECT_TRUE(c.has_value());
      if (c) fault::ApplyCorruption(*c, buf.data(), buf.size());
      bufs.push_back(std::move(buf));
    }
    return bufs;
  };
  // Same (seed, site, op#) sequence => same mutations, buffer for
  // buffer — and distinct ops mutate distinct bytes (tokens differ).
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a[0], a[1]);
}

TEST(CorruptionInjector, DeterministicAcrossReinstall) {
  InjectorReset reset;
  auto& in = fault::Injector::Global();
  auto run = [&] {
    in.clear();
    in.set_seed(7);
    fault::SitePlan plan;
    plan.every = 2;
    plan.corrupt = fault::CorruptKind::kBitFlip;
    in.install("shard.read.corrupt", plan);
    std::vector<std::vector<unsigned char>> out;
    for (int op = 0; op < 8; ++op) {
      std::vector<unsigned char> buf(128, 0x5C);
      fault::MaybeCorrupt("shard.read.corrupt", buf.data(), buf.size());
      out.push_back(std::move(buf));
    }
    return out;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  // every=2: ops 2,4,6,8 fire — exactly 4 buffers differ from clean.
  std::size_t changed = 0;
  for (const auto& buf : a) {
    if (buf != std::vector<unsigned char>(128, 0x5C)) ++changed;
  }
  EXPECT_EQ(changed, 4u);
}

TEST(CorruptionInjector, KindsMutateAsSpecified) {
  InjectorReset reset;
  auto& in = fault::Injector::Global();
  in.set_seed(3);

  {
    fault::SitePlan plan;
    plan.every = 1;
    plan.corrupt = fault::CorruptKind::kBitFlip;
    in.install("k.flip", plan);
    std::vector<unsigned char> buf(64, 0);
    ASSERT_TRUE(fault::MaybeCorrupt("k.flip", buf.data(), buf.size()));
    int bits = 0;
    for (unsigned char byte : buf) bits += __builtin_popcount(byte);
    EXPECT_EQ(bits, 1);  // exactly one bit flipped
  }
  {
    fault::SitePlan plan;
    plan.every = 1;
    plan.corrupt = fault::CorruptKind::kStaleZero;
    plan.corrupt_span = 16;
    in.install("k.zero", plan);
    std::vector<unsigned char> buf(64, 0xFF);
    ASSERT_TRUE(fault::MaybeCorrupt("k.zero", buf.data(), buf.size()));
    std::size_t zeroed = 0;
    for (unsigned char byte : buf) {
      if (byte == 0) ++zeroed;
    }
    EXPECT_EQ(zeroed, 16u);
  }
  {
    // Zeroing an already-zero buffer changes nothing and says so.
    fault::SitePlan plan;
    plan.every = 1;
    plan.corrupt = fault::CorruptKind::kStaleZero;
    in.install("k.zero2", plan);
    std::vector<unsigned char> buf(64, 0);
    EXPECT_FALSE(fault::MaybeCorrupt("k.zero2", buf.data(), buf.size()));
  }
  in.clear();
}

TEST(CorruptionInjector, SpecAndDescribeRoundTrip) {
  InjectorReset reset;
  auto& in = fault::Injector::Global();
  std::string err;
  ASSERT_TRUE(in.install_spec(
      "seed=11;shard.read.corrupt:every=3,corrupt=torn,span=32;"
      "cluster.recv.corrupt:nth=2+5,corrupt=bitflip",
      &err))
      << err;
  const std::string desc = in.describe();
  EXPECT_NE(desc.find("seed=11"), std::string::npos);
  EXPECT_NE(desc.find("corrupt=torn"), std::string::npos);
  EXPECT_NE(desc.find("span=32"), std::string::npos);
  EXPECT_NE(desc.find("corrupt=bitflip"), std::string::npos);

  in.clear();
  ASSERT_TRUE(in.install_spec(desc, &err)) << desc << ": " << err;
  EXPECT_EQ(in.describe(), desc);  // canonical fixed point
}

TEST(CorruptionInjector, CorruptionPlansNeverYieldErrno) {
  InjectorReset reset;
  auto& in = fault::Injector::Global();
  fault::SitePlan plan;
  plan.every = 1;
  plan.corrupt = fault::CorruptKind::kBitFlip;
  in.install("c.only", plan);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(in.fire("c.only"), 0);
  // And errno plans never yield corruptions.
  fault::SitePlan errs;
  errs.every = 1;
  in.install("e.only", errs);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(in.fire_corruption("e.only").has_value());
  }
  in.clear();
}

// --- Corrupted-shard decode (present-but-wrong bytes) ---------------------

class CorruptShardDecode : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::Global().clear();
    dir_ = fs::temp_directory_path() /
           ("dialga_corrupt_decode_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    payload_ = MakePayload(4000, 1);
    WriteFileBytes(dir_ / "input.bin", payload_);
  }
  void TearDown() override {
    fault::Injector::Global().clear();
    fs::remove_all(dir_);
  }

  // Flip a byte in the middle of a stored shard file.
  void CorruptShardFile(std::size_t idx) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard_%03zu", idx);
    const fs::path p = dir_ / name;
    std::string bytes = ReadFileBytes(p);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    WriteFileBytes(p, bytes);
  }

  fs::path dir_;
  std::string payload_;
};

TEST_F(CorruptShardDecode, CorruptedDataShardDecodesExactly) {
  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(dir_ / "input.bin", dir_).ok());
  CorruptShardFile(1);  // data shard
  ASSERT_TRUE(store.decode_file(dir_, dir_ / "out.bin").ok());
  EXPECT_EQ(ReadFileBytes(dir_ / "out.bin"), payload_);
}

TEST_F(CorruptShardDecode, CorruptedParityShardDecodesExactly) {
  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(dir_ / "input.bin", dir_).ok());
  CorruptShardFile(5);  // parity shard
  ASSERT_TRUE(store.decode_file(dir_, dir_ / "out.bin").ok());
  EXPECT_EQ(ReadFileBytes(dir_ / "out.bin"), payload_);
  // repair() reports it as corrupt (present, wrong bytes), not missing.
  CorruptShardFile(5);
  const auto report = store.repair(dir_);
  EXPECT_EQ(report.corrupt, std::vector<std::size_t>{5});
}

TEST_F(CorruptShardDecode, BeyondParityCorruptionIsExplicitDamage) {
  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(dir_ / "input.bin", dir_).ok());
  CorruptShardFile(0);
  CorruptShardFile(2);
  CorruptShardFile(4);  // three corrupt > m=2
  const auto st = store.decode_file(dir_, dir_ / "out.bin");
  EXPECT_EQ(st.kind, shard::Status::Kind::kDamaged);
}

TEST_F(CorruptShardDecode, WithoutVerifyOnReadCorruptionPassesThrough) {
  // The control experiment: disabling verify-on-read must surface the
  // rot — proving the defense (not the codec) is what catches it.
  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(dir_ / "input.bin", dir_).ok());
  CorruptShardFile(1);
  store.set_verify_on_read(false);
  ASSERT_TRUE(store.decode_file(dir_, dir_ / "out.bin").ok());
  EXPECT_NE(ReadFileBytes(dir_ / "out.bin"), payload_);
}

TEST_F(CorruptShardDecode, ReadRepairHealsTheGenerationInPlace) {
  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(dir_ / "input.bin", dir_).ok());
  CorruptShardFile(2);
  EXPECT_EQ(store.verify(dir_).size(), 1u);
  ASSERT_TRUE(store.decode_file(dir_, dir_ / "out.bin").ok());
  // decode_file rewrote the healed shard: the generation verifies clean.
  EXPECT_TRUE(store.verify(dir_).empty());
}

// --- The seeded chaos matrix ----------------------------------------------

TEST(CorruptionChaosMatrix, ShardReadSiteNeverReturnsCorruptAsClean) {
  InjectorReset reset;
  for (const std::uint64_t seed : chaos::Seeds()) {
    for (const char* kind : {"bitflip", "torn", "zero"}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " kind=" + kind);
      const fs::path dir =
          fs::temp_directory_path() /
          ("dialga_chaos_shard_" + std::to_string(seed) + "_" + kind);
      fs::remove_all(dir);
      fs::create_directories(dir);
      const std::string payload = MakePayload(5000, seed);
      WriteFileBytes(dir / "input.bin", payload);

      const dialga::DialgaCodec codec(4, 2);
      shard::ShardStore store(codec, 256);
      fault::Injector::Global().clear();
      ASSERT_TRUE(store.encode_file(dir / "input.bin", dir).ok());

      // Corrupt up to m=2 of the 6 whole-shard reads per decode.
      std::string err;
      ASSERT_TRUE(fault::Injector::Global().install_spec(
          "seed=" + std::to_string(seed) +
              ";shard.read.corrupt:every=3,max=2,corrupt=" + kind,
          &err))
          << err;
      const auto st = store.decode_file(dir, dir / "out.bin");
      fault::Injector::Global().clear();
      // Within the parity budget the decode must succeed AND be exact —
      // wrong bytes with an ok status is the one forbidden outcome.
      ASSERT_TRUE(st.ok()) << st.message();
      EXPECT_EQ(ReadFileBytes(dir / "out.bin"), payload);

      // Convergence: the generation on disk still decodes clean with no
      // injection active (read-repair may have rewritten shards, but
      // only with verified bytes).
      ASSERT_TRUE(store.decode_file(dir, dir / "out2.bin").ok());
      EXPECT_EQ(ReadFileBytes(dir / "out2.bin"), payload);
      EXPECT_TRUE(store.verify(dir).empty());
      fs::remove_all(dir);
    }
  }
}

TEST(CorruptionChaosMatrix, ClusterRecvSiteNeverDeliversCorruptFrames) {
  InjectorReset reset;
  for (const std::uint64_t seed : chaos::Seeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fault::Injector::Global().clear();
    cluster::LocalClusterConfig cfg;
    cfg.nodes = 6;
    cfg.geom = {.k = 4, .global = 2, .local = 0, .block_size = 256};
    cluster::LocalCluster c(cfg);

    const std::size_t stripe_bytes = 4 * 256;
    std::string data = MakePayload(stripe_bytes * 3, seed);
    for (std::uint64_t s = 0; s < 3; ++s) {
      std::vector<const std::byte*> ptrs;
      for (std::uint32_t j = 0; j < 4; ++j) {
        ptrs.push_back(reinterpret_cast<const std::byte*>(data.data()) +
                       s * stripe_bytes + j * 256);
      }
      ASSERT_TRUE(c.coordinator()
                      .write_stripe(s, std::span<const std::byte* const>(ptrs))
                      .ok());
    }

    // Corrupt serialized RPC bytes in flight. The wire CRC turns every
    // hit into a transport error; reads either fail explicitly or
    // return exact bytes — never silently-wrong payloads.
    std::string err;
    ASSERT_TRUE(fault::Injector::Global().install_spec(
        "seed=" + std::to_string(seed) +
            ";cluster.recv.corrupt:p=0.3,corrupt=bitflip",
        &err))
        << err;
    for (std::uint64_t s = 0; s < 3; ++s) {
      for (std::uint32_t j = 0; j < 4; ++j) {
        std::vector<std::byte> out;
        const auto r = c.coordinator().read_block(s, j, &out);
        if (r.ok()) {
          ASSERT_EQ(out.size(), 256u);
          EXPECT_EQ(std::memcmp(out.data(),
                                data.data() + s * stripe_bytes + j * 256,
                                256),
                    0);
        }
      }
    }
    fault::Injector::Global().clear();

    // Acked data never lost: with the noise gone every block reads
    // back exact.
    for (std::uint64_t s = 0; s < 3; ++s) {
      for (std::uint32_t j = 0; j < 4; ++j) {
        std::vector<std::byte> out;
        ASSERT_TRUE(c.coordinator().read_block(s, j, &out).ok());
        EXPECT_EQ(std::memcmp(out.data(),
                              data.data() + s * stripe_bytes + j * 256, 256),
                  0);
      }
    }
  }
}

TEST(CorruptionChaosMatrix, ClusterReadRepairConvergesCorruptChunks) {
  InjectorReset reset;
  cluster::LocalClusterConfig cfg;
  cfg.nodes = 6;
  cfg.geom = {.k = 4, .global = 2, .local = 0, .block_size = 256};
  cluster::LocalCluster c(cfg);
  const std::size_t stripe_bytes = 4 * 256;
  std::string data = MakePayload(stripe_bytes, 9);
  std::vector<const std::byte*> ptrs;
  for (std::uint32_t j = 0; j < 4; ++j) {
    ptrs.push_back(reinterpret_cast<const std::byte*>(data.data()) + j * 256);
  }
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(0, std::span<const std::byte* const>(ptrs))
                  .ok());

  // Rot shard 1's chunk at its home; the node detects kCorrupt, the
  // read goes degraded, and read-repair reseats a verified chunk.
  const cluster::NodeId home = c.placement().table(0, cfg.geom)[1];
  ASSERT_TRUE(c.node(home - 1).corrupt_chunk(0, 1));
  std::vector<std::byte> out;
  const auto r = c.coordinator().read_block(0, 1, &out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code, cluster::OpResult::Code::kDegraded);
  EXPECT_EQ(std::memcmp(out.data(), data.data() + 256, 256), 0);

  // Healed in place: the next read is healthy (kOk, not degraded).
  std::vector<std::byte> again;
  const auto r2 = c.coordinator().read_block(0, 1, &again);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.code, cluster::OpResult::Code::kOk);
  EXPECT_EQ(std::memcmp(again.data(), data.data() + 256, 256), 0);
  EXPECT_EQ(c.coordinator().quarantined_stripes(), 0u);
}

}  // namespace
