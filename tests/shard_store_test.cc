#include "shard/shard_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <random>
#include <string>
#include <thread>

#include "dialga/dialga.h"
#include "ec/isal.h"
#include "fault/injector.h"
#include "manifest_seal.h"
#include "obs/metrics.h"
#include "svc/stripe_service.h"

namespace shard {
namespace {

namespace fs = std::filesystem;

constexpr char kSerialFallbacks[] = "dialga_shard_serial_fallbacks_total";
constexpr char kResubmits[] = "dialga_shard_service_resubmits_total";

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name, {}).value();
}

/// Reports a geometry and computes nothing: encode_file must refuse
/// the geometry before any stripe reaches the codec.
class GeometryOnlyCodec : public ec::Codec {
 public:
  GeometryOnlyCodec(std::size_t k, std::size_t m) : k_(k), m_(m) {}
  std::string name() const override { return "geometry-only"; }
  ec::CodeParams params() const override { return {k_, m_}; }
  ec::SimdWidth simd() const override { return ec::SimdWidth::kAvx256; }
  void encode(std::size_t, std::span<const std::byte* const>,
              std::span<std::byte* const>) const override {}
  bool decode(std::size_t, std::span<std::byte* const>,
              std::span<const std::size_t>) const override {
    return false;
  }
  ec::EncodePlan encode_plan(std::size_t,
                             const simmem::ComputeCost&) const override {
    return {};
  }
  ec::EncodePlan decode_plan(std::size_t, const simmem::ComputeCost&,
                             std::span<const std::size_t>) const override {
    return {};
  }

 private:
  std::size_t k_;
  std::size_t m_;
};

class ShardStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dialga_shard_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_input(std::size_t bytes, std::uint64_t seed,
                       const std::string& name = "input.bin") {
    const fs::path p = dir_ / name;
    std::mt19937_64 rng(seed);
    std::ofstream out(p, std::ios::binary);
    for (std::size_t i = 0; i < bytes; ++i) {
      const char c = static_cast<char>(rng());
      out.write(&c, 1);
    }
    return p;
  }

  std::vector<char> slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary | std::ios::ate);
    std::vector<char> v(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(v.data(), static_cast<std::streamsize>(v.size()));
    return v;
  }

  /// `a` and `b` hold one generation byte for byte: `files` files
  /// each (shards + manifest), the same names and contents, and no
  /// temp file left behind by the durable-write protocol.
  void expect_same_generation(const fs::path& a, const fs::path& b,
                              std::size_t files) {
    for (const fs::path& d : {a, b}) {
      std::size_t n = 0;
      for (const auto& e : fs::directory_iterator(d)) {
        ++n;
        EXPECT_EQ(e.path().filename().string().find(".tmp-"),
                  std::string::npos)
            << e.path();
      }
      EXPECT_EQ(n, files) << d;
    }
    for (const auto& e : fs::directory_iterator(a)) {
      const fs::path other = b / e.path().filename();
      ASSERT_TRUE(fs::exists(other)) << other;
      EXPECT_EQ(slurp(e.path()), slurp(other)) << other;
    }
  }

  /// The spare shard files a live store keeps in `d`, sorted: with
  /// `files` entries in all, exactly one temp-named file per shard.
  std::vector<std::string> expect_spares(const fs::path& d, std::size_t shards,
                                         std::size_t files) {
    std::vector<std::string> spares;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(d)) {
      ++n;
      const std::string name = e.path().filename().string();
      if (name.find(".tmp-") != std::string::npos) spares.push_back(name);
    }
    EXPECT_EQ(n, files) << d;
    std::sort(spares.begin(), spares.end());
    EXPECT_EQ(spares.size(), shards) << d;
    for (std::size_t s = 0; s < spares.size() && s < shards; ++s) {
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "shard_%03zu.tmp-", s);
      EXPECT_EQ(spares[s].rfind(prefix, 0), 0u) << spares[s];
    }
    return spares;
  }

  void corrupt_shard(std::size_t index, std::size_t offset) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard_%03zu", index);
    std::fstream f(dir_ / "shards" / name,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    const char garbage = 0x55;
    f.write(&garbage, 1);
  }

  fs::path dir_;
};

TEST_F(ShardStoreTest, ManifestRoundTrips) {
  Manifest mf;
  mf.k = 8;
  mf.m = 3;
  mf.block_size = 4096;
  mf.file_size = 123456;
  mf.shard_checksums.assign(11, 42);
  mf.shard_checksums[5] = 7;
  const auto parsed = Manifest::parse(mf.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->k, 8u);
  EXPECT_EQ(parsed->m, 3u);
  EXPECT_EQ(parsed->block_size, 4096u);
  EXPECT_EQ(parsed->file_size, 123456u);
  EXPECT_EQ(parsed->shard_checksums, mf.shard_checksums);
  EXPECT_EQ(parsed->stripes(), (123456 + 8 * 4096 - 1) / (8 * 4096));
}

TEST_F(ShardStoreTest, ManifestRejectsGarbage) {
  EXPECT_FALSE(Manifest::parse("").has_value());
  EXPECT_FALSE(Manifest::parse("not-a-manifest\n").has_value());
  // Sealed with a valid algo line and manifestsum, so each case is
  // rejected by its geometry or table check, not by the missing sum.
  EXPECT_FALSE(Manifest::parse(SealManifest("k 0\nm 2\nblock 64\nsize 1\n"))
                   .has_value());
  EXPECT_FALSE(
      Manifest::parse(SealManifest("k 2\nm 1\nblock 64\nsize 1\n"))
          .has_value())
      << "missing checksums";
}

TEST_F(ShardStoreTest, EmptyFileRoundTripsThroughOnePaddingStripe) {
  // A zero-byte input still encodes one all-padding stripe, so the
  // manifest's shard_bytes() must agree with the 1-stripe shard files
  // on disk — readers sizing buffers from stripes()==0 would reject
  // every shard of an empty generation as a size mismatch.
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 1024);
  const fs::path input = write_input(0, 1);
  ASSERT_TRUE(store.encode_file(input, dir_ / "shards"));
  EXPECT_TRUE(store.verify(dir_ / "shards").empty());
  ASSERT_TRUE(store.decode_file(dir_ / "shards", dir_ / "out.bin"));
  EXPECT_EQ(fs::file_size(dir_ / "out.bin"), 0u);
}

TEST_F(ShardStoreTest, EncodeVerifyDecodeCleanPath) {
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 1024);
  const fs::path input = write_input(10000, 1);  // not stripe-aligned
  ASSERT_TRUE(store.encode_file(input, dir_ / "shards"));

  EXPECT_TRUE(store.verify(dir_ / "shards").empty());
  ASSERT_TRUE(store.decode_file(dir_ / "shards", dir_ / "out.bin"));
  EXPECT_EQ(slurp(input), slurp(dir_ / "out.bin"));
}

TEST_F(ShardStoreTest, DetectsCorruptShards) {
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 1024);
  ASSERT_TRUE(store.encode_file(write_input(8192, 2), dir_ / "shards"));
  corrupt_shard(1, 17);
  corrupt_shard(5, 0);
  const auto damaged = store.verify(dir_ / "shards");
  EXPECT_EQ(damaged, (std::vector<std::size_t>{1, 5}));
}

TEST_F(ShardStoreTest, DetectsMissingShards) {
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 1024);
  ASSERT_TRUE(store.encode_file(write_input(8192, 3), dir_ / "shards"));
  fs::remove(dir_ / "shards" / "shard_002");
  const auto damaged = store.verify(dir_ / "shards");
  EXPECT_EQ(damaged, (std::vector<std::size_t>{2}));
}

TEST_F(ShardStoreTest, RepairsUpToMShards) {
  const dialga::DialgaCodec codec(6, 2);
  const ShardStore store(codec, 512);
  ASSERT_TRUE(store.encode_file(write_input(20000, 4), dir_ / "shards"));
  corrupt_shard(0, 100);
  fs::remove(dir_ / "shards" / "shard_007");  // a parity shard

  const RepairReport report = store.repair(dir_ / "shards");
  EXPECT_EQ(report.damaged, (std::vector<std::size_t>{0, 7}));
  EXPECT_EQ(report.repaired, report.damaged);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(store.verify(dir_ / "shards").empty());
}

TEST_F(ShardStoreTest, RefusesBeyondTolerance) {
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 1024);
  ASSERT_TRUE(store.encode_file(write_input(8192, 5), dir_ / "shards"));
  corrupt_shard(0, 1);
  corrupt_shard(1, 1);
  corrupt_shard(2, 1);
  const RepairReport report = store.repair(dir_ / "shards");
  EXPECT_EQ(report.damaged.size(), 3u);
  EXPECT_TRUE(report.repaired.empty());
  EXPECT_FALSE(store.decode_file(dir_ / "shards", dir_ / "out.bin"));
}

TEST_F(ShardStoreTest, DecodeRepairsInMemory) {
  const ec::IsalCodec codec(5, 3);
  const ShardStore store(codec, 512);
  const fs::path input = write_input(7777, 6);
  ASSERT_TRUE(store.encode_file(input, dir_ / "shards"));
  corrupt_shard(2, 50);
  corrupt_shard(4, 200);
  ASSERT_TRUE(store.decode_file(dir_ / "shards", dir_ / "out.bin"));
  EXPECT_EQ(slurp(input), slurp(dir_ / "out.bin"));
}

TEST_F(ShardStoreTest, TinyFileSingleStripe) {
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 256);
  const fs::path input = write_input(10, 7);
  ASSERT_TRUE(store.encode_file(input, dir_ / "shards"));
  fs::remove(dir_ / "shards" / "shard_000");
  ASSERT_TRUE(store.repair(dir_ / "shards").ok());
  ASSERT_TRUE(store.decode_file(dir_ / "shards", dir_ / "out.bin"));
  EXPECT_EQ(slurp(input), slurp(dir_ / "out.bin"));
}

TEST_F(ShardStoreTest, ManifestParserSurvivesFuzz) {
  // Random garbage, random truncations of a valid manifest, and random
  // token substitutions: parse() must never crash and must reject
  // anything structurally incomplete.
  Manifest valid;
  valid.k = 6;
  valid.m = 2;
  valid.block_size = 1024;
  valid.file_size = 5000;
  valid.shard_checksums.assign(8, 17);
  const std::string good = valid.serialize();

  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    switch (trial % 3) {
      case 0: {  // pure garbage
        const std::size_t n = rng() % 200;
        for (std::size_t i = 0; i < n; ++i)
          text += static_cast<char>(rng() % 128);
        break;
      }
      case 1:  // truncated valid manifest
        text = good.substr(0, rng() % good.size());
        break;
      case 2: {  // single-byte corruption of a valid manifest
        text = good;
        text[rng() % text.size()] = static_cast<char>(rng() % 128);
        break;
      }
    }
    const auto parsed = Manifest::parse(text);  // must not crash
    if (parsed) {
      // Anything accepted must be structurally consistent.
      EXPECT_EQ(parsed->shard_checksums.size(), parsed->k + parsed->m);
      EXPECT_GT(parsed->k, 0u);
      EXPECT_GT(parsed->block_size, 0u);
    }
  }
}

// The service-attached file datapath, which eccli runs by default,
// writes the serial store's generation byte for byte; the service
// completes every stripe (the scatter read dispatches each one as its
// blocks land) with no serial fallback; and healthy and
// one-data-shard-lost decodes are bit-exact.
TEST_F(ShardStoreTest, ServiceAttachedStoreMatchesTheSerialStore) {
  constexpr std::size_t k = 8, m = 3, bs = 64 * 1024;
  constexpr std::size_t stripes = 9;  // 8 full + a partial tail
  const ec::IsalCodec codec(k, m);
  const fs::path input = write_input(8 * k * bs + 5 * bs + 777, 12);
  const auto original = slurp(input);
  ASSERT_TRUE(ShardStore(codec, bs).encode_file(input, dir_ / "serial"));

  svc::StripeService service;
  ShardStore store(codec, bs);
  store.use_service(&service);
  const fs::path shards = dir_ / "service";
  const std::uint64_t fallbacks = CounterValue(kSerialFallbacks);

  std::uint64_t completed = service.stats().completed_ok;
  ASSERT_TRUE(store.encode_file(input, shards));
  EXPECT_EQ(service.stats().completed_ok - completed, stripes);
  expect_same_generation(dir_ / "serial", shards, k + m + 1);

  ASSERT_TRUE(store.decode_file(shards, dir_ / "out.bin"));
  EXPECT_EQ(slurp(dir_ / "out.bin"), original);
  fs::remove(shards / "shard_002");
  completed = service.stats().completed_ok;
  ASSERT_TRUE(store.decode_file(shards, dir_ / "degraded.bin"));
  EXPECT_EQ(slurp(dir_ / "degraded.bin"), original);
  EXPECT_EQ(service.stats().completed_ok - completed, stripes);
  EXPECT_EQ(CounterValue(kSerialFallbacks), fallbacks);
}

// With every admission refused, the default policy runs each rejected
// stripe on the serial codec: encode and a degraded decode stay
// bit-exact, one fallback per stripe each.
TEST_F(ShardStoreTest, RejectedStripesFallBackToTheSerialCodec) {
  constexpr std::size_t stripes = 3;
  const ec::IsalCodec codec(4, 2);
  const fs::path input = write_input(2 * 4 * 1024 + 1000, 13);
  svc::StripeService service;
  ShardStore store(codec, 1024);
  store.use_service(&service);
  fault::SitePlan plan;
  plan.probability = 1.0;
  const fault::ScopedPlan scoped("svc.admission", plan);

  std::uint64_t fallbacks = CounterValue(kSerialFallbacks);
  ASSERT_TRUE(store.encode_file(input, dir_ / "shards"));
  EXPECT_EQ(CounterValue(kSerialFallbacks) - fallbacks, stripes);
  fs::remove(dir_ / "shards" / "shard_001");
  fallbacks = CounterValue(kSerialFallbacks);
  ASSERT_TRUE(store.decode_file(dir_ / "shards", dir_ / "out.bin"));
  EXPECT_EQ(CounterValue(kSerialFallbacks) - fallbacks, stripes);
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
}

// A strict budget (no serial fallback) surfaces kRetryExhausted — what
// eccli's exit 4 reports — after exactly its resubmissions, and the
// failed re-encode leaves the previous generation as it was.
TEST_F(ShardStoreTest, StrictBudgetSurfacesRetryExhaustion) {
  const ec::IsalCodec codec(4, 2);
  ShardStore store(codec, 1024);
  ASSERT_TRUE(store.encode_file(write_input(9000, 14), dir_ / "shards"));
  fs::copy(dir_ / "shards", dir_ / "before");

  svc::StripeService service;
  store.use_service(&service);
  ServicePolicy policy;
  policy.retry.max_retries = 2;
  policy.serial_fallback = false;
  store.set_service_policy(policy);
  fault::SitePlan plan;
  plan.probability = 1.0;
  const fault::ScopedPlan scoped("svc.admission", plan);

  const std::uint64_t resubmits = CounterValue(kResubmits);
  const Status st = store.encode_file(write_input(12000, 15), dir_ / "shards");
  EXPECT_EQ(st.kind, Status::Kind::kRetryExhausted) << st.message();
  EXPECT_EQ(CounterValue(kResubmits) - resubmits, 2u);
  expect_same_generation(dir_ / "before", dir_ / "shards", 4 + 2 + 1);
}

// encode_file refuses every geometry Manifest::parse rejects before it
// reads or writes anything: the generation could never be read back.
TEST_F(ShardStoreTest, EncodeRefusesGeometriesTheManifestRejects) {
  const fs::path input = write_input(5000, 16);
  const struct {
    std::size_t k, m, block;
  } bad[] = {{0, 2, 1024},
             {4, 0, 1024},
             {4000, 97, 1024},
             {4, 2, 0},
             {4, 2, (std::size_t{1} << 30) + 1}};
  for (const auto& g : bad) {
    SCOPED_TRACE("k=" + std::to_string(g.k) + " m=" + std::to_string(g.m) +
                 " block=" + std::to_string(g.block));
    const GeometryOnlyCodec codec(g.k, g.m);
    const Status st =
        ShardStore(codec, g.block).encode_file(input, dir_ / "shards");
    EXPECT_EQ(st.kind, Status::Kind::kIoError);
    EXPECT_EQ(st.error, EINVAL);
    EXPECT_FALSE(fs::exists(dir_ / "shards"));
  }
}

// Re-encode different content into the same directory with a write
// failing: the shards of a generation commit as one group, so a
// shard.write fault at the first, a middle or the last shard's consult
// leaves generation 1 byte-identical and decodable, with no file of
// generation 2 and no temp in the directory. The faulted encodes first
// write fresh temps (the store's one successful encode replaced
// nothing, so it holds no spares), then overwrite the k+m spares a
// successful re-encode of generation 1 leaves; the failure unlinks
// every one.
TEST_F(ShardStoreTest, FailedReencodePreservesThePreviousGeneration) {
  constexpr std::size_t k = 4, m = 2;
  const ec::IsalCodec codec(k, m);
  const ShardStore store(codec, 1024);
  const auto v1_bytes = slurp(write_input(9000, 9, "v1.bin"));
  ASSERT_TRUE(store.encode_file(dir_ / "v1.bin", dir_ / "shards"));
  fs::copy(dir_ / "shards", dir_ / "before");
  write_input(12000, 10, "v2.bin");

  for (const bool recycled : {false, true}) {
    for (const std::uint64_t nth : {std::size_t{1}, (k + m) / 2, k + m}) {
      SCOPED_TRACE(std::string(recycled ? "recycled" : "fresh") +
                   " temps, shard.write fires at consult " +
                   std::to_string(nth));
      if (recycled) {
        ASSERT_TRUE(store.encode_file(dir_ / "v1.bin", dir_ / "shards"));
        expect_spares(dir_ / "shards", k + m, 2 * (k + m) + 1);
      }
      {
        fault::SitePlan plan;
        plan.nth = {nth};
        plan.error = EIO;
        const fault::ScopedPlan scoped("shard.write", plan);
        const Status st = store.encode_file(dir_ / "v2.bin", dir_ / "shards");
        EXPECT_EQ(st.kind, Status::Kind::kIoError) << st.message();
        EXPECT_EQ(st.error, EIO);
      }
      expect_same_generation(dir_ / "before", dir_ / "shards", k + m + 1);
      ASSERT_TRUE(store.decode_file(dir_ / "shards", dir_ / "out.bin"));
      EXPECT_EQ(slurp(dir_ / "out.bin"), v1_bytes);
    }
  }
}

// A store hands the slabs of its last call, as they are, to the next
// call of the same slab size. Every file below fills one page-sized
// slab per shard (5, 3, 2 and 1 stripes of 256 bytes), so the
// 2.5-stripe encode runs on the 5-stripe encode's slabs, and the
// partial-block and empty encodes on slabs a decode filled: encode must
// zero their padding itself, or their shards and manifest would differ
// from a fresh store's.
TEST_F(ShardStoreTest, RecycledBuffersMatchAFreshStore) {
  constexpr std::size_t k = 4, m = 2, bs = 256;
  const ec::IsalCodec codec(k, m);
  const ShardStore store(codec, bs);
  ASSERT_TRUE(
      store.encode_file(write_input(5 * k * bs, 19, "five.bin"),
                        dir_ / "five"));
  const fs::path input = write_input(5 * k * bs / 2, 20, "half.bin");
  ASSERT_TRUE(store.encode_file(input, dir_ / "half"));
  ASSERT_TRUE(ShardStore(codec, bs).encode_file(input, dir_ / "fresh"));
  expect_same_generation(dir_ / "fresh", dir_ / "half", k + m + 1);

  fs::remove(dir_ / "half" / "shard_001");
  ASSERT_TRUE(store.decode_file(dir_ / "half", dir_ / "out.bin"));
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
  // Read-repair healed shard_001 from the recycled buffers too.
  expect_same_generation(dir_ / "fresh", dir_ / "half", k + m + 1);

  // A partial last block, then an empty file's all-padding stripe.
  for (const std::size_t bytes : {k * bs + 100, std::size_t{0}}) {
    SCOPED_TRACE(std::to_string(bytes) + " bytes");
    const std::string tag = std::to_string(bytes);
    const fs::path in = write_input(bytes, 23, tag + ".bin");
    ASSERT_TRUE(store.encode_file(in, dir_ / tag));
    ASSERT_TRUE(
        ShardStore(codec, bs).encode_file(in, dir_ / (tag + "_fresh")));
    expect_same_generation(dir_ / (tag + "_fresh"), dir_ / tag, k + m + 1);
    ASSERT_TRUE(store.decode_file(dir_ / tag, dir_ / "out.bin"));
    EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(in));
  }
}

// A re-encode recycles the shard files it replaces. The first encode
// into a directory replaces nothing; the second leaves generation 1's
// k+m shards as temp-named spares beside generation 2; the third
// overwrites those spares as its temps, so the same spare names come
// back. Every generation decodes bit-exact, and the store's destructor
// deletes its spares.
TEST_F(ShardStoreTest, ReencodeRecyclesTheReplacedShardFiles) {
  constexpr std::size_t k = 4, m = 2;
  const ec::IsalCodec codec(k, m);
  const fs::path shards = dir_ / "shards";
  const auto v1 = slurp(write_input(9000, 24, "v1.bin"));
  const auto v2 = slurp(write_input(12000, 25, "v2.bin"));
  {
    const ShardStore store(codec, 1024);
    ASSERT_TRUE(store.encode_file(dir_ / "v1.bin", shards));
    expect_spares(shards, 0, k + m + 1);
    ASSERT_TRUE(store.decode_file(shards, dir_ / "out.bin"));
    EXPECT_EQ(slurp(dir_ / "out.bin"), v1);

    ASSERT_TRUE(store.encode_file(dir_ / "v2.bin", shards));
    const auto spares = expect_spares(shards, k + m, 2 * (k + m) + 1);
    ASSERT_TRUE(store.decode_file(shards, dir_ / "out.bin"));
    EXPECT_EQ(slurp(dir_ / "out.bin"), v2);

    ASSERT_TRUE(store.encode_file(dir_ / "v1.bin", shards));
    EXPECT_EQ(expect_spares(shards, k + m, 2 * (k + m) + 1), spares);
    ASSERT_TRUE(store.decode_file(shards, dir_ / "out.bin"));
    EXPECT_EQ(slurp(dir_ / "out.bin"), v1);
  }
  expect_spares(shards, 0, k + m + 1);
  ASSERT_TRUE(ShardStore(codec, 1024).decode_file(shards, dir_ / "out.bin"));
  EXPECT_EQ(slurp(dir_ / "out.bin"), v1);
}

// A store keeps spares for one directory: encoding into another one
// deletes them, leaving the first directory's generation alone.
TEST_F(ShardStoreTest, EncodeIntoAnotherDirectoryDeletesTheSpares) {
  constexpr std::size_t k = 4, m = 2;
  const ec::IsalCodec codec(k, m);
  const ShardStore store(codec, 1024);
  const auto v1 = slurp(write_input(9000, 26, "v1.bin"));
  const auto v2 = slurp(write_input(12000, 27, "v2.bin"));
  ASSERT_TRUE(store.encode_file(dir_ / "v1.bin", dir_ / "a"));
  ASSERT_TRUE(store.encode_file(dir_ / "v2.bin", dir_ / "a"));
  expect_spares(dir_ / "a", k + m, 2 * (k + m) + 1);
  ASSERT_TRUE(store.encode_file(dir_ / "v1.bin", dir_ / "b"));
  expect_spares(dir_ / "a", 0, k + m + 1);
  expect_spares(dir_ / "b", 0, k + m + 1);
  ASSERT_TRUE(store.decode_file(dir_ / "a", dir_ / "out_a.bin"));
  EXPECT_EQ(slurp(dir_ / "out_a.bin"), v2);
  ASSERT_TRUE(store.decode_file(dir_ / "b", dir_ / "out_b.bin"));
  EXPECT_EQ(slurp(dir_ / "out_b.bin"), v1);
}

// File calls on one store may overlap: each takes the spare buffer set
// or allocates its own, and the two shard sizes here keep the spare
// changing size under both threads.
TEST_F(ShardStoreTest, ConcurrentCallsOnOneStoreStayBitExact) {
  constexpr int kRounds = 20;
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 1024);
  auto worker = [&](int t, std::size_t bytes) {
    std::string tag = "t";
    tag += std::to_string(t);
    const fs::path input = write_input(bytes, 21 + t, tag + ".bin");
    const auto original = slurp(input);
    for (int round = 0; round < kRounds; ++round) {
      ASSERT_TRUE(store.encode_file(input, dir_ / (tag + "_shards")));
      ASSERT_TRUE(
          store.decode_file(dir_ / (tag + "_shards"), dir_ / (tag + ".out")));
      ASSERT_EQ(slurp(dir_ / (tag + ".out")), original) << "round " << round;
    }
  };
  std::thread a(worker, 0, 3 * 4 * 1024 - 100);
  std::thread b(worker, 1, 7 * 4 * 1024 + 300);
  a.join();
  b.join();
}

// Every directory level encode_file creates is fsynced into its parent;
// a generation in a new three-level path reads back bit-exact.
TEST_F(ShardStoreTest, EncodeCreatesEveryMissingDirectoryLevel) {
  const ec::IsalCodec codec(4, 2);
  const ShardStore store(codec, 1024);
  const fs::path input = write_input(6000, 22);
  const fs::path deep = dir_ / "a" / "b" / "c";
  ASSERT_TRUE(store.encode_file(input, deep));
  ASSERT_TRUE(store.decode_file(deep, dir_ / "out.bin"));
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
}

TEST_F(ShardStoreTest, RetryBackoffIsClampedToTheDeadline) {
  using namespace std::chrono_literals;
  const ec::IsalCodec codec(4, 2);
  ShardStore store(codec, 1024);
  ASSERT_TRUE(store.encode_file(write_input(8192, 11), dir_ / "shards"));

  // Every read fails EINTR forever. An unclamped schedule would sleep
  // ~20ms doubling per attempt for 50 attempts (tens of seconds); the
  // deadline clamp caps total backoff at ~50ms, so the operation must
  // return an explicit failure almost immediately.
  ServicePolicy policy;
  policy.deadline = 50ms;
  policy.retry.max_retries = 50;
  policy.retry.base_delay = 20ms;
  policy.retry.max_delay = 500ms;
  store.set_service_policy(policy);
  fault::SitePlan plan;
  plan.probability = 1.0;
  plan.error = EINTR;
  const fault::ScopedPlan scoped("shard.read", plan);

  const auto t0 = std::chrono::steady_clock::now();
  const Status st = store.decode_file(dir_ / "shards", dir_ / "out.bin");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.kind, Status::Kind::kRetryExhausted) << st.message();
  EXPECT_LT(elapsed, 2s) << "backoff ignored the deadline budget";
}

TEST_F(ShardStoreTest, ChecksumIsStable) {
  // Shard checksums are CRC-32C.
  const std::vector<std::byte> data{std::byte{1}, std::byte{2},
                                    std::byte{3}};
  EXPECT_EQ(integrity::Crc32c(data.data(), data.size()),
            integrity::Crc32c(data.data(), data.size()));
  EXPECT_NE(integrity::Crc32c(data.data(), 2),
            integrity::Crc32c(data.data(), 3));
}

}  // namespace
}  // namespace shard
