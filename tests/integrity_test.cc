// Checksum-layer tests: CRC-32C known-answer vectors, the hardware/
// software differential at every tail length, the manifest format
// pinned byte for byte, fail-closed rejection of generations this code
// does not read (FNV-1a or algo-less manifests), the
// manifest-hardening regressions (a bit-flipped or truncated manifest
// must be a parse failure, never a silently-zero table), and the
// per-layer attribution of the dialga_integrity_* counters.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dialga/dialga.h"
#include "eccli_runner.h"
#include "gf/gf_simd.h"
#include "integrity/checksum.h"
#include "obs/metrics.h"
#include "shard/shard_store.h"

namespace {

namespace fs = std::filesystem;

// --- CRC-32C algorithm ---------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 (iSCSI) test vectors for the Castagnoli polynomial.
  EXPECT_EQ(integrity::Crc32c(nullptr, 0), 0u);
  const char digits[] = "123456789";
  EXPECT_EQ(integrity::Crc32c(digits, 9), 0xE3069283u);
  std::vector<unsigned char> zeros(32, 0x00);
  EXPECT_EQ(integrity::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(integrity::Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

/// Deterministic, aperiodic bytes (the top byte of a 64-bit LCG), so a
/// kernel that swapped or misfolded two equal-sized sub-blocks could
/// not hash to the same value by accident.
std::vector<unsigned char> LcgBytes(std::size_t n) {
  std::vector<unsigned char> buf(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(x >> 56);
  }
  return buf;
}

TEST(Crc32c, SoftwareMatchesDispatchedAtEveryTailLength) {
  // The hardware path aligns to 8 bytes, runs three chains over 8 KiB
  // and then 256 B sub-blocks, and finishes with one chain of words
  // and a byte tail. Every start offset 0-7 crossed with every length
  // up to a few words, the lengths around both three-block thresholds,
  // and whole-chunk sizes exercises every stage and every hand-off
  // between them. When the build or CPU lacks SSE4.2 both sides run
  // software and the test degenerates to self-consistency — still
  // worth keeping as a guard against accidental divergence of the two
  // entry points.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 97; ++n) lengths.push_back(n);
  for (const std::size_t threshold : {3 * 256, 3 * 8192}) {
    for (std::size_t n = threshold - 16; n <= threshold + 16; ++n) {
      lengths.push_back(n);
    }
  }
  for (std::size_t n = (64 << 10) - 7; n <= (64 << 10) + 7; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back((3 << 20) + 5);
  const std::vector<unsigned char> buf = LcgBytes((3 << 20) + 5 + 7);
  for (std::size_t off = 0; off < 8; ++off) {
    for (const std::size_t n : lengths) {
      EXPECT_EQ(integrity::Crc32c(buf.data() + off, n),
                integrity::Crc32cSoftware(buf.data() + off, n))
          << "offset " << off << " length " << n;
    }
  }
}

TEST(Crc32c, KnownAnswersForChunkSizedBuffers) {
  // Computed by a single dependent crc32 chain and by slicing-by-8,
  // independently of the three-chain kernel, so the hardware and
  // software paths cannot drift together.
  const std::vector<unsigned char> buf = LcgBytes(3 << 20);
  EXPECT_EQ(integrity::Crc32c(buf.data(), 64 << 10), 0xBCDFF453u);
  EXPECT_EQ(integrity::Crc32cSoftware(buf.data(), 64 << 10), 0xBCDFF453u);
  EXPECT_EQ(integrity::Crc32c(buf.data(), buf.size()), 0x738869A6u);
  EXPECT_EQ(integrity::Crc32cSoftware(buf.data(), buf.size()), 0x738869A6u);
}

TEST(Crc32c, ScalarIsaPinsSoftwarePath) {
  const gf::IsaLevel prev = gf::active_isa();
  gf::set_active_isa(gf::IsaLevel::kScalar);
  EXPECT_FALSE(integrity::Crc32cUsesHardware());
  const char data[] = "dialga";
  const std::uint32_t scalar_sum = integrity::Crc32c(data, 6);
  gf::set_active_isa(prev);
  // Cross-ISA bit-identical: whatever path the restored level selects
  // must produce the same value.
  EXPECT_EQ(integrity::Crc32c(data, 6), scalar_sum);
  EXPECT_EQ(scalar_sum, integrity::Crc32cSoftware(data, 6));
}

// --- Manifest versioning and hardening -----------------------------------

shard::Manifest MakeManifest() {
  shard::Manifest mf;
  mf.k = 4;
  mf.m = 2;
  mf.block_size = 64;
  mf.file_size = 200;
  mf.shard_checksums = {11, 22, 33, 44, 55, 66};
  return mf;
}

TEST(ManifestVersioning, SerializeParseRoundTrip) {
  const shard::Manifest mf = MakeManifest();
  const auto back = shard::Manifest::parse(mf.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->k, mf.k);
  EXPECT_EQ(back->m, mf.m);
  EXPECT_EQ(back->shard_checksums, mf.shard_checksums);
}

TEST(ManifestVersioning, SerializeMatchesThePinnedFormat) {
  // Bytes written for this manifest by the release that still read the
  // older generations: today's format is unchanged, so every
  // generation written since CRC-32C became the default still reads.
  const std::string pinned =
      "dialga-shard-v1\n"
      "k 4\nm 2\nblock 64\nsize 200\n"
      "algo crc32c\n"
      "shard 0 11\nshard 1 22\nshard 2 33\n"
      "shard 3 44\nshard 4 55\nshard 5 66\n"
      "manifestsum 3215156871\n";
  EXPECT_EQ(MakeManifest().serialize(), pinned);
  EXPECT_TRUE(shard::Manifest::parse(pinned).has_value());
}

// FNV-1a 64, the retired manifest algorithm — computed here only to
// build a faithful generation that the parser must refuse.
std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// `text` with its algo and manifestsum lines removed: the algo-less
/// layout that predates manifest versioning.
std::string StripVersionLines(std::string text) {
  text.erase(text.find("algo crc32c\n"), 12);
  text.resize(text.rfind("manifestsum "));
  return text;
}

/// `text` re-sealed as an FNV-1a generation: `algo fnv1a` and an FNV
/// manifestsum over everything before it.
std::string AsFnv1aGeneration(std::string text) {
  text.replace(text.find("algo crc32c"), 11, "algo fnv1a");
  text.resize(text.rfind("manifestsum "));
  return text + "manifestsum " + std::to_string(Fnv1a(text)) + "\n";
}

TEST(ManifestVersioning, AlgoLessManifestRejected) {
  const std::string legacy = StripVersionLines(MakeManifest().serialize());
  ASSERT_EQ(legacy.find("algo"), std::string::npos);
  EXPECT_FALSE(shard::Manifest::parse(legacy).has_value());
  // Rejected for the missing algo line itself, even under a valid sum.
  const std::string summed =
      legacy + "manifestsum " +
      std::to_string(integrity::Crc32c(legacy.data(), legacy.size())) + "\n";
  EXPECT_FALSE(shard::Manifest::parse(summed).has_value());
}

TEST(ManifestVersioning, Fnv1aManifestRejected) {
  const std::string fnv = AsFnv1aGeneration(MakeManifest().serialize());
  ASSERT_NE(fnv.find("algo fnv1a\n"), std::string::npos);
  EXPECT_FALSE(shard::Manifest::parse(fnv).has_value());
}

TEST(ManifestHardening, BitFlippedChecksumTableRejected) {
  std::string text = MakeManifest().serialize();
  // Flip one digit inside a shard checksum value.
  const std::size_t pos = text.find("shard 2 33");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '4';  // 33 -> 43
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, EveryTruncationRejected) {
  // A versioned manifest cut anywhere — losing the sum line, half the
  // table, or a single trailing byte — must be a parse failure. (Very
  // short prefixes also fail, on the header check.)
  const std::string text = MakeManifest().serialize();
  for (std::size_t cut = 1; cut < text.size(); ++cut) {
    EXPECT_FALSE(shard::Manifest::parse(text.substr(0, cut)).has_value())
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(ManifestHardening, TrailingGarbageAfterSumRejected) {
  std::string text = MakeManifest().serialize();
  text += "shard 0 999\n";  // would escape the self-checksum
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, FlippedSumValueRejected) {
  std::string text = MakeManifest().serialize();
  const std::size_t pos = text.rfind("manifestsum ");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + 12];
  digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, AlgoWithoutSumRejected) {
  // Declaring an algorithm obliges the self-checksum; a truncated
  // manifest that kept the algo line but lost the sum must not parse.
  std::string text = MakeManifest().serialize();
  const std::size_t pos = text.rfind("manifestsum ");
  ASSERT_NE(pos, std::string::npos);
  text.resize(pos);
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

TEST(ManifestHardening, UnknownAlgoRejected) {
  std::string text = MakeManifest().serialize();
  const std::size_t pos = text.find("algo crc32c");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "algo sha999");
  EXPECT_FALSE(shard::Manifest::parse(text).has_value());
}

// --- Cross-generation compatibility on disk -------------------------------

void WriteFileBytes(const fs::path& p, const std::string& s) {
  std::ofstream(p, std::ios::binary) << s;
}

std::string ReadFileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CrossGeneration, UnsupportedGenerationsFailClosed) {
  const fs::path dir =
      fs::temp_directory_path() / "dialga_integrity_unsupported_gen";
  fs::remove_all(dir);
  const fs::path input = dir / "input.bin";
  fs::create_directories(dir);
  WriteFileBytes(input, std::string(3000, 'q'));

  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(input, dir).ok());
  const std::string today = ReadFileBytes(dir / "manifest.txt");

  for (const std::string& old_gen :
       {StripVersionLines(today), AsFnv1aGeneration(today)}) {
    SCOPED_TRACE(old_gen);
    WriteFileBytes(dir / "manifest.txt", old_gen);
    EXPECT_EQ(store.verify(dir), std::vector<std::size_t>{SIZE_MAX});
    const shard::Status st = store.decode_file(dir, dir / "out.bin");
    EXPECT_EQ(st.kind, shard::Status::Kind::kDamaged);
    EXPECT_NE(st.message().find("unsupported"), std::string::npos);

    std::string out;
    EXPECT_EQ(RunEccli("verify " + dir.string(), &out), 1);
    EXPECT_NE(out.find("unsupported"), std::string::npos) << out;
    out.clear();
    EXPECT_EQ(
        RunEccli("decode " + dir.string() + " " + (dir / "out.bin").string(),
                 &out),
        1);
    EXPECT_NE(out.find("unsupported"), std::string::npos) << out;
  }
  // The same shards under today's manifest still verify.
  WriteFileBytes(dir / "manifest.txt", today);
  EXPECT_TRUE(store.verify(dir).empty());
  fs::remove_all(dir);
}

TEST(CrossGeneration, Crc32cManifestRecordsAlgorithm) {
  const fs::path dir =
      fs::temp_directory_path() / "dialga_integrity_crc_gen";
  fs::remove_all(dir);
  const fs::path input = dir / "input.bin";
  fs::create_directories(dir);
  WriteFileBytes(input, std::string(1000, 'x'));

  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(input, dir).ok());
  const std::string text = ReadFileBytes(dir / "manifest.txt");
  EXPECT_NE(text.find("algo crc32c\n"), std::string::npos);
  EXPECT_NE(text.find("manifestsum "), std::string::npos);
  EXPECT_TRUE(store.verify(dir).empty());
  fs::remove_all(dir);
}

// --- Per-layer metric attribution -------------------------------------------

std::uint64_t IntegrityCount(const std::string& family,
                             const std::string& layer) {
  return obs::Registry::Global().counter(family, {{"layer", layer}}).value();
}

TEST(IntegrityMetrics, CorruptShardDecodeCountsOnTheShardLayerOnly) {
  const fs::path dir = fs::temp_directory_path() / "dialga_integrity_layer";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string payload(3000, 'z');
  WriteFileBytes(dir / "input.bin", payload);

  const dialga::DialgaCodec codec(4, 2);
  shard::ShardStore store(codec, 256);
  ASSERT_TRUE(store.encode_file(dir / "input.bin", dir).ok());
  std::string shard = ReadFileBytes(dir / "shard_002");
  ASSERT_FALSE(shard.empty());
  shard[shard.size() / 2] ^= 0x20;
  WriteFileBytes(dir / "shard_002", shard);

  // Register the families (with their help text) before reading them.
  (void)integrity::Metrics::Get();
  const char* kVerify = "dialga_integrity_verify_total";
  const char* kCorrupt = "dialga_integrity_corrupt_total";
  const std::uint64_t shard_verify = IntegrityCount(kVerify, "shard");
  const std::uint64_t shard_corrupt = IntegrityCount(kCorrupt, "shard");
  const std::uint64_t cluster_verify = IntegrityCount(kVerify, "cluster");
  const std::uint64_t cluster_corrupt = IntegrityCount(kCorrupt, "cluster");

  ASSERT_TRUE(store.decode_file(dir, dir / "out.bin").ok());
  EXPECT_EQ(ReadFileBytes(dir / "out.bin"), payload);

  // One verify per shard read (k + m), one mismatch, all on "shard".
  EXPECT_EQ(IntegrityCount(kVerify, "shard") - shard_verify, 6u);
  EXPECT_EQ(IntegrityCount(kCorrupt, "shard") - shard_corrupt, 1u);
  EXPECT_EQ(IntegrityCount(kVerify, "cluster"), cluster_verify);
  EXPECT_EQ(IntegrityCount(kCorrupt, "cluster"), cluster_corrupt);
  fs::remove_all(dir);
}

}  // namespace
