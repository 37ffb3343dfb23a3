// Hostile-input suite for the cluster wire codec: round-trips,
// truncation at every byte boundary, seeded random mutation, and
// adversarial size fields. The contract under test — DecodeFrame
// never crashes, never reads out of bounds (the CI chaos job runs
// this under ASan+UBSan), and never allocates more than a frame's
// bounds-checked declared sizes.
#include "cluster/wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>

#include "integrity/checksum.h"

namespace {

using cluster::Blob;
using cluster::DecodeFrame;
using cluster::EncodeFrame;
using cluster::Frame;
using cluster::MsgType;
using cluster::ParseStatus;
using cluster::WireStatus;

Frame SampleFrame() {
  Frame f;
  f.type = MsgType::kEncode;
  f.seq = 0x0123456789abcdefull;
  f.stripe = 42;
  f.shard = 3;
  f.status = WireStatus::kStoreFailed;
  f.aux = 7;
  f.geom = {.k = 4, .global = 2, .local = 2, .block_size = 4096};
  f.placement = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::uint32_t i = 0; i < 3; ++i) {
    Blob b;
    b.index = i;
    b.bytes.assign(64 + i, std::byte{static_cast<unsigned char>(i + 1)});
    f.blocks.push_back(std::move(b));
  }
  return f;
}

bool FramesEqual(const Frame& a, const Frame& b) {
  if (a.type != b.type || a.seq != b.seq || a.stripe != b.stripe ||
      a.shard != b.shard || a.status != b.status || a.aux != b.aux ||
      !(a.geom == b.geom) || a.placement != b.placement ||
      a.blocks.size() != b.blocks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    if (a.blocks[i].index != b.blocks[i].index ||
        a.blocks[i].bytes != b.blocks[i].bytes) {
      return false;
    }
  }
  return true;
}

TEST(WireTest, RoundTrip) {
  const Frame f = SampleFrame();
  const auto bytes = EncodeFrame(f);
  Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes, &out, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_TRUE(FramesEqual(f, out));
}

TEST(WireTest, RoundTripEveryType) {
  for (std::uint8_t t = 1; t <= 12; ++t) {
    Frame f;
    f.type = static_cast<MsgType>(t);
    f.seq = t;
    const auto bytes = EncodeFrame(f);
    Frame out;
    ASSERT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kOk) << int(t);
    EXPECT_EQ(out.type, f.type);
  }
}

TEST(WireTest, EmptyFrameFields) {
  Frame f;  // all defaults
  const auto bytes = EncodeFrame(f);
  Frame out;
  ASSERT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kOk);
  EXPECT_TRUE(FramesEqual(f, out));
}

TEST(WireFuzzTest, TruncationAtEveryLength) {
  const auto bytes = EncodeFrame(SampleFrame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Frame out;
    const ParseStatus st =
        DecodeFrame(std::span<const std::byte>(bytes.data(), len), &out,
                    nullptr);
    // A prefix is either recognizably incomplete or (if the cut hits
    // inside a length field's claim) malformed — never kOk.
    EXPECT_NE(st, ParseStatus::kOk) << "prefix length " << len;
  }
}

TEST(WireFuzzTest, TrailingGarbageRejected) {
  auto bytes = EncodeFrame(SampleFrame());
  bytes.push_back(std::byte{0xaa});
  Frame out;
  // DecodeFrame parses ONE frame; extra bytes past the declared length
  // are the caller's (a stream would start the next frame there), so a
  // single-frame parse of the padded buffer reports the true length.
  std::size_t consumed = 0;
  const ParseStatus st = DecodeFrame(bytes, &out, &consumed);
  if (st == ParseStatus::kOk) {
    EXPECT_EQ(consumed, bytes.size() - 1);
  } else {
    EXPECT_EQ(st, ParseStatus::kMalformed);
  }
}

TEST(WireFuzzTest, BadMagicVersionType) {
  const auto good = EncodeFrame(SampleFrame());
  {
    auto bytes = good;
    bytes[0] = std::byte{0x00};  // magic low byte
    Frame out;
    EXPECT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kMalformed);
  }
  {
    auto bytes = good;
    bytes[2] = std::byte{99};  // version
    Frame out;
    EXPECT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kMalformed);
  }
  {
    auto bytes = good;
    bytes[3] = std::byte{0};  // type 0 invalid
    Frame out;
    EXPECT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kMalformed);
  }
  {
    auto bytes = good;
    bytes[3] = std::byte{200};  // type out of range
    Frame out;
    EXPECT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kMalformed);
  }
}

TEST(WireFuzzTest, HugeDeclaredBodyIsMalformedNotAllocated) {
  // Header claiming a body far past kMaxWireBody must be rejected from
  // the first 8 header bytes alone.
  std::vector<std::byte> bytes(8);
  bytes[0] = std::byte{0x17};
  bytes[1] = std::byte{0xDC};
  bytes[2] = std::byte{cluster::kWireVersion};
  bytes[3] = std::byte{11}; // kHeartbeat
  const std::uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + 4, &huge, 4);
  Frame out;
  EXPECT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kMalformed);
}

TEST(WireFuzzTest, HugeCountsInsideBodyRejected) {
  // Corrupt the placement count inside a valid frame to claim more
  // entries than the body holds. The body checksum is recomputed after
  // the mutation so the count-bound check itself is what rejects the
  // frame, not the CRC.
  Frame f = SampleFrame();
  f.blocks.clear();
  auto bytes = EncodeFrame(f);
  // Body starts at offset 12 (v2 header); placement count sits after
  // seq(8) + stripe(8) + shard(4) + status(4) + aux(8) + geom(16).
  const std::size_t count_off = 12 + 48;
  ASSERT_LT(count_off + 4, bytes.size());
  const std::uint32_t huge = 0x7fffffffu;
  std::memcpy(bytes.data() + count_off, &huge, 4);
  const std::uint32_t sum =
      integrity::Crc32c(bytes.data() + 12, bytes.size() - 12);
  std::memcpy(bytes.data() + 8, &sum, 4);
  Frame out;
  EXPECT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kMalformed);
}

TEST(WireFuzzTest, BodyBitFlipFailsChecksum) {
  // A single flipped bit anywhere in a v2 body — including deep inside
  // a chunk's bytes, where no structural field would notice — must be
  // kMalformed at the codec, never silently-wrong payload downstream.
  const auto good = EncodeFrame(SampleFrame());
  for (std::size_t bit : {0u, 1u, 7u}) {
    for (std::size_t off = 12; off < good.size(); off += 37) {
      auto bytes = good;
      bytes[off] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      Frame out;
      EXPECT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kMalformed)
          << "offset " << off << " bit " << bit;
    }
  }
}

TEST(WireTest, Version1FrameIsMalformed) {
  // The pre-checksum v1 layout (8-byte header, no body CRC) fails
  // closed: a peer cannot skip the integrity check by downgrading.
  const Frame f = SampleFrame();
  const auto v2 = EncodeFrame(f);
  std::vector<std::byte> v1;
  v1.insert(v1.end(), v2.begin(), v2.begin() + 8);
  v1[2] = std::byte{1};  // version
  v1.insert(v1.end(), v2.begin() + 12, v2.end());  // body, sans CRC
  Frame out;
  EXPECT_EQ(DecodeFrame(v1, &out, nullptr), ParseStatus::kMalformed);
}

TEST(WireTest, EncodeFrameMatchesThePinnedBytes) {
  // v2 frame bytes pinned from the release that still decoded v1:
  // today's format is unchanged, so current peers interoperate.
  Frame f;
  f.type = MsgType::kStore;
  f.seq = 0x0123456789abcdefull;
  f.stripe = 42;
  f.shard = 3;
  f.aux = 7;
  f.geom = {.k = 4, .global = 2, .local = 2, .block_size = 3};
  f.placement = {1, 2, 3};
  f.blocks.push_back({3, {std::byte{'a'}, std::byte{'b'}, std::byte{'c'}}});
  const std::string pinned =
      "17dc02094f0000003a5451ac"  // magic, v2, kStore, length, body CRC
      "efcdab89674523012a000000000000000300000000000000"
      "0700000000000000040000000200000002000000030000000300000001000000"
      "0200000003000000010000000300000003000000616263";
  const auto bytes = EncodeFrame(f);
  std::string hex;
  for (const std::byte b : bytes) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned>(b));
    hex += buf;
  }
  EXPECT_EQ(hex, pinned);
  Frame out;
  ASSERT_EQ(DecodeFrame(bytes, &out, nullptr), ParseStatus::kOk);
  EXPECT_TRUE(FramesEqual(f, out));
}

/// `n` deterministic, aperiodic bytes (the top byte of a 64-bit LCG).
std::vector<std::byte> LcgBytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  for (auto& b : out) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::byte>(seed >> 56);
  }
  return out;
}

TEST(WireTest, ChunkSizedFrameHeadersMatchThePinnedBytes) {
  // Header bytes (magic, v2, type, body length, body CRC) of a 64 KiB
  // store and a four-block 64 KiB encode, pinned from the release
  // whose encoder built the body in a separate buffer and whose CRC
  // ran one chain. Both bodies cross the CRC's 8 KiB three-chain
  // stage, so encoder and kernel are pinned at real chunk sizes.
  constexpr std::uint32_t kBlock = 64u << 10;
  Frame store;
  store.type = MsgType::kStore;
  store.seq = 0x0123456789abcdefull;
  store.stripe = 42;
  store.geom = {.k = 4, .global = 2, .local = 2, .block_size = kBlock};
  store.blocks.push_back({5, LcgBytes(kBlock, 5)});
  Frame encode = store;
  encode.type = MsgType::kEncode;
  encode.placement = {1, 2, 3, 4, 5, 6, 7, 8};
  encode.blocks.clear();
  for (std::uint32_t i = 0; i < 4; ++i) {
    encode.blocks.push_back({i, LcgBytes(kBlock, i)});
  }
  for (const auto& [f, pinned] :
       {std::pair{store, std::string("17dc02094000010022208b27")},
        std::pair{encode, std::string("17dc0201780004009a68c69c")}}) {
    const auto bytes = EncodeFrame(f);
    std::string hex;
    for (std::size_t i = 0; i < cluster::kWireHeaderBytes; ++i) {
      char buf[3];
      std::snprintf(buf, sizeof(buf), "%02x",
                    static_cast<unsigned>(bytes[i]));
      hex += buf;
    }
    EXPECT_EQ(hex, pinned) << cluster::type_name(f.type);
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes, &out, &consumed), ParseStatus::kOk);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_TRUE(FramesEqual(f, out));
  }
}

TEST(WireFuzzTest, SeededRandomMutationsNeverCrash) {
  const auto good = EncodeFrame(SampleFrame());
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::size_t> pos(0, good.size() - 1);
  std::uniform_int_distribution<int> val(0, 255);
  for (int iter = 0; iter < 20000; ++iter) {
    auto bytes = good;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < flips; ++i) {
      bytes[pos(rng)] = std::byte{static_cast<unsigned char>(val(rng))};
    }
    Frame out;
    std::size_t consumed = 0;
    const ParseStatus st = DecodeFrame(bytes, &out, &consumed);
    if (st == ParseStatus::kOk) {
      // Whatever parsed must respect the protocol bounds.
      EXPECT_LE(out.placement.size(), cluster::kMaxWireShards);
      EXPECT_LE(out.blocks.size(), cluster::kMaxWireShards);
      for (const Blob& b : out.blocks) {
        EXPECT_LE(b.bytes.size(), cluster::kMaxWireBlock);
      }
      EXPECT_LE(consumed, bytes.size());
    }
  }
}

TEST(WireFuzzTest, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(424242);
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::byte> bytes(rng() % 256);
    for (auto& b : bytes) {
      b = std::byte{static_cast<unsigned char>(rng() & 0xff)};
    }
    Frame out;
    DecodeFrame(bytes, &out, nullptr);  // must simply not crash
  }
}

TEST(WireFuzzTest, StreamOfFramesParsesSequentially) {
  // consumed lets a stream transport peel frames off a buffer.
  std::vector<std::byte> stream;
  std::vector<Frame> frames;
  for (int i = 0; i < 5; ++i) {
    Frame f = SampleFrame();
    f.seq = static_cast<std::uint64_t>(i);
    const auto bytes = EncodeFrame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    frames.push_back(std::move(f));
  }
  std::span<const std::byte> rest(stream);
  for (int i = 0; i < 5; ++i) {
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(rest, &out, &consumed), ParseStatus::kOk) << i;
    EXPECT_TRUE(FramesEqual(frames[i], out)) << i;
    rest = rest.subspan(consumed);
  }
  EXPECT_TRUE(rest.empty());
}

}  // namespace
