// Fuzz-style hardening tests for shard::Manifest::parse. The manifest
// is the one input eccli reads before any size check, so a truncated or
// hostile file must never crash, over-allocate, or yield a manifest
// whose geometry breaks the stripe arithmetic downstream
// (shard_bytes() divides by k * block_size; load_shards allocates
// k + m buffers of shard_bytes() each).
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "manifest_seal.h"
#include "shard/shard_store.h"

namespace shard {
namespace {

Manifest ValidManifest(std::size_t k = 4, std::size_t m = 2,
                       std::size_t block = 512,
                       std::uint64_t size = 10000) {
  Manifest mf;
  mf.k = k;
  mf.m = m;
  mf.block_size = block;
  mf.file_size = size;
  for (std::size_t i = 0; i < k + m; ++i) {
    mf.shard_checksums.push_back(0x1000 + i);
  }
  return mf;
}

/// Every accepted manifest must be safe to hand to load_shards: sane
/// nonzero geometry, a full checksum table, and stripe arithmetic that
/// cannot divide by zero or wrap.
void ExpectInvariants(const Manifest& mf) {
  EXPECT_GT(mf.k, 0u);
  EXPECT_GT(mf.m, 0u);
  EXPECT_GT(mf.block_size, 0u);
  EXPECT_LE(mf.k + mf.m, 4096u);
  EXPECT_EQ(mf.shard_checksums.size(), mf.k + mf.m);
  const std::uint64_t stripe_bytes =
      static_cast<std::uint64_t>(mf.k) * mf.block_size;
  ASSERT_NE(stripe_bytes, 0u);
  // Exercising these must not crash or overflow-trap.
  (void)mf.stripes();
  (void)mf.shard_bytes();
}

TEST(ManifestFuzz, RoundTripSurvives) {
  const Manifest mf = ValidManifest();
  const auto back = Manifest::parse(mf.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->k, mf.k);
  EXPECT_EQ(back->m, mf.m);
  EXPECT_EQ(back->block_size, mf.block_size);
  EXPECT_EQ(back->file_size, mf.file_size);
  EXPECT_EQ(back->shard_checksums, mf.shard_checksums);
}

TEST(ManifestFuzz, EveryTruncationIsRejectedOrValid) {
  const std::string text = ValidManifest().serialize();
  for (std::size_t len = 0; len <= text.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    const auto mf = Manifest::parse(text.substr(0, len));
    if (mf) ExpectInvariants(*mf);
  }
}

TEST(ManifestFuzz, SealedBodyReachesTheBoundsChecks) {
  // Positive control for the sealed cases below: a sane sealed body
  // parses, so each hostile one is rejected by its own field.
  const auto mf = Manifest::parse(SealManifest(
      "k 2\nm 1\nblock 64\nsize 1\nshard 0 1\nshard 1 2\nshard 2 3\n"));
  ASSERT_TRUE(mf.has_value());
  ExpectInvariants(*mf);
}

TEST(ManifestFuzz, HostileInputsAreRejectedWithoutCrashing) {
  const char* hostile[] = {
      // A shard index that used to size an unbounded resize().
      "k 4 \nm 2\nblock 512\nsize 100\nshard 18446744073709551615 1\n",
      "k 4\nm 2\nblock 512\nsize 100\nshard 99999999 1\n",
      // Checksum table before the geometry it depends on.
      "shard 0 1\nk 4\nm 2\nblock 512\nsize 100\n",
      // Duplicate and missing table entries.
      "k 1\nm 1\nblock 64\nsize 1\nshard 0 1\nshard 0 2\n",
      "k 2\nm 1\nblock 64\nsize 1\nshard 0 1\nshard 1 2\n",
      // k * block_size wrapping a 64-bit product to zero — the old
      // stripes() divisor.
      "k 4096\nm 1\nblock 4503599627370496\nsize 1\n",
      "k 18446744073709551615\nm 1\nblock 2\nsize 1\n",
      // Absurd single fields.
      "k 0\nm 2\nblock 512\nsize 100\n",
      "k 4\nm 0\nblock 512\nsize 100\n",
      "k 4\nm 2\nblock 0\nsize 100\n",
      "k 4\nm 2\nblock 512\nsize 18446744073709551615\n",
      "k 5000\nm 5000\nblock 512\nsize 100\n",
      // Wrong types and garbage keys.
      "k four\nm 2\nblock 512\nsize 100\n",
      "k 4\nm 2\nblock 512\nsize 100\nbogus 1\n",
      "k -4\nm 2\nblock 512\nsize 100\n",
  };
  for (const char* body : hostile) {
    SCOPED_TRACE(body);
    EXPECT_FALSE(Manifest::parse(SealManifest(body)).has_value());
  }
  EXPECT_FALSE(Manifest::parse("").has_value());
  EXPECT_FALSE(Manifest::parse(SealManifest("")).has_value());
  EXPECT_FALSE(Manifest::parse("dialga-shard-v1\n").has_value());
  EXPECT_FALSE(Manifest::parse("not-a-manifest\n").has_value());
}

TEST(ManifestFuzz, RandomByteCorruptionNeverCrashes) {
  std::mt19937_64 rng(2026);
  const std::string base = ValidManifest(8, 3, 4096, 123456).serialize();
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = base;
    const std::size_t edits = 1 + rng() % 8;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng() % text.size();
      switch (rng() % 3) {
        case 0:  // flip to a random printable-ish byte
          text[pos] = static_cast<char>(rng() % 256);
          break;
        case 1:  // delete a span
          text.erase(pos, 1 + rng() % 5);
          break;
        default:  // inject digits (the dangerous alphabet here)
          text.insert(pos, std::string(1 + rng() % 4,
                                       static_cast<char>('0' + rng() % 10)));
          break;
      }
      if (text.empty()) text.assign(1, 'x');
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto mf = Manifest::parse(text);
    if (mf) ExpectInvariants(*mf);
  }
}

TEST(ManifestFuzz, RandomTokenSoupNeverCrashes) {
  std::mt19937_64 rng(7);
  const char* words[] = {"k", "m", "block", "size", "shard",
                         "dialga-shard-v1", "0", "1", "4",
                         "18446744073709551615", "-1", "999999999999",
                         "\n", " ", "zzz", "algo", "crc32c", "fnv1a"};
  for (int trial = 0; trial < 2000; ++trial) {
    std::string body;
    const std::size_t tokens = rng() % 40;
    for (std::size_t t = 0; t < tokens; ++t) {
      body += words[rng() % (sizeof(words) / sizeof(words[0]))];
      body += (rng() % 4 == 0) ? '\n' : ' ';
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto mf = Manifest::parse(SealManifest(body));
    if (mf) ExpectInvariants(*mf);
  }
}

}  // namespace
}  // namespace shard
