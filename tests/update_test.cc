#include "ec/update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>

#include "ec/isal.h"

namespace ec {
namespace {

struct Blocks {
  std::vector<std::vector<std::byte>> storage;
  std::vector<const std::byte*> data_ptrs;
  std::vector<std::byte*> parity_ptrs;
};

Blocks MakeBlocks(std::size_t k, std::size_t m, std::size_t bs,
                  std::uint64_t seed) {
  Blocks b;
  std::mt19937_64 rng(seed);
  b.storage.resize(k + m, std::vector<std::byte>(bs));
  for (std::size_t i = 0; i < k; ++i)
    for (auto& byte : b.storage[i]) byte = static_cast<std::byte>(rng());
  for (std::size_t i = 0; i < k; ++i) b.data_ptrs.push_back(b.storage[i].data());
  for (std::size_t j = 0; j < m; ++j)
    b.parity_ptrs.push_back(b.storage[k + j].data());
  return b;
}

class UpdateTest : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(UpdateTest, DeltaUpdateMatchesFullReencode) {
  const auto [block, offset, len] = GetParam();
  const std::size_t k = 6, m = 3, bs = 2048;
  const IsalCodec codec(k, m);
  const UpdateEngine engine(codec);

  Blocks b = MakeBlocks(k, m, bs, 31);
  codec.encode(bs, b.data_ptrs, b.parity_ptrs);

  std::mt19937_64 rng(77);
  std::vector<std::byte> fresh(len);
  for (auto& byte : fresh) byte = static_cast<std::byte>(rng());

  // Path A: delta update in place.
  Blocks delta_path = b;
  std::vector<std::byte*> dp_parity;
  for (std::size_t j = 0; j < m; ++j)
    dp_parity.push_back(delta_path.storage[k + j].data());
  engine.apply(bs, block, offset, fresh, delta_path.storage[block].data(),
               dp_parity);

  // Path B: overwrite the data then re-encode everything.
  Blocks full_path = b;
  std::copy(fresh.begin(), fresh.end(),
            full_path.storage[block].begin() + offset);
  std::vector<const std::byte*> fp_data;
  std::vector<std::byte*> fp_parity;
  for (std::size_t i = 0; i < k; ++i)
    fp_data.push_back(full_path.storage[i].data());
  for (std::size_t j = 0; j < m; ++j)
    fp_parity.push_back(full_path.storage[k + j].data());
  codec.encode(bs, fp_data, fp_parity);

  EXPECT_EQ(delta_path.storage, full_path.storage);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, UpdateTest,
    ::testing::Values(std::make_tuple(0, 0, 64),        // one line
                      std::make_tuple(2, 64, 128),      // aligned middle
                      std::make_tuple(5, 100, 200),     // unaligned
                      std::make_tuple(1, 0, 2048),      // whole block
                      std::make_tuple(3, 2047, 1),      // last byte
                      std::make_tuple(4, 777, 555)));   // odd everything

TEST(UpdateEngine, UpdatedStripeStillDecodes) {
  const std::size_t k = 6, m = 3, bs = 1024;
  const IsalCodec codec(k, m);
  const UpdateEngine engine(codec);
  Blocks b = MakeBlocks(k, m, bs, 8);
  codec.encode(bs, b.data_ptrs, b.parity_ptrs);

  std::vector<std::byte> fresh(300, std::byte{0x5A});
  engine.apply(bs, 2, 111, fresh, b.storage[2].data(), b.parity_ptrs);
  const auto golden = b.storage;

  // Lose the updated block plus two others; decode must restore the
  // NEW contents.
  std::vector<std::byte*> all;
  for (auto& s : b.storage) all.push_back(s.data());
  const std::vector<std::size_t> erasures{2, 4, 7};
  for (const std::size_t e : erasures)
    std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0});
  ASSERT_TRUE(codec.decode(bs, all, erasures));
  EXPECT_EQ(b.storage, golden);
}

// The argument checks are real checks, not asserts an optimized build
// compiles out: each bad argument throws before any byte of the stripe
// changes, and a range that ends exactly at the block's end is valid.
TEST(UpdateEngine, BadArgumentsThrowAndLeaveTheStripeUntouched) {
  const std::size_t k = 4, m = 2, bs = 256;
  const IsalCodec codec(k, m);
  const UpdateEngine engine(codec);
  Blocks b = MakeBlocks(k, m, bs, 5);
  codec.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  const std::vector<std::byte> fresh(16, std::byte{0xA5});
  const std::vector<std::byte> too_long(bs + 1, std::byte{0xA5});
  const std::vector<std::byte*> too_few(b.parity_ptrs.begin(),
                                        b.parity_ptrs.end() - 1);
  const std::size_t wraps = SIZE_MAX - 4;  // offset + 16 wraps past zero
  std::byte* data = b.storage[1].data();

  EXPECT_THROW(engine.apply(bs, k, 0, fresh, b.storage[0].data(),
                            b.parity_ptrs),
               std::out_of_range);
  EXPECT_THROW(engine.apply(bs, 1, bs - 8, fresh, data, b.parity_ptrs),
               std::out_of_range);
  EXPECT_THROW(engine.apply(bs, 1, bs + 1, {}, data, b.parity_ptrs),
               std::out_of_range);
  EXPECT_THROW(engine.apply(bs, 1, 0, too_long, data, b.parity_ptrs),
               std::out_of_range);
  EXPECT_THROW(engine.apply(bs, 1, wraps, fresh, data, b.parity_ptrs),
               std::out_of_range);
  EXPECT_THROW(engine.apply(bs, 1, 0, fresh, data, too_few),
               std::invalid_argument);
  EXPECT_EQ(b.storage, golden);

  const simmem::ComputeCost cost{};
  EXPECT_THROW(engine.update_plan(bs, bs - 8, 16, cost), std::out_of_range);
  EXPECT_THROW(engine.update_plan(bs, wraps, 16, cost), std::out_of_range);
  EXPECT_NO_THROW(engine.update_plan(bs, bs - 16, 16, cost));
  engine.apply(bs, 1, bs - 16, fresh, data, b.parity_ptrs);
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), data + bs - 16));
}

TEST(UpdatePlan, RmwTouchedLinesOnly) {
  const IsalCodec codec(6, 3);
  const UpdateEngine engine(codec);
  const simmem::ComputeCost cost{};
  // 100 bytes at offset 100: byte range [100, 200) covers lines 1-3 of
  // the block, i.e. offsets [64, 256).
  const EncodePlan plan = engine.update_plan(1024, 100, 100, cost);
  EXPECT_EQ(plan.num_data, 1u);
  EXPECT_EQ(plan.num_parity, 3u);
  // (1 data + 3 parity) x 3 lines, loaded and stored once each.
  EXPECT_EQ(plan.count(PlanOp::Kind::kLoad), 12u);
  EXPECT_EQ(plan.count(PlanOp::Kind::kStore), 12u);
  EXPECT_EQ(plan.count(PlanOp::Kind::kFence), 1u);
  for (const PlanOp& op : plan.ops) {
    if (op.kind == PlanOp::Kind::kLoad || op.kind == PlanOp::Kind::kStore) {
      EXPECT_GE(op.offset, 64u);
      EXPECT_LT(op.offset, 256u);
      EXPECT_LT(op.block, 4u);
    }
  }
}

TEST(UpdatePlan, HonorsPrefetchOptions) {
  const IsalCodec codec(8, 4);
  const UpdateEngine engine(codec);
  const simmem::ComputeCost cost{};
  IsalPlanOptions opts;
  opts.prefetch_distance = 6;
  const EncodePlan plan = engine.update_plan(4096, 0, 4096, cost, opts);
  EXPECT_GT(plan.count(PlanOp::Kind::kPrefetch), 0u);
}

TEST(UpdateTraffic, CrossoverArithmetic) {
  // Small writes move far less traffic than a re-encode; whole-block
  // updates of wide stripes approach it.
  EXPECT_LT(UpdateEngine::update_traffic_bytes(64, 4),
            UpdateEngine::reencode_traffic_bytes(1024, 12, 4));
  // 1 line updated, m=4: 2*(5)*64 = 640 bytes.
  EXPECT_EQ(UpdateEngine::update_traffic_bytes(64, 4), 640u);
  EXPECT_EQ(UpdateEngine::reencode_traffic_bytes(1024, 12, 4), 16u * 1024u);
}

}  // namespace
}  // namespace ec
