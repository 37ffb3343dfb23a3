// File datapath tests: fstat-sized reads, explicit short-read errors,
// scatter/gather with segment callbacks, durable temp→fsync→rename
// writes, their group commit and its recycled (RENAME_EXCHANGE)
// publish.
#include "aio/datapath.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "fault/injector.h"

namespace {

namespace fs = std::filesystem;

class AioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::Global().clear();
    dir_ = fs::temp_directory_path() /
           ("dialga_aio_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::Injector::Global().clear();
    fs::remove_all(dir_);
  }

  fs::path file_with(const std::string& name, std::size_t bytes,
                     std::uint64_t seed) {
    const fs::path p = dir_ / name;
    std::mt19937_64 rng(seed);
    std::ofstream out(p, std::ios::binary);
    for (std::size_t i = 0; i < bytes; ++i) {
      const char c = static_cast<char>(rng());
      out.write(&c, 1);
    }
    return p;
  }

  std::vector<std::byte> slurp(const fs::path& p) {
    std::vector<std::byte> out;
    EXPECT_TRUE(aio::ReadFileFull(p, &out).ok()) << p;
    return out;
  }

  /// The durable-write protocol must never leak its temp files.
  std::size_t tmp_leftovers() const {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().filename().string().find(".tmp-") != std::string::npos) {
        ++n;
      }
    }
    return n;
  }

  fs::path dir_;
};

/// A durable group of files `group_<i>` in `dir` with distinct sizes —
/// empty, sub-page, page, multi-page, and over 2 MiB — whose contents
/// derive from `seed`.
class FileGroup {
 public:
  static constexpr std::size_t kFiles = 5;

  FileGroup(const fs::path& dir, std::uint64_t seed) {
    const std::size_t sizes[kFiles] = {0, 1, 4096, 70001,
                                       (std::size_t{1} << 21) + 17};
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < kFiles; ++i) {
      data[i].resize(sizes[i]);
      for (auto& b : data[i]) b = static_cast<std::byte>(rng());
      segs_[i] = {data[i].data(), data[i].size(), 0};
      files[i] = {dir / ("group_" + std::to_string(i)),
                  data[i].empty() ? std::span<const aio::Seg>{}
                                  : std::span<const aio::Seg>(&segs_[i], 1)};
    }
  }
  FileGroup(const FileGroup&) = delete;
  FileGroup& operator=(const FileGroup&) = delete;

  std::vector<std::byte> data[kFiles];
  aio::DurableFile files[kFiles];

 private:
  aio::Seg segs_[kFiles];
};

TEST_F(AioTest, ReadFileFullSizesWithFstatAndReportsRealErrno) {
  const fs::path p = file_with("f.bin", 12345, 1);
  std::vector<std::byte> out;
  ASSERT_TRUE(aio::ReadFileFull(p, &out).ok());
  EXPECT_EQ(out.size(), 12345u);

  // Missing file: the errno is the open(2) failure, not a stale value.
  errno = 0;
  const auto st = aio::ReadFileFull(dir_ / "nope.bin", &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.err, ENOENT);
}

TEST_F(AioTest, ReadFileExactFlagsSizeMismatchExplicitly) {
  const fs::path p = file_with("short.bin", 100, 2);
  std::vector<std::byte> buf(256);
  const auto st = aio::ReadFileExact(p, buf);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.detail.find("size mismatch"), std::string::npos)
      << st.detail;
}

TEST_F(AioTest, ScatterReadFiresSegmentCallbacksOnceEach) {
  const std::size_t n = 64 * 1024;
  const fs::path p = file_with("scatter.bin", n, 3);
  const auto expect = slurp(p);
  std::vector<std::byte> buf(n);
  // Interleaved segments: file quarters land out of order.
  std::vector<aio::Seg> segs{
      {buf.data() + 3 * n / 4, n / 4, 0},
      {buf.data() + n / 2, n / 4, n / 4},
      {buf.data() + n / 4, n / 4, n / 2},
      {buf.data(), n / 4, 3 * n / 4},
  };
  std::vector<int> fired(segs.size(), 0);
  ASSERT_TRUE(aio::ReadScatter(p, segs, {},
                               [&](std::size_t i) { ++fired[i]; })
                  .ok());
  EXPECT_EQ(fired, (std::vector<int>{1, 1, 1, 1}));
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(std::memcmp(segs[q].buf, expect.data() + segs[q].offset,
                          n / 4),
              0)
        << "quarter " << q;
  }
}

TEST_F(AioTest, ScatterReadPastEofIsAnExplicitShortRead) {
  const fs::path p = file_with("eof.bin", 1000, 4);
  std::vector<std::byte> buf(2000);
  const std::vector<aio::Seg> segs{{buf.data(), buf.size(), 0}};
  const auto st = aio::ReadScatter(p, segs);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.detail.find("short read"), std::string::npos) << st.detail;
}

TEST_F(AioTest, DurableWriteReplacesAtomicallyAndLeavesNoTemp) {
  const fs::path p = dir_ / "target.bin";
  std::vector<std::byte> v1(3000, std::byte{0x11});
  std::vector<std::byte> v2(5000, std::byte{0x22});
  ASSERT_TRUE(aio::WriteFileDurable(p, v1).ok());
  EXPECT_EQ(slurp(p), v1);
  ASSERT_TRUE(aio::WriteFileDurable(p, v2).ok());
  EXPECT_EQ(slurp(p), v2);
  EXPECT_EQ(tmp_leftovers(), 0u);
}

TEST_F(AioTest, FailedDurableWriteLeavesOldContentAndNoTemp) {
  const fs::path p = dir_ / "victim.bin";
  const std::vector<std::byte> old(2048, std::byte{0x33});
  const std::vector<std::byte> next(4096, std::byte{0x44});
  aio::FaultSites sites;
  sites.write = "t.write";
  ASSERT_TRUE(aio::WriteFileDurable(p, old, sites).ok());
  fault::SitePlan plan;
  plan.probability = 1.0;
  plan.error = EIO;
  const fault::ScopedPlan scoped("t.write", plan);
  const auto st = aio::WriteFileDurable(p, next, sites);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.err, EIO);
  EXPECT_EQ(slurp(p), old) << "failed write must not touch the target";
  EXPECT_EQ(tmp_leftovers(), 0u);
}

TEST_F(AioTest, GroupCommitLandsEveryFileAndLeavesNoTemp) {
  for (const std::uint64_t seed : {1, 2}) {  // create, then replace
    const FileGroup group(dir_, seed);
    ASSERT_TRUE(aio::WriteFilesDurable(group.files).ok());
    for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
      EXPECT_EQ(slurp(group.files[i].path), group.data[i]) << i;
    }
    EXPECT_EQ(tmp_leftovers(), 0u);
  }
}

// The write site is consulted once per file, in file order, before any
// fsync: a fault at any consult unlinks every temp, so no target of
// the group changes.
TEST_F(AioTest, GroupCommitWriteFaultAtAnyFileLeavesEveryTargetOld) {
  aio::FaultSites sites;
  sites.write = "t.write";
  const FileGroup old(dir_, 3);
  const FileGroup next(dir_, 4);
  ASSERT_TRUE(aio::WriteFilesDurable(old.files).ok());
  for (std::uint64_t nth = 1; nth <= FileGroup::kFiles; ++nth) {
    SCOPED_TRACE("fault at consult " + std::to_string(nth));
    fault::SitePlan plan;
    plan.nth = {nth};
    plan.error = ENOSPC;
    const fault::ScopedPlan scoped("t.write", plan);
    std::size_t failed = FileGroup::kFiles;
    const auto st = aio::WriteFilesDurable(next.files, sites, true, &failed);
    EXPECT_EQ(st.err, ENOSPC);
    EXPECT_EQ(failed, nth - 1);
    for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
      EXPECT_EQ(slurp(old.files[i].path), old.data[i]) << i;
    }
    EXPECT_EQ(tmp_leftovers(), 0u);
  }
}

// Renames run in file order after every fsync: a rename failure keeps
// the files renamed before it, and the temps after it are unlinked.
TEST_F(AioTest, GroupCommitRenameFailureKeepsOnlyTheEarlierFiles) {
  constexpr std::size_t j = 2;
  const FileGroup old(dir_, 5);
  const FileGroup next(dir_, 6);
  ASSERT_TRUE(aio::WriteFilesDurable(old.files).ok());
  const fs::path blocker = next.files[j].path;
  fs::remove(blocker);
  fs::create_directories(blocker / "child");
  std::size_t failed = FileGroup::kFiles;
  const auto st = aio::WriteFilesDurable(next.files, {}, true, &failed);
  EXPECT_EQ(st.err, EISDIR) << st.detail;
  EXPECT_EQ(failed, j);
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    if (i == j) continue;
    EXPECT_EQ(slurp(next.files[i].path), i < j ? next.data[i] : old.data[i])
        << i;
  }
  EXPECT_TRUE(fs::exists(blocker / "child"));
  EXPECT_EQ(tmp_leftovers(), 0u);
}

// The recycled publish trades each temp with its regular-file target,
// so every returned spare holds the bytes its file replaced; the next
// group overwrites the spares in place as its temps (handed over in
// reverse here, so each is shrunk or grown to its new file's length)
// and returns the same paths.
TEST_F(AioTest, RecycledPublishExchangesAndReusesTheReplacedFiles) {
  const FileGroup g1(dir_, 11);
  const FileGroup g2(dir_, 12);
  const FileGroup g3(dir_, 13);
  std::vector<fs::path> spares;
  ASSERT_TRUE(
      aio::WriteFilesDurable(g1.files, {}, true, nullptr, &spares).ok());
  EXPECT_EQ(spares, std::vector<fs::path>(FileGroup::kFiles));
  EXPECT_EQ(tmp_leftovers(), 0u);

  ASSERT_TRUE(
      aio::WriteFilesDurable(g2.files, {}, true, nullptr, &spares).ok());
  ASSERT_EQ(spares.size(), FileGroup::kFiles);
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    EXPECT_EQ(slurp(g2.files[i].path), g2.data[i]) << i;
    EXPECT_EQ(slurp(spares[i]), g1.data[i]) << i;
  }
  EXPECT_EQ(tmp_leftovers(), FileGroup::kFiles);

  std::reverse(spares.begin(), spares.end());
  const std::vector<fs::path> reused = spares;
  ASSERT_TRUE(
      aio::WriteFilesDurable(g3.files, {}, true, nullptr, &spares).ok());
  EXPECT_EQ(spares, reused);
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    EXPECT_EQ(slurp(g3.files[i].path), g3.data[i]) << i;
    EXPECT_EQ(slurp(spares[i]), g2.data[i]) << i;
  }
  EXPECT_EQ(tmp_leftovers(), FileGroup::kFiles);
}

// A missing target is renamed into place: nothing was replaced, so no
// spare comes back for it.
TEST_F(AioTest, RecycledPublishRenamesOverAMissingTarget) {
  constexpr std::size_t j = 3;
  const FileGroup old(dir_, 14);
  const FileGroup next(dir_, 15);
  ASSERT_TRUE(aio::WriteFilesDurable(old.files).ok());
  fs::remove(old.files[j].path);
  std::vector<fs::path> spares;
  ASSERT_TRUE(
      aio::WriteFilesDurable(next.files, {}, true, nullptr, &spares).ok());
  ASSERT_EQ(spares.size(), FileGroup::kFiles);
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    EXPECT_EQ(slurp(next.files[i].path), next.data[i]) << i;
    if (i == j) {
      EXPECT_TRUE(spares[i].empty()) << spares[i];
    } else {
      EXPECT_EQ(slurp(spares[i]), old.data[i]) << i;
    }
  }
  EXPECT_EQ(tmp_leftovers(), FileGroup::kFiles - 1);
}

// A directory target is never exchanged out of the way: it fails the
// publish with the rename's own error, the files published before it
// stay, and every temp, reused spare and replaced file is unlinked.
TEST_F(AioTest, RecycledPublishFailsOnADirectoryTargetAndKeepsNoSpare) {
  constexpr std::size_t j = 2;
  const FileGroup old(dir_, 16);
  const FileGroup next(dir_, 17);
  std::vector<fs::path> spares;
  ASSERT_TRUE(aio::WriteFilesDurable(old.files).ok());
  ASSERT_TRUE(
      aio::WriteFilesDurable(old.files, {}, true, nullptr, &spares).ok());
  const fs::path blocker = next.files[j].path;
  fs::remove(blocker);
  fs::create_directories(blocker / "child");
  std::size_t failed = FileGroup::kFiles;
  const auto st =
      aio::WriteFilesDurable(next.files, {}, true, &failed, &spares);
  EXPECT_EQ(st.err, EISDIR) << st.detail;
  EXPECT_EQ(failed, j);
  EXPECT_TRUE(spares.empty());
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    if (i == j) continue;
    EXPECT_EQ(slurp(next.files[i].path), i < j ? next.data[i] : old.data[i])
        << i;
  }
  EXPECT_TRUE(fs::is_directory(blocker / "child"));
  EXPECT_EQ(tmp_leftovers(), 0u);
}

// A write-site fault at any consult of a group overwriting reused
// spares leaves every target old and unlinks every temp and spare.
TEST_F(AioTest, RecycledPublishWriteFaultAtAnyFileLeavesEveryTargetOld) {
  aio::FaultSites sites;
  sites.write = "t.write";
  const FileGroup old(dir_, 18);
  const FileGroup next(dir_, 19);
  ASSERT_TRUE(aio::WriteFilesDurable(old.files).ok());
  for (std::uint64_t nth = 1; nth <= FileGroup::kFiles; ++nth) {
    SCOPED_TRACE("fault at consult " + std::to_string(nth));
    std::vector<fs::path> spares;
    ASSERT_TRUE(
        aio::WriteFilesDurable(old.files, {}, true, nullptr, &spares).ok());
    ASSERT_EQ(tmp_leftovers(), FileGroup::kFiles);
    fault::SitePlan plan;
    plan.nth = {nth};
    plan.error = ENOSPC;
    const fault::ScopedPlan scoped("t.write", plan);
    std::size_t failed = FileGroup::kFiles;
    const auto st = aio::WriteFilesDurable(next.files, sites, true,
                                           &failed, &spares);
    EXPECT_EQ(st.err, ENOSPC);
    EXPECT_EQ(failed, nth - 1);
    EXPECT_TRUE(spares.empty());
    for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
      EXPECT_EQ(slurp(old.files[i].path), old.data[i]) << i;
    }
    EXPECT_EQ(tmp_leftovers(), 0u);
  }
}

// A spare that is gone, that a symlink now stands in for, or that has
// another name is not reused: its file gets a fresh temp and the
// spare's name is unlinked. The other name here is a hard link made
// while the file was live, as a `cp -al` backup of the directory makes;
// the exchange turns that inode into a spare, and it and the symlink's
// target keep their bytes.
TEST_F(AioTest, RecycledPublishGivesAGoneSymlinkedOrLinkedSpareAFreshTemp) {
  constexpr std::size_t gone = 0, linked = 3, symlinked = 4;
  const FileGroup g1(dir_, 20);
  const FileGroup g2(dir_, 21);
  const FileGroup g3(dir_, 22);
  const fs::path victim = file_with("victim.bin", 5000, 23);
  const auto victim_bytes = slurp(victim);
  const fs::path backup = dir_ / "backup.bin";
  std::vector<fs::path> spares;
  ASSERT_TRUE(aio::WriteFilesDurable(g1.files).ok());
  fs::remove(backup);
  fs::create_hard_link(g1.files[linked].path, backup);
  ASSERT_TRUE(
      aio::WriteFilesDurable(g2.files, {}, true, nullptr, &spares).ok());
  const std::vector<fs::path> before = spares;
  fs::remove(before[gone]);
  fs::remove(before[symlinked]);
  fs::create_symlink(victim, before[symlinked]);
  ASSERT_TRUE(
      aio::WriteFilesDurable(g3.files, {}, true, nullptr, &spares).ok());
  ASSERT_EQ(spares.size(), FileGroup::kFiles);
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    EXPECT_EQ(slurp(g3.files[i].path), g3.data[i]) << i;
    EXPECT_EQ(slurp(spares[i]), g2.data[i]) << i;
    EXPECT_EQ(spares[i] == before[i],
              i != gone && i != linked && i != symlinked)
        << i;
  }
  EXPECT_FALSE(fs::exists(fs::symlink_status(before[linked])));
  EXPECT_FALSE(fs::exists(fs::symlink_status(before[symlinked])));
  EXPECT_EQ(slurp(victim), victim_bytes);
  EXPECT_EQ(slurp(backup), g1.data[linked]);
  EXPECT_EQ(fs::hard_link_count(backup), 1u);
  EXPECT_EQ(tmp_leftovers(), FileGroup::kFiles);
}

// A process that dies leaves its temps and spares, and a later process
// may get its pid: a commit steps past a temp name that is taken
// instead of failing, and leaves the file there alone.
TEST_F(AioTest, GroupCommitStepsPastTempNamesLeftBehind) {
  const FileGroup g1(dir_, 24);
  const FileGroup g2(dir_, 25);
  std::vector<fs::path> spares;
  ASSERT_TRUE(aio::WriteFilesDurable(g1.files).ok());
  ASSERT_TRUE(
      aio::WriteFilesDurable(g2.files, {}, true, nullptr, &spares).ok());
  // The last temp was "group_4.tmp-<pid>-<seq>"; take every name the
  // next group's temps would start from.
  const std::string last = spares.back().filename().string();
  const unsigned long seq = std::stoul(last.substr(last.rfind('-') + 1));
  const std::string pid = std::to_string(::getpid());
  std::vector<fs::path> taken;
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    for (unsigned long n = seq + 1; n <= seq + 2 * FileGroup::kFiles; ++n) {
      taken.push_back(dir_ / ("group_" + std::to_string(i) + ".tmp-" + pid +
                              "-" + std::to_string(n)));
      std::ofstream(taken.back()) << "left";
    }
  }
  ASSERT_TRUE(aio::WriteFilesDurable(g1.files).ok());
  for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
    EXPECT_EQ(slurp(g1.files[i].path), g1.data[i]) << i;
  }
  for (const fs::path& t : taken) {
    std::ifstream in(t);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "left")
        << t;
    fs::remove(t);
  }
  EXPECT_EQ(tmp_leftovers(), FileGroup::kFiles);
}

// Content with a gap is never written over a spare: the gap must read
// as zero, not as the spare's old bytes.
TEST_F(AioTest, RecycledGatherWriteKeepsItsGapsZero) {
  std::vector<std::byte> full(300, std::byte{0xff});
  std::vector<std::byte> a(100, std::byte{0xaa});
  std::vector<std::byte> c(100, std::byte{0xcc});
  const aio::Seg whole{full.data(), full.size(), 0};
  const std::vector<aio::Seg> gapped{{a.data(), a.size(), 0},
                                     {c.data(), c.size(), 200}};
  const fs::path p = dir_ / "gapped.bin";
  const aio::DurableFile ff{p, {&whole, 1}};
  const aio::DurableFile fg{p, gapped};
  std::vector<fs::path> spares;
  ASSERT_TRUE(aio::WriteFilesDurable({&ff, 1}).ok());
  ASSERT_TRUE(
      aio::WriteFilesDurable({&ff, 1}, {}, true, nullptr, &spares).ok());
  ASSERT_EQ(spares.size(), 1u);
  ASSERT_TRUE(
      aio::WriteFilesDurable({&fg, 1}, {}, true, nullptr, &spares).ok());
  const auto got = slurp(p);
  ASSERT_EQ(got.size(), 300u);
  EXPECT_EQ(std::count(got.begin() + 100, got.begin() + 200, std::byte{0}),
            100);
  EXPECT_EQ(slurp(spares[0]), full);
  EXPECT_EQ(tmp_leftovers(), 1u);
}

TEST_F(AioTest, CreateDirectoriesDurableMakesEveryMissingLevel) {
  const fs::path deep = dir_ / "a" / "b" / "c";
  ASSERT_TRUE(aio::CreateDirectoriesDurable(deep).ok());
  EXPECT_TRUE(fs::is_directory(deep));
  ASSERT_TRUE(aio::CreateDirectoriesDurable(deep).ok());  // exists: no-op
  const fs::path file = file_with("plain.bin", 10, 8);
  EXPECT_FALSE(aio::CreateDirectoriesDurable(file / "sub").ok());
}

TEST_F(AioTest, GatherWriteAssemblesSegmentsWithZeroGaps) {
  const fs::path p = dir_ / "gather.bin";
  std::vector<std::byte> a(100, std::byte{0xaa});
  std::vector<std::byte> c(100, std::byte{0xcc});
  // [0,100) = a, [100,200) = hole (zeros), [200,300) = c.
  const std::vector<aio::Seg> segs{{a.data(), a.size(), 0},
                                   {c.data(), c.size(), 200}};
  ASSERT_TRUE(aio::WriteGatherDurable(p, segs).ok());
  const auto got = slurp(p);
  ASSERT_EQ(got.size(), 300u);
  EXPECT_EQ(std::memcmp(got.data(), a.data(), 100), 0);
  EXPECT_EQ(std::count(got.begin() + 100, got.begin() + 200,
                       std::byte{0}),
            100);
  EXPECT_EQ(std::memcmp(got.data() + 200, c.data(), 100), 0);
}

}  // namespace
