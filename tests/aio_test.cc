// aio subsystem tests: mode parsing/selection, the raw io_uring ring
// (skipped cleanly where the kernel lacks it), and the datapath
// contract both backends share — fstat-sized reads, explicit
// short-read errors, scatter/gather with segment callbacks, durable
// temp→fsync→rename writes, their group commit and its recycled
// (RENAME_EXCHANGE) publish, and the aio.submit / aio.cqe fault sites.
#include "aio/datapath.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "aio/ring.h"
#include "fault/injector.h"
#include "pmpool/arena.h"

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

  /// Backends to exercise: stdio always, uring when the kernel has it.
  std::vector<aio::Backend> backends() const {
    std::vector<aio::Backend> b{aio::Backend::kStdio};
    if (aio::Ring::KernelSupported()) b.push_back(aio::Backend::kUring);
    return b;
  }

  fs::path dir_;
};

/// A durable group of files `group_<i>` in `dir` with distinct sizes —
/// empty, sub-page, page, multi-page, and more than one ring chunk —
/// whose contents derive from `seed`.
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

TEST_F(AioTest, ParseModeAcceptsTheDocumentedSpellings) {
  EXPECT_EQ(aio::ParseMode("auto"), aio::Mode::kAuto);
  EXPECT_EQ(aio::ParseMode("stdio"), aio::Mode::kStdio);
  EXPECT_EQ(aio::ParseMode("uring"), aio::Mode::kUring);
  EXPECT_EQ(aio::ParseMode("io_uring"), aio::Mode::kUring);
  EXPECT_FALSE(aio::ParseMode("").has_value());
  EXPECT_FALSE(aio::ParseMode("aio").has_value());
  EXPECT_FALSE(aio::ParseMode("URING").has_value());
}

TEST_F(AioTest, ModeFromEnvFallsBackToAuto) {
  ::setenv("DIALGA_AIO", "stdio", 1);
  EXPECT_EQ(aio::ModeFromEnv(), aio::Mode::kStdio);
  ::setenv("DIALGA_AIO", "bogus-backend", 1);
  EXPECT_EQ(aio::ModeFromEnv(), aio::Mode::kAuto);
  ::unsetenv("DIALGA_AIO");
  EXPECT_EQ(aio::ModeFromEnv(), aio::Mode::kAuto);
}

TEST_F(AioTest, SelectBackendNeverFails) {
  // Forced stdio is always honoured; auto and forced uring must both
  // resolve to a working backend whatever the kernel supports.
  EXPECT_EQ(aio::SelectBackend(aio::Mode::kStdio), aio::Backend::kStdio);
  const aio::Backend resolved = aio::SelectBackend(aio::Mode::kAuto);
  EXPECT_EQ(aio::SelectBackend(aio::Mode::kUring), resolved);
  EXPECT_EQ(resolved, aio::Ring::KernelSupported() ? aio::Backend::kUring
                                                   : aio::Backend::kStdio);
}

TEST_F(AioTest, RingRoundtripWithRegisteredBuffers) {
  if (!aio::Ring::KernelSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  int err = 0;
  auto ring = aio::Ring::Create(8, &err);
  ASSERT_NE(ring, nullptr) << "io_uring_setup: " << std::strerror(err);

  pmpool::Arena arena;
  auto out_buf = arena.allocate(8192);
  auto in_buf = arena.allocate(8192);
  std::mt19937_64 rng(7);
  for (auto& b : out_buf) b = static_cast<std::byte>(rng());
  const bool fixed = ring->register_buffers(arena.iovecs().data(),
                                            static_cast<unsigned>(
                                                arena.iovecs().size()));

  const fs::path p = dir_ / "ring.bin";
  const int fd = ::open(p.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(ring->queue_write(fd, out_buf.data(), 8192, 0, 1,
                                fixed ? 0 : -1));
  ASSERT_EQ(ring->submit(), 1);
  std::vector<aio::Completion> cqes;
  ASSERT_EQ(ring->wait(1, &cqes), 1);
  EXPECT_EQ(cqes[0].user_data, 1u);
  EXPECT_EQ(cqes[0].res, 8192);

  ASSERT_TRUE(ring->queue_read(fd, in_buf.data(), 8192, 0, 2,
                               fixed ? 1 : -1));
  ASSERT_EQ(ring->submit(), 1);
  cqes.clear();
  ASSERT_EQ(ring->wait(1, &cqes), 1);
  EXPECT_EQ(cqes[0].res, 8192);
  ::close(fd);
  EXPECT_EQ(std::memcmp(out_buf.data(), in_buf.data(), 8192), 0);
}

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
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    aio::Transfer xfer(b);
    const auto st = aio::ReadFileExact(xfer, p, buf);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.detail.find("size mismatch"), std::string::npos)
        << st.detail;
  }
}

TEST_F(AioTest, ScatterReadFiresSegmentCallbacksOnceEach) {
  const std::size_t n = 64 * 1024;
  const fs::path p = file_with("scatter.bin", n, 3);
  const auto expect = slurp(p);
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    pmpool::Arena arena;
    auto buf = arena.allocate(n);
    // Interleaved segments: file quarters land out of order.
    std::vector<aio::Seg> segs{
        {buf.data() + 3 * n / 4, n / 4, 0},
        {buf.data() + n / 2, n / 4, n / 4},
        {buf.data() + n / 4, n / 4, n / 2},
        {buf.data(), n / 4, 3 * n / 4},
    };
    aio::Transfer xfer(b, arena.iovecs());
    std::vector<int> fired(segs.size(), 0);
    ASSERT_TRUE(aio::ReadScatter(xfer, p, segs, {},
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
}

TEST_F(AioTest, ScatterReadPastEofIsAnExplicitShortRead) {
  const fs::path p = file_with("eof.bin", 1000, 4);
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    std::vector<std::byte> buf(2000);
    const std::vector<aio::Seg> segs{{buf.data(), buf.size(), 0}};
    aio::Transfer xfer(b);
    const auto st = aio::ReadScatter(xfer, p, segs);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.detail.find("short read"), std::string::npos) << st.detail;
  }
}

TEST_F(AioTest, DurableWriteReplacesAtomicallyAndLeavesNoTemp) {
  const fs::path p = dir_ / "target.bin";
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    std::vector<std::byte> v1(3000, std::byte{0x11});
    std::vector<std::byte> v2(5000, std::byte{0x22});
    aio::Transfer xfer(b);
    ASSERT_TRUE(aio::WriteFileDurable(xfer, p, v1).ok());
    EXPECT_EQ(slurp(p), v1);
    aio::Transfer xfer2(b);
    ASSERT_TRUE(aio::WriteFileDurable(xfer2, p, v2).ok());
    EXPECT_EQ(slurp(p), v2);
    EXPECT_EQ(tmp_leftovers(), 0u);
  }
}

TEST_F(AioTest, FailedDurableWriteLeavesOldContentAndNoTemp) {
  const fs::path p = dir_ / "victim.bin";
  const std::vector<std::byte> old(2048, std::byte{0x33});
  const std::vector<std::byte> next(4096, std::byte{0x44});
  aio::FaultSites sites;
  sites.write = "t.write";
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    {
      aio::Transfer xfer(b);
      ASSERT_TRUE(aio::WriteFileDurable(xfer, p, old, sites).ok());
    }
    fault::SitePlan plan;
    plan.probability = 1.0;
    plan.error = EIO;
    const fault::ScopedPlan scoped("t.write", plan);
    aio::Transfer xfer(b);
    const auto st = aio::WriteFileDurable(xfer, p, next, sites);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.err, EIO);
    EXPECT_EQ(slurp(p), old) << "failed write must not touch the target";
    EXPECT_EQ(tmp_leftovers(), 0u);
  }
}

TEST_F(AioTest, GroupCommitLandsEveryFileAndLeavesNoTemp) {
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    for (const std::uint64_t seed : {1, 2}) {  // create, then replace
      const FileGroup group(dir_, seed);
      aio::Transfer xfer(b);
      ASSERT_TRUE(aio::WriteFilesDurable(xfer, group.files).ok());
      for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
        EXPECT_EQ(slurp(group.files[i].path), group.data[i]) << i;
      }
      EXPECT_EQ(tmp_leftovers(), 0u);
    }
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
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    {
      aio::Transfer xfer(b);
      ASSERT_TRUE(aio::WriteFilesDurable(xfer, old.files).ok());
    }
    for (std::uint64_t nth = 1; nth <= FileGroup::kFiles; ++nth) {
      SCOPED_TRACE("fault at consult " + std::to_string(nth));
      fault::SitePlan plan;
      plan.nth = {nth};
      plan.error = ENOSPC;
      const fault::ScopedPlan scoped("t.write", plan);
      aio::Transfer xfer(b);
      std::size_t failed = FileGroup::kFiles;
      const auto st =
          aio::WriteFilesDurable(xfer, next.files, sites, true, &failed);
      EXPECT_EQ(st.err, ENOSPC);
      EXPECT_EQ(failed, nth - 1);
      for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
        EXPECT_EQ(slurp(old.files[i].path), old.data[i]) << i;
      }
      EXPECT_EQ(tmp_leftovers(), 0u);
    }
  }
}

// Renames run in file order after every fsync: a rename failure keeps
// the files renamed before it, and the temps after it are unlinked.
TEST_F(AioTest, GroupCommitRenameFailureKeepsOnlyTheEarlierFiles) {
  constexpr std::size_t j = 2;
  const FileGroup old(dir_, 5);
  const FileGroup next(dir_, 6);
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    {
      aio::Transfer xfer(b);
      ASSERT_TRUE(aio::WriteFilesDurable(xfer, old.files).ok());
    }
    const fs::path blocker = next.files[j].path;
    fs::remove(blocker);
    fs::create_directories(blocker / "child");
    aio::Transfer xfer(b);
    std::size_t failed = FileGroup::kFiles;
    const auto st = aio::WriteFilesDurable(xfer, next.files, {}, true, &failed);
    EXPECT_EQ(st.err, EISDIR) << st.detail;
    EXPECT_EQ(failed, j);
    for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
      if (i == j) continue;
      EXPECT_EQ(slurp(next.files[i].path), i < j ? next.data[i] : old.data[i])
          << i;
    }
    EXPECT_TRUE(fs::exists(blocker / "child"));
    EXPECT_EQ(tmp_leftovers(), 0u);
    fs::remove_all(blocker);
  }
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
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    for (const aio::DurableFile& f : g1.files) fs::remove(f.path);
    aio::Transfer xfer(b);
    std::vector<fs::path> spares;
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, g1.files, {}, true, nullptr, &spares)
            .ok());
    EXPECT_EQ(spares, std::vector<fs::path>(FileGroup::kFiles));
    EXPECT_EQ(tmp_leftovers(), 0u);

    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, g2.files, {}, true, nullptr, &spares)
            .ok());
    ASSERT_EQ(spares.size(), FileGroup::kFiles);
    for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
      EXPECT_EQ(slurp(g2.files[i].path), g2.data[i]) << i;
      EXPECT_EQ(slurp(spares[i]), g1.data[i]) << i;
    }
    EXPECT_EQ(tmp_leftovers(), FileGroup::kFiles);

    std::reverse(spares.begin(), spares.end());
    const std::vector<fs::path> reused = spares;
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, g3.files, {}, true, nullptr, &spares)
            .ok());
    EXPECT_EQ(spares, reused);
    for (std::size_t i = 0; i < FileGroup::kFiles; ++i) {
      EXPECT_EQ(slurp(g3.files[i].path), g3.data[i]) << i;
      EXPECT_EQ(slurp(spares[i]), g2.data[i]) << i;
    }
    EXPECT_EQ(tmp_leftovers(), FileGroup::kFiles);
    for (const fs::path& s : spares) fs::remove(s);
  }
}

// A missing target is renamed into place: nothing was replaced, so no
// spare comes back for it.
TEST_F(AioTest, RecycledPublishRenamesOverAMissingTarget) {
  constexpr std::size_t j = 3;
  const FileGroup old(dir_, 14);
  const FileGroup next(dir_, 15);
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    aio::Transfer xfer(b);
    ASSERT_TRUE(aio::WriteFilesDurable(xfer, old.files).ok());
    fs::remove(old.files[j].path);
    std::vector<fs::path> spares;
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, next.files, {}, true, nullptr, &spares)
            .ok());
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
    for (const fs::path& s : spares) fs::remove(s);
  }
}

// A directory target is never exchanged out of the way: it fails the
// publish with the rename's own error, the files published before it
// stay, and every temp, reused spare and replaced file is unlinked.
TEST_F(AioTest, RecycledPublishFailsOnADirectoryTargetAndKeepsNoSpare) {
  constexpr std::size_t j = 2;
  const FileGroup old(dir_, 16);
  const FileGroup next(dir_, 17);
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    aio::Transfer xfer(b);
    std::vector<fs::path> spares;
    ASSERT_TRUE(aio::WriteFilesDurable(xfer, old.files).ok());
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, old.files, {}, true, nullptr, &spares)
            .ok());
    const fs::path blocker = next.files[j].path;
    fs::remove(blocker);
    fs::create_directories(blocker / "child");
    std::size_t failed = FileGroup::kFiles;
    const auto st =
        aio::WriteFilesDurable(xfer, next.files, {}, true, &failed, &spares);
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
    fs::remove_all(blocker);
  }
}

// A write-site fault at any consult of a group overwriting reused
// spares leaves every target old and unlinks every temp and spare.
TEST_F(AioTest, RecycledPublishWriteFaultAtAnyFileLeavesEveryTargetOld) {
  aio::FaultSites sites;
  sites.write = "t.write";
  const FileGroup old(dir_, 18);
  const FileGroup next(dir_, 19);
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    aio::Transfer xfer(b);
    ASSERT_TRUE(aio::WriteFilesDurable(xfer, old.files).ok());
    for (std::uint64_t nth = 1; nth <= FileGroup::kFiles; ++nth) {
      SCOPED_TRACE("fault at consult " + std::to_string(nth));
      std::vector<fs::path> spares;
      ASSERT_TRUE(
          aio::WriteFilesDurable(xfer, old.files, {}, true, nullptr, &spares)
              .ok());
      ASSERT_EQ(tmp_leftovers(), FileGroup::kFiles);
      fault::SitePlan plan;
      plan.nth = {nth};
      plan.error = ENOSPC;
      const fault::ScopedPlan scoped("t.write", plan);
      std::size_t failed = FileGroup::kFiles;
      const auto st = aio::WriteFilesDurable(xfer, next.files, sites, true,
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
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    aio::Transfer xfer(b);
    std::vector<fs::path> spares;
    ASSERT_TRUE(aio::WriteFilesDurable(xfer, g1.files).ok());
    fs::remove(backup);
    fs::create_hard_link(g1.files[linked].path, backup);
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, g2.files, {}, true, nullptr, &spares)
            .ok());
    const std::vector<fs::path> before = spares;
    fs::remove(before[gone]);
    fs::remove(before[symlinked]);
    fs::create_symlink(victim, before[symlinked]);
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, g3.files, {}, true, nullptr, &spares)
            .ok());
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
    for (const fs::path& s : spares) fs::remove(s);
  }
}

// A process that dies leaves its temps and spares, and a later process
// may get its pid: a commit steps past a temp name that is taken
// instead of failing, and leaves the file there alone.
TEST_F(AioTest, GroupCommitStepsPastTempNamesLeftBehind) {
  const FileGroup g1(dir_, 24);
  const FileGroup g2(dir_, 25);
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    aio::Transfer xfer(b);
    std::vector<fs::path> spares;
    ASSERT_TRUE(aio::WriteFilesDurable(xfer, g1.files).ok());
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, g2.files, {}, true, nullptr, &spares)
            .ok());
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
    ASSERT_TRUE(aio::WriteFilesDurable(xfer, g1.files).ok());
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
    for (const fs::path& s : spares) fs::remove(s);
  }
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
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    aio::Transfer xfer(b);
    const aio::DurableFile ff{p, {&whole, 1}};
    const aio::DurableFile fg{p, gapped};
    std::vector<fs::path> spares;
    ASSERT_TRUE(aio::WriteFilesDurable(xfer, {&ff, 1}).ok());
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, {&ff, 1}, {}, true, nullptr, &spares)
            .ok());
    ASSERT_EQ(spares.size(), 1u);
    ASSERT_TRUE(
        aio::WriteFilesDurable(xfer, {&fg, 1}, {}, true, nullptr, &spares)
            .ok());
    const auto got = slurp(p);
    ASSERT_EQ(got.size(), 300u);
    EXPECT_EQ(std::count(got.begin() + 100, got.begin() + 200, std::byte{0}),
              100);
    EXPECT_EQ(slurp(spares[0]), full);
    EXPECT_EQ(tmp_leftovers(), 1u);
    fs::remove(spares[0]);
  }
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
  for (const aio::Backend b : backends()) {
    SCOPED_TRACE(aio::BackendName(b));
    const fs::path p = dir_ / (std::string("gather_") + aio::BackendName(b));
    std::vector<std::byte> a(100, std::byte{0xaa});
    std::vector<std::byte> c(100, std::byte{0xcc});
    // [0,100) = a, [100,200) = hole (zeros), [200,300) = c.
    const std::vector<aio::Seg> segs{{a.data(), a.size(), 0},
                                     {c.data(), c.size(), 200}};
    aio::Transfer xfer(b);
    ASSERT_TRUE(aio::WriteGatherDurable(xfer, p, segs).ok());
    const auto got = slurp(p);
    ASSERT_EQ(got.size(), 300u);
    EXPECT_EQ(std::memcmp(got.data(), a.data(), 100), 0);
    EXPECT_EQ(std::count(got.begin() + 100, got.begin() + 200,
                         std::byte{0}),
              100);
    EXPECT_EQ(std::memcmp(got.data() + 200, c.data(), 100), 0);
  }
}

TEST_F(AioTest, InjectedSubmitErrnoSurfacesFromTheRing) {
  if (!aio::Ring::KernelSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  const fs::path p = file_with("submit.bin", 8192, 5);
  fault::SitePlan plan;
  plan.probability = 1.0;
  plan.error = EIO;
  const fault::ScopedPlan scoped("aio.submit", plan);
  std::vector<std::byte> buf(8192);
  const std::vector<aio::Seg> segs{{buf.data(), buf.size(), 0}};
  aio::Transfer xfer(aio::Backend::kUring);
  const auto st = aio::ReadScatter(xfer, p, segs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.err, EIO);
}

TEST_F(AioTest, RingStaysUsableAfterAnInjectedSubmitFailure) {
  // A failed submit leaves its SQEs queued-but-unsubmitted; the error
  // path must rewind them, or the next operation on the same Transfer
  // submits them too and reaps completions with stale user_data —
  // which double-completes a sub-op and wraps its outstanding counter
  // into an infinite spin.
  if (!aio::Ring::KernelSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  const fs::path p = file_with("reuse.bin", 8192, 7);
  aio::Transfer xfer(aio::Backend::kUring);
  std::vector<std::byte> buf(8192);
  const std::vector<aio::Seg> segs{{buf.data(), buf.size(), 0}};
  {
    fault::SitePlan plan;
    plan.nth = {1};
    plan.error = EIO;
    const fault::ScopedPlan scoped("aio.submit", plan);
    const auto st = aio::ReadScatter(xfer, p, segs);
    ASSERT_FALSE(st.ok());
    ASSERT_EQ(st.err, EIO);
  }
  std::fill(buf.begin(), buf.end(), std::byte{0});
  ASSERT_TRUE(aio::ReadScatter(xfer, p, segs).ok());
  EXPECT_EQ(buf, slurp(p));
}

TEST_F(AioTest, InjectedCqeErrnoSurfacesFromTheRing) {
  if (!aio::Ring::KernelSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  const fs::path p = file_with("cqe.bin", 8192, 6);
  fault::SitePlan plan;
  plan.probability = 1.0;
  plan.error = EIO;
  const fault::ScopedPlan scoped("aio.cqe", plan);
  std::vector<std::byte> buf(8192);
  const std::vector<aio::Seg> segs{{buf.data(), buf.size(), 0}};
  aio::Transfer xfer(aio::Backend::kUring);
  const auto st = aio::ReadScatter(xfer, p, segs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.err, EIO);
}

TEST_F(AioTest, BackendsProduceBitIdenticalFiles) {
  if (!aio::Ring::KernelSupported()) {
    GTEST_SKIP() << "io_uring unavailable: nothing to compare";
  }
  std::mt19937_64 rng(9);
  std::vector<std::byte> data(3 * 1024 * 1024 + 137);  // > chunk size
  for (auto& b : data) b = static_cast<std::byte>(rng());
  aio::Transfer stdio_xfer(aio::Backend::kStdio);
  aio::Transfer uring_xfer(aio::Backend::kUring);
  ASSERT_TRUE(
      aio::WriteFileDurable(stdio_xfer, dir_ / "a.bin", data).ok());
  ASSERT_TRUE(
      aio::WriteFileDurable(uring_xfer, dir_ / "b.bin", data).ok());
  EXPECT_EQ(slurp(dir_ / "a.bin"), slurp(dir_ / "b.bin"));
  EXPECT_EQ(slurp(dir_ / "a.bin"), data);
}

}  // namespace
