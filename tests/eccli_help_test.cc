// Pins eccli's three renditions of the exit-code contract to each
// other: the kExit* constants (what the tool actually returns), the
// --help table in cli/eccli_usage.h (what the tool tells the user),
// and the markdown table in docs/usage.md (what the docs promise).
// The table had drifted once — the help text stopped at 4 while the
// tool exited 5 and 6 — and this test is what keeps that from
// happening again: adding an exit code without updating both tables
// fails here, not in a user's script. The real binary then pins the
// usage exit for malformed or out-of-range option values and for flags
// the command's mode does not read, and that a repeated encode leaves
// no spare shard files behind.
#include "cli/eccli_usage.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eccli_runner.h"
#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;

constexpr int kAllCodes[] = {
    cli::kExitOk,     cli::kExitDamaged,  cli::kExitUsage, cli::kExitIo,
    cli::kExitDeadline, cli::kExitQuorum, cli::kExitHealed,
};

// The codes are a dense 0..6 range — scripts rely on `6` meaning
// healed, so renumbering is a breaking change this test makes loud.
TEST(EccliHelp, ExitCodesAreDenseAndStable) {
  std::set<int> seen(std::begin(kAllCodes), std::end(kAllCodes));
  ASSERT_EQ(seen.size(), std::size(kAllCodes)) << "duplicate exit codes";
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 6);
  EXPECT_EQ(cli::kExitOk, 0);
  EXPECT_EQ(cli::kExitDamaged, 1);
  EXPECT_EQ(cli::kExitUsage, 2);
  EXPECT_EQ(cli::kExitIo, 3);
  EXPECT_EQ(cli::kExitDeadline, 4);
  EXPECT_EQ(cli::kExitQuorum, 5);
  EXPECT_EQ(cli::kExitHealed, 6);
}

// Every constant has a `  <code>  <meaning>` line in the help table,
// and the table has no codes the tool never returns.
TEST(EccliHelp, UsageTableCoversEveryExitCode) {
  std::istringstream in(cli::kUsageExitCodes);
  std::set<int> documented;
  std::string line;
  while (std::getline(in, line)) {
    // A table row is exactly "  <digit>  ..." — continuation lines
    // (wrapped meanings) are indented deeper and skipped.
    if (line.size() >= 5 && line[0] == ' ' && line[1] == ' ' &&
        line[2] >= '0' && line[2] <= '9' && line[3] == ' ' &&
        line[4] == ' ') {
      documented.insert(line[2] - '0');
    }
  }
  for (const int code : kAllCodes) {
    EXPECT_TRUE(documented.count(code))
        << "exit code " << code << " missing from kUsageExitCodes";
  }
  EXPECT_EQ(documented.size(), std::size(kAllCodes))
      << "kUsageExitCodes documents a code eccli never returns";
}

// The usage text advertises the flags this PR added; a help header
// that silently loses them is as much drift as a stale exit table.
TEST(EccliHelp, UsageTextMentionsHelpAndQos) {
  const std::string text = cli::kUsageText;
  EXPECT_NE(text.find("--help"), std::string::npos);
  EXPECT_NE(text.find("--qos"), std::string::npos);
  EXPECT_NE(text.find("docs/qos.md"), std::string::npos);
}

// docs/usage.md's markdown table must carry a `| <code> |` row for
// every constant. Path injected by the build (DIALGA_DOCS_USAGE) so
// the test runs from any working directory.
TEST(EccliHelp, DocsUsageTableCoversEveryExitCode) {
#ifndef DIALGA_DOCS_USAGE
  GTEST_SKIP() << "DIALGA_DOCS_USAGE not defined by the build";
#else
  std::ifstream in(DIALGA_DOCS_USAGE);
  ASSERT_TRUE(in) << "cannot open " << DIALGA_DOCS_USAGE;
  std::set<int> documented;
  std::string line;
  while (std::getline(in, line)) {
    for (const int code : kAllCodes) {
      const std::string row = "| " + std::to_string(code) + " |";
      if (line.rfind(row, 0) == 0) documented.insert(code);
    }
  }
  for (const int code : kAllCodes) {
    EXPECT_TRUE(documented.count(code))
        << "exit code " << code << " missing from docs/usage.md table";
  }
#endif
}

// Every numeric flag takes a whole unsigned decimal, and the geometry
// must be one every codec and the manifest accept: k, m >= 1,
// k + m <= 256 and a block of 1 B to 1 GiB. Each value below exits 2
// and creates no shard directory; a lenient parse would abort on an
// uncaught exception, crash, run another value, or write a generation
// the tool's own decode rejects. `--aio` is not a flag: the file
// datapath has one backend, so there is nothing to select.
TEST(EccliArgs, MalformedOrOutOfRangeValuesAreUsageErrors) {
  const fs::path dir = fs::temp_directory_path() /
                       ("dialga_eccli_args_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "in.bin", std::ios::binary) << std::string(5000, 'x');
  const fs::path shards = dir / "shards";
  const std::string files = (dir / "in.bin").string() + " " + shards.string();

  for (const char* flags :
       {"--k abc", "--k ''", "--block 99999999999999999999", "--k -1",
        "--k 8x", "--k 300", "--k 0", "--m 0", "--block 0",
        "--k 250 --m 7", "--block 1073741825", "--retries 2x",
        "--cluster-nodes 6 --m 0", "--aio stdio"}) {
    SCOPED_TRACE(flags);
    std::string out;
    EXPECT_EQ(RunEccli(std::string("encode ") + flags + " " + files, &out),
              cli::kExitUsage)
        << out;
    EXPECT_FALSE(fs::exists(shards));
  }
  std::string out;
  EXPECT_EQ(RunEccli("encode --k 8 --m 3 " + files, &out), cli::kExitOk)
      << out;
  EXPECT_TRUE(fs::exists(shards / "manifest.txt"));
  fs::remove_all(dir);
}

// Each mode reads only its own flags. With --cluster-nodes the stripe
// service's flags would do nothing (a cluster node runs its codec on
// the RPC's thread), and without it --local and --domains would do
// nothing; each such command line exits 2 with a one-line reason that
// names the flag, before any file is touched. The same flags in their
// own mode still run.
TEST(EccliArgs, FlagsTheModeDoesNotReadAreUsageErrors) {
  const fs::path dir = fs::temp_directory_path() /
                       ("dialga_eccli_mode_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "in.bin", std::ios::binary) << std::string(5000, 'x');
  const fs::path shards = dir / "shards";
  const fs::path out_file = dir / "out.bin";
  const std::string files = (dir / "in.bin").string() + " " + shards.string();

  struct Case {
    const char* flags;
    const char* named;
  };
  const Case refused[] = {
      {"--cluster-nodes 9 --serial", "--serial"},
      {"--cluster-nodes 9 --threads 2", "--threads"},
      {"--cluster-nodes 9 --qos", "--qos"},
      {"--cluster-nodes 9 --deadline-ms 100", "--deadline-ms"},
      {"--cluster-nodes 9 --retries 1", "--retries"},
      {"--local 2", "--local"},
      {"--domains 3", "--domains"},
      {"--domains 0", "--domains"},
      {"--cluster-nodes 0 --local 2", "--local"},
  };
  auto expect_refused = [](const std::string& args, const char* named) {
    SCOPED_TRACE(args);
    std::string out;
    EXPECT_EQ(RunEccli(args, &out), cli::kExitUsage) << out;
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1) << out;
    EXPECT_NE(out.find(named), std::string::npos) << out;
  };
  for (const Case& c : refused) {
    expect_refused(std::string("encode --k 4 --m 2 ") + c.flags + " " + files,
                   c.named);
    EXPECT_FALSE(fs::exists(shards));
  }

  std::string out;
  ASSERT_EQ(RunEccli("encode --k 4 --m 2 --threads 2 --retries 1 " + files,
                     &out),
            cli::kExitOk)
      << out;
  expect_refused("decode " + shards.string() + " " + out_file.string() +
                     " --local 2",
                 "--local");
  EXPECT_FALSE(fs::exists(out_file));
  fs::remove_all(shards);

  ASSERT_EQ(RunEccli("encode --cluster-nodes 9 --k 4 --m 2 --local 2 "
                     "--domains 3 " + files,
                     &out),
            cli::kExitOk)
      << out;
  expect_refused("decode " + shards.string() + " " + out_file.string() +
                     " --cluster-nodes 9 --threads 2",
                 "--threads");
  EXPECT_FALSE(fs::exists(out_file));
  ASSERT_EQ(RunEccli("decode " + shards.string() + " " + out_file.string() +
                         " --cluster-nodes 9",
                     &out),
            cli::kExitOk)
      << out;
  std::ifstream in(out_file, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
            std::string(5000, 'x'));
  fs::remove_all(dir);
}

// A re-encode keeps the shard files it replaced only while its store
// lives: eccli encode run twice into one directory leaves exactly the
// k+m shards and the manifest, and the generation decodes.
TEST(EccliEncode, TwiceIntoOneDirectoryLeavesOneGeneration) {
  const fs::path dir = fs::temp_directory_path() /
                       ("dialga_eccli_twice_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "in.bin", std::ios::binary) << std::string(5000, 'x');
  const fs::path shards = dir / "shards";
  const std::string files = (dir / "in.bin").string() + " " + shards.string();
  for (int run = 0; run < 2; ++run) {
    std::string out;
    ASSERT_EQ(RunEccli("encode --k 4 --m 2 " + files, &out), cli::kExitOk)
        << out;
  }
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(shards)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"manifest.txt", "shard_000",
                                             "shard_001", "shard_002",
                                             "shard_003", "shard_004",
                                             "shard_005"}));
  std::string out;
  ASSERT_EQ(RunEccli("decode " + shards.string() + " " +
                         (dir / "out.bin").string(),
                     &out),
            cli::kExitOk)
      << out;
  std::ifstream in(dir / "out.bin", std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
            std::string(5000, 'x'));
  fs::remove_all(dir);
}

}  // namespace
