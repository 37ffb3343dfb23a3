// eccli — erasure-code files on the command line with the DIALGA codec.
//
//   eccli encode --k 8 --m 3 [--block 4096] <input-file> <shard-dir>
//   eccli verify <shard-dir>
//   eccli repair <shard-dir>
//   eccli decode <shard-dir> <output-file>
//
// encode splits the file into k data shards + m parity shards with a
// manifest of checksums; verify reports damaged/missing shards; repair
// rebuilds up to m of them; decode reassembles the original file
// (repairing in memory if needed).
//
// Stripe work runs through a svc::StripeService (batched onto the
// work-stealing pool) unless --serial is given.
//
// With --cluster-nodes N the same commands run against an in-process
// cluster of N storage nodes (consistent-hash placement, RPC wire
// format, degraded reads, scrub repair) persisted under
// <shard-dir>/n<i>; a cluster.txt manifest makes encode/decode/repair
// work across separate invocations. Each mode reads only its own
// flags: the stripe service's (--serial, --threads, --qos,
// --deadline-ms, --retries) with --cluster-nodes, or --local and
// --domains without it, are a usage error rather than ignored.
//
// Exit codes (see --help): 0 success, 1 damaged, 2 usage, 3 I/O,
// 4 deadline exceeded / retry budget exhausted, 5 cluster quorum loss,
// 6 corruption detected and healed in place (verify --heal).
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <system_error>

#include "aio/datapath.h"
#include "cli/eccli_usage.h"
#include "cluster/local_cluster.h"
#include "dialga/dialga.h"
#include "fault/injector.h"
#include "gf/gf256.h"
#include "gf/gf_simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/shard_store.h"
#include "svc/governor.h"
#include "svc/stripe_service.h"

namespace {

using cli::kExitDamaged;
using cli::kExitDeadline;
using cli::kExitHealed;
using cli::kExitIo;
using cli::kExitOk;
using cli::kExitQuorum;
using cli::kExitUsage;

/// Full help text: usage + options + the exit-code table. The text
/// lives in cli/eccli_usage.h so tests/eccli_help_test.cc can pin it
/// to the kExit* constants and to docs/usage.md.
void PrintHelp(std::ostream& os) { os << cli::kUsageText << cli::kUsageExitCodes; }

void Usage() { PrintHelp(std::cerr); }

struct Options {
  std::size_t k = 8;
  std::size_t m = 3;
  std::size_t block = 4096;
  std::size_t threads = 0;  // 0 = ThreadPool default
  std::size_t deadline_ms = 0;
  std::size_t retries = 0;
  bool strict_budget = false;  // --deadline-ms/--retries given
  bool serial = false;
  bool qos = false;              // bandwidth governor on the service
  bool help = false;             // --help/-h: print help, exit 0
  bool heal = false;             // verify --heal
  bool fault_plan_dump = false;  // print resolved plan and exit
  std::string fault_plan;
  std::string metrics_out;
  std::string trace_out;
  std::string isa;
  aio::Mode aio = aio::ModeFromEnv();
  std::size_t cluster_nodes = 0;  // 0 = single-process shard store
  std::size_t local = 0;          // LRC local parities (cluster mode)
  std::size_t domains = 0;        // failure domains (0 = one per node)
  std::set<std::string, std::less<>> given;  // every "--" flag seen
  std::vector<std::string> positional;
};

/// Full-string parse of a numeric flag's value: a whole unsigned
/// decimal with no sign, whitespace or trailing characters that fits
/// in std::size_t; nullopt otherwise.
std::optional<std::size_t> ParseCount(std::string_view text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

bool Parse(int argc, char** argv, Options* opt) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--")) opt->given.insert(arg);
    auto next_value = [&](std::size_t* out) {
      if (i + 1 >= argc) return false;
      const std::optional<std::size_t> value = ParseCount(argv[++i]);
      if (!value) {
        std::cerr << "eccli: " << arg << " '" << argv[i]
                  << "' is not an unsigned 64-bit decimal integer\n";
        return false;
      }
      *out = *value;
      return true;
    };
    if (arg == "--k") {
      if (!next_value(&opt->k)) return false;
    } else if (arg == "--m") {
      if (!next_value(&opt->m)) return false;
    } else if (arg == "--block") {
      if (!next_value(&opt->block)) return false;
    } else if (arg == "--threads") {
      if (!next_value(&opt->threads)) return false;
    } else if (arg == "--deadline-ms") {
      if (!next_value(&opt->deadline_ms)) return false;
      opt->strict_budget = true;
    } else if (arg == "--retries") {
      if (!next_value(&opt->retries)) return false;
      opt->strict_budget = true;
    } else if (arg == "--fault-plan") {
      if (i + 1 >= argc) return false;
      opt->fault_plan = argv[++i];
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) return false;
      opt->metrics_out = argv[++i];
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) return false;
      opt->trace_out = argv[++i];
    } else if (arg == "--isa") {
      if (i + 1 >= argc) return false;
      opt->isa = argv[++i];
    } else if (arg == "--aio") {
      if (i + 1 >= argc) return false;
      const auto mode = aio::ParseMode(argv[++i]);
      if (!mode) return false;
      opt->aio = *mode;
    } else if (arg == "--cluster-nodes") {
      if (!next_value(&opt->cluster_nodes)) return false;
    } else if (arg == "--local") {
      if (!next_value(&opt->local)) return false;
    } else if (arg == "--domains") {
      if (!next_value(&opt->domains)) return false;
    } else if (arg == "--serial") {
      opt->serial = true;
    } else if (arg == "--qos") {
      opt->qos = true;
    } else if (arg == "--help" || arg == "-h") {
      opt->help = true;
    } else if (arg == "--heal") {
      opt->heal = true;
    } else if (arg == "--fault-plan-dump") {
      opt->fault_plan_dump = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      opt->positional.push_back(arg);
    }
  }
  return true;
}

/// The geometry every codec and the shard manifest accept: k and m of
/// at least 1, k + m within GF(2^8) (the codecs bound it only by an
/// assert, which Release builds compile out), and a block of 1 B to
/// 1 GiB. Checked before anything is written, so a bad value never
/// leaves a generation this tool's own decode rejects.
bool ValidGeometry(const Options& opt) {
  constexpr std::size_t kMaxBlock = std::size_t{1} << 30;
  return opt.k >= 1 && opt.m >= 1 && opt.k <= gf::kFieldSize &&
         opt.m <= gf::kFieldSize - opt.k && opt.block >= 1 &&
         opt.block <= kMaxBlock;
}

/// Flags only one mode reads: the stripe service's knobs belong to the
/// single-process store, the cluster layout to --cluster-nodes.
constexpr std::string_view kStoreOnlyFlags[] = {
    "--serial", "--threads", "--qos", "--deadline-ms", "--retries"};
constexpr std::string_view kClusterOnlyFlags[] = {"--local", "--domains"};

/// A flag the command's mode would silently ignore, as a one-line
/// reason; empty when every given flag is read.
std::string IgnoredFlag(const Options& opt) {
  if (opt.cluster_nodes > 0) {
    for (const std::string_view flag : kStoreOnlyFlags) {
      if (opt.given.contains(flag)) {
        return std::string(flag) + " has no effect with --cluster-nodes";
      }
    }
    return {};
  }
  for (const std::string_view flag : kClusterOnlyFlags) {
    if (opt.given.contains(flag)) {
      return std::string(flag) + " needs --cluster-nodes N (N >= 1)";
    }
  }
  return {};
}

/// The manifest pins (k, m); commands other than encode read it so the
/// user never has to repeat the parameters. Distinguishes an unreadable
/// manifest (I/O: missing directory, permissions) from an unparseable
/// one via `status`: damage, or a generation this code does not read
/// (no CRC-32C `algo` line or no `manifestsum`), both exit 1.
std::optional<shard::Manifest> ManifestOf(const std::string& dir,
                                          shard::Status* status) {
  const auto path = std::filesystem::path(dir) / "manifest.txt";
  std::vector<std::byte> raw;
  // aio::ReadFileFull sizes with fstat and reports the errno of the
  // syscall that actually failed — the old ifstream path here could
  // blame a stale errno from an unrelated earlier call.
  if (const auto st = aio::ReadFileFull(path, &raw); !st.ok()) {
    *status = shard::Status::Io(st.err, path, "unreadable manifest");
    return std::nullopt;
  }
  auto mf = shard::Manifest::parse(
      std::string(reinterpret_cast<const char*>(raw.data()), raw.size()));
  if (!mf) {
    *status = shard::Status::Damaged(path, "corrupt or unsupported manifest");
  }
  return mf;
}

/// Map a file-level Status to an exit code, reporting on stderr. The
/// distinction matters to callers: kDamaged (1) means the shards are
/// lost beyond parity — retrying is pointless; kIoError (3) is
/// environmental (permissions, disk full) and worth retrying;
/// kDeadlineExceeded/kRetryExhausted (4) mean the --deadline-ms /
/// --retries budget ran out — raise it or drop the flags to allow the
/// serial fallback.
int Report(const shard::Status& st) {
  if (st.ok()) return kExitOk;
  std::cerr << "eccli: " << st.message() << "\n";
  switch (st.kind) {
    case shard::Status::Kind::kDamaged:
      return kExitDamaged;
    case shard::Status::Kind::kDeadlineExceeded:
    case shard::Status::Kind::kRetryExhausted:
      return kExitDeadline;
    default:
      return kExitIo;
  }
}

/// Exit code for a cluster-mode operation result.
int ClusterExit(const cluster::OpResult& r) {
  if (r.ok()) return kExitOk;
  std::cerr << "eccli: cluster " << cluster::to_string(r.code) << ": "
            << r.detail << "\n";
  switch (r.code) {
    case cluster::OpResult::Code::kQuorumLoss:
      return kExitQuorum;
    case cluster::OpResult::Code::kInvalid:
      return kExitUsage;
    default:
      return kExitIo;
  }
}

/// Rebuild the cluster an earlier invocation persisted under `dir`
/// (cluster.txt + n<i>/ chunk directories) and re-track its stripes.
std::unique_ptr<cluster::LocalCluster> OpenCluster(
    const std::filesystem::path& dir, cluster::ClusterManifest* mf) {
  if (!cluster::ClusterManifest::load(dir / "cluster.txt", mf)) {
    std::cerr << "eccli: no readable cluster.txt under '" << dir.string()
              << "' (not a cluster directory?)\n";
    return nullptr;
  }
  cluster::LocalClusterConfig cfg;
  cfg.nodes = mf->nodes;
  cfg.domains = mf->domains;
  cfg.geom = mf->geom;
  cfg.data_root = dir;
  auto c = std::make_unique<cluster::LocalCluster>(std::move(cfg));
  for (const std::uint64_t s : mf->stripes) c->coordinator().track(s);
  return c;
}

/// The --cluster-nodes path: the same four commands, executed against
/// an in-process cluster whose node directories live under the shard
/// dir. Geometry is RS(k, m) or, with --local L, LRC(k, m, L).
int RunClusterCommand(const std::string& cmd, const Options& opt) {
  namespace fs = std::filesystem;

  if (cmd == "encode") {
    if (opt.positional.size() != 2) {
      Usage();
      return kExitUsage;
    }
    const cluster::Geometry geom{
        .k = static_cast<std::uint32_t>(opt.k),
        .global = static_cast<std::uint32_t>(opt.m),
        .local = static_cast<std::uint32_t>(opt.local),
        .block_size = static_cast<std::uint32_t>(opt.block)};
    if (!geom.valid()) {
      std::cerr << "eccli: invalid cluster geometry k=" << opt.k
                << " m=" << opt.m << " local=" << opt.local
                << " block=" << opt.block << "\n";
      return kExitUsage;
    }
    std::vector<std::byte> input;
    if (const auto st = aio::ReadFileFull(opt.positional[0], &input);
        !st.ok()) {
      std::cerr << "eccli: cannot read '" << opt.positional[0]
                << "': " << std::strerror(st.err) << "\n";
      return kExitIo;
    }
    const fs::path dir(opt.positional[1]);
    std::error_code ec;
    fs::create_directories(dir, ec);

    cluster::LocalClusterConfig cfg;
    cfg.nodes = opt.cluster_nodes;
    cfg.domains = opt.domains;
    cfg.geom = geom;
    cfg.data_root = dir;
    cluster::LocalCluster c(std::move(cfg));

    cluster::ClusterManifest mf;
    mf.nodes = opt.cluster_nodes;
    mf.domains = opt.domains;
    mf.geom = geom;
    mf.file_size = input.size();
    const std::size_t stripe_bytes =
        static_cast<std::size_t>(geom.k) * geom.block_size;
    const std::size_t stripes =
        input.empty() ? 1 : (input.size() + stripe_bytes - 1) / stripe_bytes;
    input.resize(stripes * stripe_bytes);  // zero-pad the tail
    for (std::uint64_t s = 0; s < stripes; ++s) {
      std::vector<const std::byte*> ptrs;
      for (std::uint32_t j = 0; j < geom.k; ++j) {
        ptrs.push_back(input.data() + s * stripe_bytes +
                       static_cast<std::size_t>(j) * geom.block_size);
      }
      const auto r = c.coordinator().write_stripe(
          s, std::span<const std::byte* const>(ptrs));
      if (!r.ok()) return ClusterExit(r);
      mf.stripes.push_back(s);
    }
    if (!mf.save(dir / "cluster.txt")) {
      std::cerr << "eccli: cannot write " << (dir / "cluster.txt").string()
                << "\n";
      return kExitIo;
    }
    std::cout << "encoded '" << opt.positional[0] << "' into " << stripes
              << " stripe(s) across " << opt.cluster_nodes << " nodes ("
              << (opt.local > 0
                      ? "LRC(" + std::to_string(opt.k) + "," +
                            std::to_string(opt.m) + "," +
                            std::to_string(opt.local) + ")"
                      : "RS(" + std::to_string(opt.k) + "," +
                            std::to_string(opt.m) + ")")
              << ", " << opt.block << " B blocks) under '" << dir.string()
              << "'\n";
    return kExitOk;
  }

  if (cmd != "verify" && cmd != "repair" && cmd != "decode") {
    Usage();
    return kExitUsage;
  }
  if (opt.positional.empty()) {
    Usage();
    return kExitUsage;
  }
  cluster::ClusterManifest mf;
  auto c = OpenCluster(opt.positional[0], &mf);
  if (!c) return kExitIo;
  c->coordinator().heartbeat();  // routing skips nuked node dirs

  if (cmd == "verify") {
    // Plain verify is report-only: its reads must not write healed
    // chunks back, or the damage report would erase its own evidence.
    c->coordinator().set_read_repair(opt.heal);
    // --heal first runs a scrub pass so missing/corrupt chunks are
    // rewritten at their homes before the verification reads.
    std::size_t healed = 0;
    if (opt.heal) {
      const auto rep = c->coordinator().scrub_pass();
      healed = rep.repaired;
      if (rep.unrecoverable > 0) {
        std::cerr << "eccli: " << rep.unrecoverable
                  << " chunk(s) unrecoverable (fewer than k survivors)\n";
        return kExitQuorum;
      }
    }
    // Read every data block; report how many needed reconstruction.
    std::size_t degraded = 0;
    for (const std::uint64_t s : mf.stripes) {
      for (std::uint32_t j = 0; j < mf.geom.k; ++j) {
        std::vector<std::byte> out;
        const auto r = c->coordinator().read_block(s, j, &out);
        if (!r.ok()) return ClusterExit(r);
        if (r.code == cluster::OpResult::Code::kDegraded) ++degraded;
      }
    }
    if (degraded == 0) {
      if (healed > 0) {
        std::cout << "healed " << healed << " chunk(s); all "
                  << mf.stripes.size() << " stripe(s) healthy ("
                  << c->coordinator().quarantined_stripes()
                  << " quarantined)\n";
        return kExitHealed;
      }
      std::cout << "all " << mf.stripes.size() << " stripe(s) healthy\n";
      return kExitOk;
    }
    std::cout << degraded << " degraded block read(s) across "
              << mf.stripes.size() << " stripe(s)\n";
    return kExitDamaged;
  }
  if (cmd == "repair") {
    const auto report = c->coordinator().scrub_pass();
    if (report.unrecoverable > 0) {
      std::cerr << "eccli: " << report.unrecoverable
                << " chunk(s) unrecoverable (fewer than k survivors)\n";
      return kExitQuorum;
    }
    if (report.repaired == 0 && report.unreachable == 0) {
      std::cout << "nothing to repair (" << report.chunks_checked
                << " chunks verified)\n";
    } else {
      std::cout << "repaired " << report.repaired << " chunk(s), "
                << report.unreachable << " unreachable (node down)\n";
    }
    return kExitOk;
  }
  // decode
  if (opt.positional.size() != 2) {
    Usage();
    return kExitUsage;
  }
  const std::size_t stripe_bytes =
      static_cast<std::size_t>(mf.geom.k) * mf.geom.block_size;
  std::vector<std::byte> output(mf.stripes.size() * stripe_bytes);
  for (std::size_t i = 0; i < mf.stripes.size(); ++i) {
    std::vector<std::byte*> outp;
    for (std::uint32_t j = 0; j < mf.geom.k; ++j) {
      outp.push_back(output.data() + i * stripe_bytes +
                     static_cast<std::size_t>(j) * mf.geom.block_size);
    }
    const auto r = c->coordinator().read_stripe(
        mf.stripes[i], std::span<std::byte* const>(outp));
    if (!r.ok()) return ClusterExit(r);
  }
  output.resize(mf.file_size);  // strip the zero padding
  aio::Transfer xfer(aio::SelectBackend(opt.aio));
  if (const auto st =
          aio::WriteFileDurable(xfer, opt.positional[1], output);
      !st.ok()) {
    std::cerr << "eccli: cannot write '" << opt.positional[1]
              << "': " << std::strerror(st.err) << "\n";
    return kExitIo;
  }
  std::cout << "reassembled '" << opt.positional[1] << "' ("
            << mf.file_size << " bytes) from " << mf.stripes.size()
            << " stripe(s)\n";
  return kExitOk;
}

/// Execute the command with the service alive only inside this scope:
/// metrics/trace dumps in main() run after the service destructor has
/// drained every in-flight batch, so the scrape sees final counts.
int RunCommand(const std::string& cmd, const Options& opt) {
  if (opt.cluster_nodes > 0) return RunClusterCommand(cmd, opt);
  // One service for the whole command; stores attach to it unless the
  // user opted out with --serial. With an explicit --deadline-ms or
  // --retries the budget is strict: exhaustion surfaces as exit 4
  // instead of silently falling back to the serial path.
  std::optional<svc::BandwidthGovernor> governor;  // outlives service
  std::optional<svc::StripeService> service;
  if (!opt.serial) {
    svc::StripeService::Config cfg;
    cfg.pool_threads = opt.threads;
    if (opt.qos) {
      governor.emplace(svc::GovernorConfig{});
      cfg.governor = &*governor;
      // One side-pool worker keeps degraded reads from queueing
      // behind governed bulk stripes already handed to the workers.
      cfg.latency_pool_threads = 1;
    }
    service.emplace(std::move(cfg));
  }
  shard::ServicePolicy policy;
  policy.deadline = std::chrono::milliseconds(opt.deadline_ms);
  policy.retry.max_retries = opt.retries;
  policy.serial_fallback = !opt.strict_budget;
  auto attach = [&](shard::ShardStore& store) {
    if (service) store.use_service(&*service);
    store.set_service_policy(policy);
    store.set_aio_mode(opt.aio);
  };

  if (cmd == "encode") {
    if (opt.positional.size() != 2) {
      Usage();
      return kExitUsage;
    }
    dialga::DialgaCodec codec(opt.k, opt.m);
    shard::ShardStore store(codec, opt.block);
    attach(store);
    const shard::Status st =
        store.encode_file(opt.positional[0], opt.positional[1]);
    if (!st.ok()) return Report(st);
    std::cout << "encoded '" << opt.positional[0] << "' into "
              << opt.k + opt.m << " shards under '" << opt.positional[1]
              << "' (RS(" << opt.k << "," << opt.m << "), " << opt.block
              << " B blocks)\n";
    return kExitOk;
  }

  if (cmd == "verify" || cmd == "repair" || cmd == "decode") {
    if (opt.positional.empty()) {
      Usage();
      return kExitUsage;
    }
    shard::Status mf_status;
    const auto mf = ManifestOf(opt.positional[0], &mf_status);
    if (!mf) return Report(mf_status);
    dialga::DialgaCodec codec(mf->k, mf->m);
    shard::ShardStore store(codec, mf->block_size);
    attach(store);

    if (cmd == "verify") {
      if (!opt.heal) {
        const auto damaged = store.verify(opt.positional[0]);
        if (damaged.empty()) {
          std::cout << "all " << mf->k + mf->m << " shards intact\n";
          return kExitOk;
        }
        std::cout << damaged.size() << " damaged shard(s):";
        for (const std::size_t s : damaged) std::cout << " " << s;
        std::cout << "\n";
        return kExitDamaged;
      }
      // --heal: distinguish corrupt (present, wrong bytes) from missing,
      // rewrite what parity can recover in place, and report the rest.
      const auto detail = store.verify_detailed(opt.positional[0]);
      if (detail.clean()) {
        std::cout << "all " << mf->k + mf->m << " shards intact\n";
        return kExitOk;
      }
      const auto report = store.repair(opt.positional[0]);
      if (!report.status.ok()) return Report(report.status);
      std::cout << "healed " << report.repaired.size() << "/"
                << detail.damaged.size() << " damaged shard(s) ("
                << detail.corrupt.size() << " corrupt, "
                << detail.damaged.size() - detail.corrupt.size()
                << " missing):";
      for (const std::size_t s : report.repaired) std::cout << " " << s;
      std::cout << "\n";
      if (!report.ok()) {
        std::cout << report.damaged.size() - report.repaired.size()
                  << " shard(s) unhealable (beyond parity) — "
                     "quarantined:";
        for (const std::size_t s : report.damaged) {
          if (std::find(report.repaired.begin(), report.repaired.end(),
                        s) == report.repaired.end()) {
            std::cout << " " << s;
          }
        }
        std::cout << "\n";
        return kExitDamaged;
      }
      return kExitHealed;
    }
    if (cmd == "repair") {
      const auto report = store.repair(opt.positional[0]);
      if (!report.status.ok()) return Report(report.status);
      if (report.damaged.empty()) {
        std::cout << "nothing to repair\n";
        return kExitOk;
      }
      std::cout << "repaired " << report.repaired.size() << "/"
                << report.damaged.size() << " damaged shard(s)\n";
      return report.ok() ? kExitOk : kExitDamaged;
    }
    // decode
    if (opt.positional.size() != 2) {
      Usage();
      return kExitUsage;
    }
    const shard::Status st =
        store.decode_file(opt.positional[0], opt.positional[1]);
    if (!st.ok()) return Report(st);
    std::cout << "reassembled '" << opt.positional[1] << "' ("
              << mf->file_size << " bytes)\n";
    return kExitOk;
  }

  Usage();
  return kExitUsage;
}

/// Flag value first, environment second; empty = no dump.
std::string OrEnv(const std::string& flag, const char* env) {
  if (!flag.empty()) return flag;
  const char* v = std::getenv(env);
  return v != nullptr ? std::string(v) : std::string();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return kExitUsage;
  }
  const std::string cmd = argv[1];
  // `eccli --help` / `eccli -h` / `eccli help` print on stdout, exit 0
  // — the one dash-leading argv[1] besides --fault-plan-dump that is a
  // command of its own rather than a usage error.
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintHelp(std::cout);
    return kExitOk;
  }
  Options opt;
  if (!Parse(argc, argv, &opt)) {
    Usage();
    return kExitUsage;
  }
  if (opt.help) {  // `eccli <cmd> --help` is help, not the command
    PrintHelp(std::cout);
    return kExitOk;
  }
  if (!ValidGeometry(opt)) {
    std::cerr << "eccli: invalid geometry k=" << opt.k << " m=" << opt.m
              << " block=" << opt.block
              << " (need k, m >= 1, k + m <= " << gf::kFieldSize
              << ", 1 <= block <= 1073741824)\n";
    return kExitUsage;
  }
  if (const std::string ignored = IgnoredFlag(opt); !ignored.empty()) {
    std::cerr << "eccli: " << ignored << "\n";
    return kExitUsage;
  }
  // `eccli --fault-plan-dump [...]` works without a subcommand.
  if (cmd == "--fault-plan-dump") opt.fault_plan_dump = true;

  // Fault plans: environment first (CI harnesses), then the flag so an
  // explicit --fault-plan can extend or override it.
  std::string plan_error;
  if (!fault::Injector::Global().install_from_env(&plan_error)) {
    std::cerr << "eccli: bad DIALGA_FAULT_PLAN: " << plan_error << "\n";
    return kExitUsage;
  }
  if (!opt.fault_plan.empty() &&
      !fault::Injector::Global().install_spec(opt.fault_plan, &plan_error)) {
    std::cerr << "eccli: bad --fault-plan: " << plan_error << "\n";
    return kExitUsage;
  }
  // Log the fully-resolved plan (seed + per-site specs) the moment the
  // injector goes active, so a failing chaos run is reproducible from
  // its log alone: feed the printed string back to --fault-plan.
  if (fault::Injector::Global().active()) {
    std::cerr << "eccli: fault plan: " << fault::Injector::Global().describe()
              << "\n";
  }
  if (opt.fault_plan_dump) {
    std::cout << fault::Injector::Global().describe() << "\n";
    return kExitOk;
  }

  // ISA pin: DIALGA_ISA was applied at first kernel dispatch; --isa
  // overrides it. Unsupported levels clamp to the best available.
  if (!opt.isa.empty()) {
    const auto parsed = gf::parse_isa(opt.isa);
    if (!parsed) {
      std::cerr << "eccli: --isa '" << opt.isa
                << "' not recognized (scalar|ssse3|avx2|avx512|gfni)\n";
      return kExitUsage;
    }
    const gf::IsaLevel installed = gf::set_active_isa(*parsed);
    if (installed != *parsed) {
      std::cerr << "eccli: --isa " << gf::isa_name(*parsed)
                << " unsupported on this host/build; using "
                << gf::isa_name(installed) << "\n";
    }
  }

  const std::string metrics_out = OrEnv(opt.metrics_out, "DIALGA_METRICS_OUT");
  const std::string trace_out = OrEnv(opt.trace_out, "DIALGA_TRACE_OUT");
  if (!trace_out.empty()) obs::Tracer::Global().set_enabled(true);

  const int rc = RunCommand(cmd, opt);

  // Dump even on failure: the registry and the trace ring are exactly
  // the evidence a failed run leaves behind.
  if (!metrics_out.empty() && !obs::DumpMetricsToFile(metrics_out)) {
    std::cerr << "eccli: cannot write metrics to '" << metrics_out << "'\n";
  }
  if (!trace_out.empty() &&
      !obs::Tracer::Global().dump_to_file(trace_out)) {
    std::cerr << "eccli: cannot write trace to '" << trace_out << "'\n";
  }
  return rc;
}
