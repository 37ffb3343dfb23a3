// Stripe-service load sweep: offered load vs completion latency.
//
// Each point runs a fresh svc::StripeService and P open-loop producers
// submitting RS(8,3)/1KB encode stripes at a fixed aggregate offered
// rate. The service batches admitted requests onto the work-stealing
// pool; admission control sheds load once the bounded queue saturates.
// The series reports, per offered-load level: achieved throughput,
// admitted/rejected split, p50/p99 service latency (submit ->
// completion), mean dispatched batch size, and the pool counters — the
// classic open-loop latency curve (flat until saturation, then the p99
// knee plus rejections instead of unbounded queueing).
//
// Machine-readable output: DIALGA_CSV_DIR drops the series as
// bench_svc_throughput.csv; every point is also a google-benchmark
// entry whose counters carry the same columns (JSON via
// --benchmark_format=json).
//
// --file-backed switches to the file datapath comparison instead: one
// encode_file + decode_file round trip per aio backend (stdio, and
// uring when the kernel has io_uring) over a 32 MiB input with the
// stripe service attached, checking the two backends produce
// bit-identical shards, manifest, and decoded output, and reporting
// throughput per backend. Series lands as
// bench_svc_throughput_datapath.csv under DIALGA_CSV_DIR.
//
// --cluster-nodes N switches to the cluster-tier sweep: healthy
// writes/reads, degraded reads with a node down, a scrub-repair pass
// and a remove-node rebalance against an in-process N-node cluster,
// reported as payload throughput per operation. Series lands as
// bench_svc_throughput_cluster.csv under DIALGA_CSV_DIR.
//
// --integrity measures what verify-on-read costs the decode path
// (checksum verification off vs on, best of three reps; target <= 5%
// overhead). Series lands as bench_svc_throughput_integrity.csv.
//
// --qos runs the bandwidth-governor acceptance measurement: a mixed
// workload (closed-loop bulk encodes saturating the pool + open-loop
// degraded reads) three ways — degraded-only baseline, ungoverned mix,
// governed mix — and checks the governed degraded-read p99 stays
// within 1.5x its bulk-free baseline while bulk throughput holds >=
// 80% of the ungoverned run. Series lands as
// bench_svc_throughput_qos.csv.
//
// Latency columns come in two flavors since the coordinated-omission
// fix: p50/p99 measure submit -> completion (service view), while
// p50i/p99i measure from the *intended* schedule-derived send time —
// when a producer falls behind its open-loop schedule, the time it
// spent blocked counts against the system, not the workload.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "aio/datapath.h"
#include "bench_util/stats.h"
#include "cluster/local_cluster.h"
#include "ec/isal.h"
#include "fault/injector.h"
#include "fig_common.h"
#include "shard/shard_store.h"
#include "svc/governor.h"
#include "svc/stripe_service.h"

namespace {

struct PointResult {
  double seconds = 0.0;
  double achieved_kops = 0.0;
  svc::ServiceStats stats;
  /// Coordinated-omission-corrected percentiles: latency measured from
  /// each request's intended (schedule-derived) send time, so time a
  /// producer spent running behind its open-loop schedule counts.
  double p50_intended_s = 0.0;
  double p99_intended_s = 0.0;
  std::size_t intended_samples = 0;
};

/// One producer's pre-allocated stripes (buffers must outlive futures).
struct ProducerBuffers {
  std::vector<std::vector<std::byte>> blocks;
  std::size_t k, m, bs, n;

  ProducerBuffers(std::size_t stripes, std::size_t k_, std::size_t m_,
                  std::size_t bs_, unsigned seed)
      : blocks(stripes * (k_ + m_)), k(k_), m(m_), bs(bs_), n(stripes) {
    std::mt19937_64 rng(seed);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < k + m; ++i) {
        auto& b = blocks[s * (k + m) + i];
        b.resize(bs);
        if (i < k) {
          for (auto& x : b) x = static_cast<std::byte>(rng());
        }
      }
    }
  }

  svc::EncodeRequest request(std::size_t s, const ec::Codec* codec) {
    svc::EncodeRequest req;
    req.shape = {k, m, bs};
    req.codec = codec;
    for (std::size_t i = 0; i < k; ++i) {
      req.data.push_back(blocks[s * (k + m) + i].data());
    }
    for (std::size_t j = 0; j < m; ++j) {
      req.parity.push_back(blocks[s * (k + m) + k + j].data());
    }
    return req;
  }
};

PointResult RunPoint(double offered_kops, std::size_t producers,
                     std::size_t per_producer, const ec::Codec& codec,
                     std::size_t k, std::size_t m, std::size_t bs) {
  svc::StripeService::Config cfg;
  cfg.queue_capacity = 512;
  svc::StripeService service(std::move(cfg));

  std::vector<std::unique_ptr<ProducerBuffers>> buffers;
  for (std::size_t p = 0; p < producers; ++p) {
    buffers.push_back(std::make_unique<ProducerBuffers>(
        per_producer, k, m, bs, static_cast<unsigned>(40 + p)));
  }

  // Open-loop pacing: each producer submits on a fixed-interval clock
  // regardless of completions. sleep_until rather than a deadline spin
  // so the producers do not steal cycles from the pool workers on
  // small machines; at the highest rates the sleep returns immediately
  // and pacing degrades to submit-as-fast-as-possible, which is the
  // overload the sweep wants anyway.
  const double per_producer_rate = offered_kops * 1e3 / producers;
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / per_producer_rate));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<double>> corrected(producers);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    corrected[p].assign(per_producer, -1.0);
    threads.emplace_back([&, p] {
      std::vector<std::future<svc::Result>> done;
      // Lateness of each actual submit vs its intended schedule slot:
      // the coordinated-omission correction adds it back to the
      // measured service latency, so requests a stalled producer
      // couldn't even send still charge the system for the stall.
      std::vector<double> late(per_producer, 0.0);
      done.reserve(per_producer);
      auto next = std::chrono::steady_clock::now();
      for (std::size_t s = 0; s < per_producer; ++s) {
        std::this_thread::sleep_until(next);
        late[s] = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - next)
                      .count();
        next += interval;
        done.push_back(service.submit(buffers[p]->request(s, &codec)));
      }
      for (std::size_t s = 0; s < per_producer; ++s) {
        const svc::Result res = done[s].get();
        if (res.ok()) {
          corrected[p][s] = std::max(0.0, late[s]) + res.service_seconds;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  PointResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.stats = service.stats();
  r.achieved_kops =
      r.seconds > 0.0
          ? static_cast<double>(r.stats.completed_ok) / (r.seconds * 1e3)
          : 0.0;
  std::vector<double> all;
  for (const auto& v : corrected) {
    for (const double x : v) {
      if (x >= 0.0) all.push_back(x);
    }
  }
  if (!all.empty()) {
    r.p50_intended_s = bench_util::Percentile(all, 0.50);
    r.p99_intended_s = bench_util::Percentile(all, 0.99);
    r.intended_samples = all.size();
  }
  return r;
}

/// Slurp a file's bytes (plain read; comparison only).
std::vector<std::byte> Slurp(const std::filesystem::path& p) {
  std::vector<std::byte> out;
  aio::ReadFileFull(p, &out);
  return out;
}

/// Whole-directory byte comparison: same file set, same contents.
bool DirsIdentical(const std::filesystem::path& a,
                   const std::filesystem::path& b) {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(a)) {
    names.push_back(e.path().filename().string());
  }
  std::size_t b_count = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(b)) ++b_count;
  if (b_count != names.size()) return false;
  for (const auto& n : names) {
    if (Slurp(a / n) != Slurp(b / n)) return false;
  }
  return true;
}

/// The --file-backed mode: stdio vs uring over the shard datapath.
int RunFileBacked() {
  namespace fs = std::filesystem;
  const std::size_t k = 8, m = 3, bs = 64 * 1024;
  const std::size_t input_bytes = 32ull << 20;
  const ec::IsalCodec codec(k, m);

  const fs::path root =
      fs::temp_directory_path() /
      ("dialga_bench_datapath_" + std::to_string(::getpid()));
  fs::create_directories(root);
  const fs::path input = root / "input.bin";
  {
    std::mt19937_64 rng(42);
    std::vector<std::byte> data(input_bytes);
    for (auto& x : data) x = static_cast<std::byte>(rng());
    std::ofstream out(input, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  struct BackendRun {
    const char* name;
    aio::Mode mode;
    double encode_s = 0.0, decode_s = 0.0;
    bool ok = false;
  };
  std::vector<BackendRun> runs{{"stdio", aio::Mode::kStdio}};
  const bool have_uring =
      aio::SelectBackend(aio::Mode::kAuto) == aio::Backend::kUring;
  if (have_uring) runs.push_back({"uring", aio::Mode::kUring});

  bench_util::Table table({"backend", "op", "bytes", "seconds", "GBps"});
  for (auto& run : runs) {
    svc::StripeService service(svc::StripeService::Config{});
    shard::ShardStore store(codec, bs);
    store.use_service(&service);
    store.set_aio_mode(run.mode);
    const fs::path dir = root / (std::string("shards_") + run.name);
    const fs::path decoded = root / (std::string("out_") + run.name);

    auto t0 = std::chrono::steady_clock::now();
    const shard::Status enc = store.encode_file(input, dir);
    auto t1 = std::chrono::steady_clock::now();
    const shard::Status dec = store.decode_file(dir, decoded);
    auto t2 = std::chrono::steady_clock::now();
    run.encode_s = std::chrono::duration<double>(t1 - t0).count();
    run.decode_s = std::chrono::duration<double>(t2 - t1).count();
    run.ok = enc.ok() && dec.ok();
    if (!run.ok) {
      std::fprintf(stderr, "%s backend failed: %s\n", run.name,
                   (enc.ok() ? dec : enc).message().c_str());
    }
    for (const auto& [op, secs] : {std::pair{"encode", run.encode_s},
                                   std::pair{"decode", run.decode_s}}) {
      table.row({run.name, op, std::to_string(input_bytes),
                 bench_util::Table::num(secs, 6),
                 bench_util::Table::num(
                     secs > 0 ? input_bytes / (secs * 1e9) : 0.0, 3)});
    }
  }

  const auto original = Slurp(input);
  bool outputs_match = true;
  bool shards_match = true;
  for (const auto& run : runs) {
    outputs_match &=
        run.ok && Slurp(root / (std::string("out_") + run.name)) == original;
  }
  if (runs.size() == 2 && runs[0].ok && runs[1].ok) {
    shards_match = DirsIdentical(root / "shards_stdio", root / "shards_uring");
  }

  std::printf("\n=== File-backed shard datapath: RS(%zu,%zu), %zu B blocks, "
              "%zu MiB input ===\n",
              k, m, bs, input_bytes >> 20);
  table.print(std::cout);
  std::printf("\npaper-shape checks:\n");
  bool all = true;
  auto check = [&](const char* claim, bool holds) {
    std::printf("  [%s] %s\n", holds ? "PASS" : "FAIL", claim);
    all &= holds;
  };
  bool every_ok = true;
  for (const auto& run : runs) every_ok &= run.ok;
  check("every backend round-trips without error", every_ok);
  check("decoded outputs are bit-identical to the input", outputs_match);
  if (runs.size() == 2) {
    check("stdio and uring emit bit-identical shards and manifest",
          shards_match);
    const double ratio =
        runs[1].encode_s > 0 ? runs[0].encode_s / runs[1].encode_s : 0.0;
    std::printf("  uring/stdio encode speedup: %.2fx\n", ratio);
  } else {
    std::printf("  (io_uring unavailable: stdio only, no comparison)\n");
  }

  if (const char* dir = std::getenv("DIALGA_CSV_DIR"); dir != nullptr) {
    std::ofstream out(std::string(dir) + "/bench_svc_throughput_datapath.csv");
    if (out) table.print_csv(out);
  }
  std::error_code ec;
  fs::remove_all(root, ec);
  return all ? 0 : 1;
}

/// The --integrity mode: what verify-on-read costs on the decode path.
/// One shard generation, decoded with checksum verification off and
/// then on (best of three reps each, so a scheduler hiccup cannot fake
/// a regression); the overhead target from the integrity work is <= 5%
/// — CRC-32C runs an order of magnitude faster than the decode itself,
/// so verification should be noise. Series lands as
/// bench_svc_throughput_integrity.csv under DIALGA_CSV_DIR.
int RunIntegrity() {
  namespace fs = std::filesystem;
  const std::size_t k = 8, m = 3, bs = 64 * 1024;
  const std::size_t input_bytes = 32ull << 20;
  const int reps = 3;
  const ec::IsalCodec codec(k, m);

  const fs::path root =
      fs::temp_directory_path() /
      ("dialga_bench_integrity_" + std::to_string(::getpid()));
  fs::create_directories(root);
  const fs::path input = root / "input.bin";
  {
    std::mt19937_64 rng(42);
    std::vector<std::byte> data(input_bytes);
    for (auto& x : data) x = static_cast<std::byte>(rng());
    std::ofstream out(input, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  shard::ShardStore store(codec, bs);
  const fs::path dir = root / "shards";
  const bool encoded = store.encode_file(input, dir).ok();
  const auto original = Slurp(input);

  bench_util::Table table({"verify", "op", "bytes", "seconds", "GBps"});
  double best[2] = {0.0, 0.0};  // [0]=off, [1]=on
  bool ok[2] = {encoded, encoded};
  for (int v = 0; v < 2 && encoded; ++v) {
    store.set_verify_on_read(v == 1);
    for (int rep = 0; rep < reps; ++rep) {
      const fs::path decoded =
          root / ("out_" + std::to_string(v) + "_" + std::to_string(rep));
      const auto t0 = std::chrono::steady_clock::now();
      const shard::Status dec = store.decode_file(dir, decoded);
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      ok[v] &= dec.ok() && Slurp(decoded) == original;
      if (rep == 0 || secs < best[v]) best[v] = secs;
    }
    table.row({v == 1 ? "on" : "off", "decode", std::to_string(input_bytes),
               bench_util::Table::num(best[v], 6),
               bench_util::Table::num(
                   best[v] > 0 ? input_bytes / (best[v] * 1e9) : 0.0, 3)});
  }
  const double overhead =
      best[0] > 0.0 ? (best[1] - best[0]) / best[0] : 1.0;

  std::printf("\n=== Verify-on-read overhead: RS(%zu,%zu), %zu B blocks, "
              "%zu MiB input, best of %d ===\n",
              k, m, bs, input_bytes >> 20, reps);
  table.print(std::cout);
  std::printf("\npaper-shape checks:\n");
  bool all = true;
  auto check = [&](const char* claim, bool holds) {
    std::printf("  [%s] %s\n", holds ? "PASS" : "FAIL", claim);
    all &= holds;
  };
  check("decode round-trips bit-identically with verification off", ok[0]);
  check("decode round-trips bit-identically with verification on", ok[1]);
  std::printf("  verify-on-read decode overhead: %+.1f%%\n", overhead * 100);
  check("verify-on-read decode overhead stays within 5%", overhead <= 0.05);

  if (const char* csv = std::getenv("DIALGA_CSV_DIR"); csv != nullptr) {
    std::ofstream out(std::string(csv) +
                      "/bench_svc_throughput_integrity.csv");
    if (out) table.print_csv(out);
  }
  std::error_code ec;
  fs::remove_all(root, ec);
  return all ? 0 : 1;
}

/// The --cluster-nodes N mode: operation sweep over the in-process
/// cluster tier — healthy writes and reads, degraded reads with a node
/// down, a scrub-repair pass over dropped chunks, and a remove-node
/// rebalance — each reported as payload throughput. Series lands as
/// bench_svc_throughput_cluster.csv under DIALGA_CSV_DIR.
int RunCluster(std::size_t nodes) {
  const std::size_t stripes = 48;
  cluster::Geometry geom;
  geom.k = 4;
  geom.global = 2;
  geom.local = 0;
  geom.block_size = 64 * 1024;

  cluster::LocalClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.geom = geom;
  cluster::LocalCluster c(std::move(cfg));
  cluster::Coordinator& coord = c.coordinator();

  std::mt19937_64 rng(7);
  std::vector<std::vector<std::byte>> data(stripes * geom.k);
  for (auto& b : data) {
    b.resize(geom.block_size);
    for (auto& x : b) x = static_cast<std::byte>(rng());
  }
  const std::uint64_t payload =
      static_cast<std::uint64_t>(stripes) * geom.k * geom.block_size;

  bench_util::Table table({"op", "stripes", "bytes", "seconds", "GBps"});
  auto timed = [&](const char* op, std::uint64_t bytes, auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = body();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    table.row({op, std::to_string(stripes), std::to_string(bytes),
               bench_util::Table::num(secs, 6),
               bench_util::Table::num(
                   secs > 0 ? bytes / (secs * 1e9) : 0.0, 3)});
    return ok;
  };

  const bool writes_acked = timed("write", payload, [&] {
    bool ok = true;
    for (std::size_t s = 0; s < stripes; ++s) {
      std::vector<const std::byte*> blocks;
      for (std::size_t i = 0; i < geom.k; ++i) {
        blocks.push_back(data[s * geom.k + i].data());
      }
      ok &= coord.write_stripe(s, blocks).code ==
            cluster::OpResult::Code::kOk;
    }
    return ok;
  });

  auto read_all = [&](bool* identical) {
    bool ok = true;
    *identical = true;
    std::vector<std::vector<std::byte>> out(geom.k);
    for (auto& b : out) b.resize(geom.block_size);
    for (std::size_t s = 0; s < stripes; ++s) {
      std::vector<std::byte*> ptrs;
      for (auto& b : out) ptrs.push_back(b.data());
      ok &= coord.read_stripe(s, ptrs).ok();
      for (std::size_t i = 0; i < geom.k; ++i) {
        *identical &= out[i] == data[s * geom.k + i];
      }
    }
    return ok;
  };

  bool healthy_identical = false;
  const bool healthy_ok =
      timed("read", payload, [&] { return read_all(&healthy_identical); });

  c.kill(0);
  bool degraded_identical = false;
  const bool degraded_ok = timed("degraded_read", payload, [&] {
    return read_all(&degraded_identical);
  });
  c.revive(0);

  // Damage: drop the first data chunk of every stripe at its home, then
  // let one scrub pass put them all back.
  std::size_t dropped = 0;
  for (std::size_t s = 0; s < stripes; ++s) {
    const auto t = c.placement().table(s, geom);
    if (c.node(t[0] - 1).drop_chunk(s, 0)) ++dropped;
  }
  cluster::ScrubReport scrub;
  const bool scrub_ok =
      timed("scrub_repair",
            static_cast<std::uint64_t>(dropped) * geom.block_size,
            [&] {
              scrub = coord.scrub_pass();
              return scrub.repaired == dropped && scrub.unrecoverable == 0;
            });

  cluster::RebalanceReport rebal;
  const bool rebal_ok = timed("rebalance", payload, [&] {
    rebal = coord.remove_node(cluster::LocalCluster::id_of(nodes - 1));
    return rebal.failed == 0;
  });

  std::printf("\n=== Cluster tier: %zu nodes, RS(%u,%u), %u B blocks, "
              "%zu stripes ===\n",
              nodes, geom.k, geom.global, geom.block_size, stripes);
  table.print(std::cout);
  std::printf("\npaper-shape checks:\n");
  bool all = true;
  auto check = [&](const char* claim, bool holds) {
    std::printf("  [%s] %s\n", holds ? "PASS" : "FAIL", claim);
    all &= holds;
  };
  check("every write is acknowledged (all chunks homed)", writes_acked);
  check("healthy reads return bit-identical data",
        healthy_ok && healthy_identical);
  check("degraded reads with a node down stay bit-identical",
        degraded_ok && degraded_identical);
  check("one scrub pass repairs every dropped chunk", scrub_ok);
  check("remove-node rebalance re-homes chunks without failures",
        rebal_ok && rebal.moved + rebal.rebuilt > 0);

  if (const char* dir = std::getenv("DIALGA_CSV_DIR"); dir != nullptr) {
    std::ofstream out(std::string(dir) + "/bench_svc_throughput_cluster.csv");
    if (out) table.print_csv(out);
  }
  return all ? 0 : 1;
}

/// One mixed-workload run for the --qos mode: optional closed-loop
/// bulk encodes (saturating) against open-loop degraded reads, on one
/// service, optionally governed. Degraded-read latencies are reported
/// both raw (submit -> completion) and coordinated-omission-corrected
/// (intended send -> completion).
struct MixResult {
  double seconds = 0.0;
  std::uint64_t bulk_completed = 0;
  double bulk_stripes_per_s = 0.0;
  double deg_p50_s = 0.0, deg_p99_s = 0.0;    ///< actual-submit basis
  double deg_p50i_s = 0.0, deg_p99i_s = 0.0;  ///< intended-time basis
  std::size_t deg_served = 0;
  std::size_t deg_failed = 0;
  svc::GovernorStats gov;
};

MixResult RunMix(bool with_bulk, svc::BandwidthGovernor* governor,
                 double run_seconds, const ec::Codec& codec) {
  const std::size_t k = 8, m = 3;
  const std::size_t bulk_bs = 64 * 1024;
  const std::size_t deg_bs = 64 * 1024;
  const std::size_t bulk_producers = 2;
  const std::size_t bulk_window = 4;  ///< outstanding per producer
  const std::size_t deg_producers = 2;
  const double deg_rate_per_producer = 1000.0;  // ops/s each
  const std::size_t deg_ring = 128;  ///< reusable buffer slots each

  svc::StripeService::Config cfg;
  cfg.queue_capacity = 2048;
  // Single-stripe batches keep the pool's head-of-line blocking unit
  // at one stripe's encode time — the granularity the governor's
  // byte cap schedules at. Applied to every run so the comparison is
  // batching-neutral.
  cfg.max_batch = 1;
  cfg.governor = governor;
  // The governed run also gets the QoS dispatch path's side pool, so
  // degraded reads never queue behind already-dispatched bulk stripes.
  cfg.latency_pool_threads = governor != nullptr ? 1 : 0;
  svc::StripeService service(std::move(cfg));

  // All stripe buffers are built before the clock starts: filling tens
  // of MB from an RNG inside a producer thread would eat the deadline.
  const std::size_t bulk_slots = 2 * bulk_window;
  std::vector<std::unique_ptr<ProducerBuffers>> bulk_bufs;
  if (with_bulk) {
    for (std::size_t p = 0; p < bulk_producers; ++p) {
      bulk_bufs.push_back(std::make_unique<ProducerBuffers>(
          bulk_slots, k, m, bulk_bs, static_cast<unsigned>(90 + p)));
    }
  }
  // deg_ring reusable decode stripes per producer: blocks 0..k+m-1,
  // erasure {0}; filled by 64-bit words (contents only feed the GF
  // math, the pattern does not matter).
  std::vector<std::vector<std::vector<std::byte>>> deg_blocks(deg_producers);
  for (std::size_t p = 0; p < deg_producers; ++p) {
    std::mt19937_64 rng(700 + p);
    deg_blocks[p].resize(deg_ring * (k + m));
    for (auto& b : deg_blocks[p]) {
      b.resize(deg_bs);
      for (std::size_t off = 0; off + 8 <= deg_bs; off += 8) {
        const std::uint64_t v = rng();
        std::memcpy(b.data() + off, &v, sizeof(v));
      }
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(run_seconds));

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> bulk_done(bulk_producers, 0);
  if (with_bulk) {
    for (std::size_t p = 0; p < bulk_producers; ++p) {
      threads.emplace_back([&, p] {
        // Reusable stripe pool; slot reuse is safe because the window
        // is harvested before a slot comes around again.
        ProducerBuffers& bufs = *bulk_bufs[p];
        std::deque<std::future<svc::Result>> window;
        std::uint64_t submitted = 0;
        while (std::chrono::steady_clock::now() < deadline) {
          if (window.size() >= bulk_window) {
            if (window.front().get().ok()) ++bulk_done[p];
            window.pop_front();
          }
          svc::EncodeRequest req =
              bufs.request(submitted % bulk_slots, &codec);
          window.push_back(service.submit(std::move(req)));
          ++submitted;
        }
        while (!window.empty()) {
          if (window.front().get().ok()) ++bulk_done[p];
          window.pop_front();
        }
      });
    }
  }

  std::vector<std::vector<double>> deg_corrected(deg_producers);
  std::vector<std::vector<double>> deg_raw(deg_producers);
  std::vector<std::size_t> deg_fail(deg_producers, 0);
  for (std::size_t p = 0; p < deg_producers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<std::vector<std::byte>>& blocks = deg_blocks[p];
      std::vector<std::future<svc::Result>> slot_fut(deg_ring);
      std::vector<double> slot_late(deg_ring, 0.0);
      std::vector<bool> slot_used(deg_ring, false);
      const auto interval = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / deg_rate_per_producer));
      auto harvest = [&](std::size_t slot) {
        if (!slot_used[slot]) return;
        const svc::Result res = slot_fut[slot].get();
        if (res.ok()) {
          deg_raw[p].push_back(res.service_seconds);
          deg_corrected[p].push_back(std::max(0.0, slot_late[slot]) +
                                     res.service_seconds);
        } else {
          ++deg_fail[p];
        }
        slot_used[slot] = false;
      };
      auto next = std::chrono::steady_clock::now();
      std::size_t i = 0;
      while (next < deadline) {
        std::this_thread::sleep_until(next);
        const std::size_t slot = i % deg_ring;
        harvest(slot);  // bounds outstanding at deg_ring per producer
        const double late = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - next)
                                .count();
        next += interval;
        svc::DecodeRequest req;
        req.shape = {k, m, deg_bs};
        req.codec = &codec;
        for (std::size_t j = 0; j < k + m; ++j) {
          req.blocks.push_back(blocks[slot * (k + m) + j].data());
        }
        req.erasures = {0};
        slot_late[slot] = late;
        slot_fut[slot] = service.submit(std::move(req));
        slot_used[slot] = true;
        ++i;
      }
      for (std::size_t s = 0; s < deg_ring; ++s) harvest(s);
    });
  }
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  service.shutdown();

  MixResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const std::uint64_t d : bulk_done) r.bulk_completed += d;
  r.bulk_stripes_per_s =
      r.seconds > 0.0 ? static_cast<double>(r.bulk_completed) / r.seconds
                      : 0.0;
  std::vector<double> raw, corrected;
  for (std::size_t p = 0; p < deg_producers; ++p) {
    raw.insert(raw.end(), deg_raw[p].begin(), deg_raw[p].end());
    corrected.insert(corrected.end(), deg_corrected[p].begin(),
                     deg_corrected[p].end());
    r.deg_failed += deg_fail[p];
  }
  r.deg_served = corrected.size();
  if (!corrected.empty()) {
    r.deg_p50_s = bench_util::Percentile(raw, 0.50);
    r.deg_p99_s = bench_util::Percentile(raw, 0.99);
    r.deg_p50i_s = bench_util::Percentile(corrected, 0.50);
    r.deg_p99i_s = bench_util::Percentile(corrected, 0.99);
  }
  if (governor != nullptr) r.gov = governor->snapshot();
  return r;
}

/// The --qos mode: the governor acceptance measurement. The
/// baseline/ungoverned/governed triple is repeated kQosReps times
/// (interleaved, so a noisy-neighbour phase cannot hit only one run
/// type) and every check gates on the medians — a p99 on a small
/// shared machine is one scheduler stall away from garbage, a median
/// of three is not.
int RunQos(double run_seconds) {
  const ec::IsalCodec codec(8, 3);
  constexpr int kQosReps = 3;

  std::vector<MixResult> bases, raws, govs;
  for (int rep = 0; rep < kQosReps; ++rep) {
    // Baseline: degraded reads with no bulk at all — the latency the
    // shield is measured against.
    bases.push_back(RunMix(false, nullptr, run_seconds, codec));
    // Ungoverned mix: bulk free to starve the reads.
    raws.push_back(RunMix(true, nullptr, run_seconds, codec));
    // Governed mix.
    svc::GovernorConfig gc;
    // Three 64 KiB RS(8,3) stripes (704 KiB each) in flight: enough
    // pipeline for bulk to ride a full dispatcher wake cycle, small
    // enough that the backlog a degraded read shares the machine with
    // stays bounded (the side pool keeps it out of their queue).
    gc.bulk_inflight_cap = 2304ull << 10;
    gc.high_watermark_bytes = 64ull << 20;
    gc.low_watermark_bytes = 16ull << 20;
    // Adaptive latency budget: bulk drains while the degraded-read
    // EWMA stays within this ratio of the learned (decaying-minimum)
    // floor. The floor tracks the machine's current speed, so the
    // gate survives noisy neighbours where a fixed microsecond budget
    // would starve bulk outright.
    gc.degraded_headroom_ratio = 2.5;
    gc.max_defer_ns = 20'000'000;
    svc::BandwidthGovernor governor(gc);
    govs.push_back(RunMix(true, &governor, run_seconds, codec));
  }

  bench_util::Table table({"rep", "run", "bulk_stripes_s", "deg_served",
                           "deg_p50_us", "deg_p99_us", "deg_p50i_us",
                           "deg_p99i_us", "deferrals", "opportunistic",
                           "forced", "aged"});
  auto row = [&](int rep, const char* name, const MixResult& r,
                 bool governed) {
    table.row({std::to_string(rep), name,
               bench_util::Table::num(r.bulk_stripes_per_s, 1),
               std::to_string(r.deg_served),
               bench_util::Table::num(r.deg_p50_s * 1e6, 1),
               bench_util::Table::num(r.deg_p99_s * 1e6, 1),
               bench_util::Table::num(r.deg_p50i_s * 1e6, 1),
               bench_util::Table::num(r.deg_p99i_s * 1e6, 1),
               std::to_string(governed ? r.gov.deferrals : 0),
               std::to_string(governed ? r.gov.opportunistic_drains : 0),
               std::to_string(governed ? r.gov.forced_drains : 0),
               std::to_string(governed ? r.gov.aged_drains : 0)});
  };
  for (int rep = 0; rep < kQosReps; ++rep) {
    row(rep, "baseline", bases[rep], false);
    row(rep, "ungoverned", raws[rep], false);
    row(rep, "governed", govs[rep], true);
  }

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  auto collect = [&](const std::vector<MixResult>& runs, auto proj) {
    std::vector<double> v;
    for (const MixResult& r : runs) v.push_back(proj(r));
    return v;
  };
  auto p99i = [](const MixResult& r) { return r.deg_p99i_s; };
  auto bulk = [](const MixResult& r) { return r.bulk_stripes_per_s; };
  const double base_p99i = median(collect(bases, p99i));
  const double raw_p99i = median(collect(raws, p99i));
  const double gov_p99i = median(collect(govs, p99i));
  const double raw_bulk = median(collect(raws, bulk));
  const double gov_bulk = median(collect(govs, bulk));

  std::printf("\n=== Bandwidth QoS: bulk RS(8,3)x64KiB closed-loop vs "
              "degraded reads RS(8,3)x64KiB @ 2 kops, median of %d ===\n",
              kQosReps);
  table.print(std::cout);
  std::printf("\npaper-shape checks (medians):\n");
  bool all = true;
  auto check = [&](const char* claim, bool holds) {
    std::printf("  [%s] %s\n", holds ? "PASS" : "FAIL", claim);
    all &= holds;
  };
  bool served = true, ran_bulk = true;
  for (int rep = 0; rep < kQosReps; ++rep) {
    served &= bases[rep].deg_served > 0 && raws[rep].deg_served > 0 &&
              govs[rep].deg_served > 0;
    ran_bulk &= raws[rep].bulk_completed > 0 && govs[rep].bulk_completed > 0;
  }
  check("every run served degraded reads", served);
  check("bulk ran in every mixed run", ran_bulk);
  const double shield = base_p99i > 0.0 ? gov_p99i / base_p99i : 0.0;
  std::printf("  governed p99i / bulk-free p99i: %.2fx "
              "(ungoverned: %.2fx)\n",
              shield, base_p99i > 0.0 ? raw_p99i / base_p99i : 0.0);
  check("governed degraded-read p99 (CO-corrected) stays within 1.5x "
        "its bulk-free baseline",
        shield > 0.0 && shield <= 1.5);
  const double kept = raw_bulk > 0.0 ? gov_bulk / raw_bulk : 0.0;
  std::printf("  governed bulk throughput vs ungoverned: %.0f%%\n",
              kept * 100);
  check("governed bulk throughput holds >= 80% of the ungoverned run",
        kept >= 0.80);

  if (const char* dir = std::getenv("DIALGA_CSV_DIR"); dir != nullptr) {
    std::ofstream out(std::string(dir) + "/bench_svc_throughput_qos.csv");
    if (out) table.print_csv(out);
  }
  return all ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // DIALGA_FAULT_PLAN / DIALGA_FAULT_SEED turn this bench into a
  // degraded-mode throughput measurement (rejections/deadlines under a
  // deterministic fault schedule); unset, the checks below expect the
  // clean curve.
  std::string plan_error;
  if (!fault::Injector::Global().install_from_env(&plan_error)) {
    std::fprintf(stderr, "bad DIALGA_FAULT_PLAN: %s\n", plan_error.c_str());
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--file-backed") == 0) return RunFileBacked();
    if (std::strcmp(argv[i], "--integrity") == 0) return RunIntegrity();
    if (std::strcmp(argv[i], "--qos") == 0) {
      double secs = 1.5;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        secs = std::strtod(argv[i + 1], nullptr);
        if (secs <= 0.0) {
          std::fprintf(stderr, "--qos wants a positive run-seconds\n");
          return 2;
        }
      }
      return RunQos(secs);
    }
    if (std::strcmp(argv[i], "--cluster-nodes") == 0 && i + 1 < argc) {
      const std::size_t n = std::strtoull(argv[i + 1], nullptr, 10);
      if (n == 0) {
        std::fprintf(stderr, "--cluster-nodes wants a positive count\n");
        return 2;
      }
      return RunCluster(n);
    }
  }
  const std::size_t k = 8, m = 3, bs = 1024;
  const std::size_t producers = 4;
  const std::size_t per_producer = 400;
  const ec::IsalCodec codec(k, m);

  fig::FigureBench figure(
      "Stripe service: offered load vs completion latency, RS(8,3) 1KB "
      "encode",
      {"offered_kops", "achieved_kops", "admitted", "rejected", "p50_us",
       "p99_us", "p50i_us", "p99i_us", "mean_batch", "pool_tasks",
       "pool_steals", "pool_max_queue"});

  std::uint64_t low_load_rejected = 0;
  std::uint64_t overload_rejected = 0;
  bool every_point_completed = true;
  for (const double offered : {5.0, 20.0, 80.0, 320.0, 1280.0}) {
    const PointResult r =
        RunPoint(offered, producers, per_producer, codec, k, m, bs);
    const svc::ServiceStats& st = r.stats;
    const std::uint64_t rejected =
        st.rejected_queue_full + st.rejected_class_limit;
    every_point_completed &= st.completed_ok > 0;
    if (offered == 5.0) low_load_rejected = rejected;
    if (offered == 1280.0) overload_rejected = rejected;

    bench_util::RunResult as_run;
    as_run.sim_seconds = r.seconds;
    as_run.payload_bytes = st.completed_ok * k * bs;
    as_run.gbps = r.seconds > 0.0
                      ? static_cast<double>(as_run.payload_bytes) /
                            (r.seconds * 1e9)
                      : 0.0;
    figure.point(
        "svc/offered_kops:" + std::to_string(static_cast<int>(offered)),
        {bench_util::Table::num(offered, 0),
         bench_util::Table::num(r.achieved_kops, 1),
         std::to_string(st.admitted), std::to_string(rejected),
         bench_util::Table::num(st.latency_p50_s * 1e6, 1),
         bench_util::Table::num(st.latency_p99_s * 1e6, 1),
         bench_util::Table::num(r.p50_intended_s * 1e6, 1),
         bench_util::Table::num(r.p99_intended_s * 1e6, 1),
         bench_util::Table::num(st.mean_batch_stripes(), 2),
         std::to_string(st.pool.tasks_run), std::to_string(st.pool.steals),
         std::to_string(st.pool.max_queue_depth)},
        as_run,
        {{"offered_kops", offered},
         {"achieved_kops", r.achieved_kops},
         {"admitted", static_cast<double>(st.admitted)},
         {"rejected", static_cast<double>(rejected)},
         {"p50_us", st.latency_p50_s * 1e6},
         {"p99_us", st.latency_p99_s * 1e6},
         {"p50i_us", r.p50_intended_s * 1e6},
         {"p99i_us", r.p99_intended_s * 1e6},
         {"mean_batch", st.mean_batch_stripes()},
         {"queue_high_water", static_cast<double>(st.queue_high_water)},
         {"pool_tasks", static_cast<double>(st.pool.tasks_run)},
         {"pool_steals", static_cast<double>(st.pool.steals)},
         {"pool_max_queue",
          static_cast<double>(st.pool.max_queue_depth)}});
  }

  figure.check("every point keeps a nonzero completion count",
               every_point_completed);
  figure.check("admission control stays quiet at the lightest load",
               low_load_rejected == 0);
  // The load-shedding contract: past saturation the service rejects
  // rather than queueing without bound (which is why completed-request
  // latency stays capped instead of growing with offered load).
  figure.check("overload is shed through rejections, not queueing",
               overload_rejected > 0);
  return figure.run(argc, argv);
}
