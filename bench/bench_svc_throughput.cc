// Stripe-service timing gates: the two measurements no deterministic
// test can hold, because each checks a ratio of wall-clock times.
//
//   bench_svc_throughput --integrity
//   bench_svc_throughput --qos [run-seconds]
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
// 80% of the ungoverned run. Each run lasts run-seconds (default 1.5;
// a finite positive decimal). Series lands as
// bench_svc_throughput_qos.csv.
//
// Both series land under DIALGA_CSV_DIR when it names an existing
// directory. Exit status: 0 when every check prints [PASS], 1 when one
// prints [FAIL], 2 with a usage line for any other invocation.
//
// The --qos latency columns come in two flavors: p50/p99 measure
// submit -> completion (service view), while p50i/p99i measure from
// the *intended* schedule-derived send time — when a producer falls
// behind its open-loop schedule, the time it spent blocked counts
// against the system, not the workload.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "aio/datapath.h"
#include "bench_util/stats.h"
#include "bench_util/table.h"
#include "ec/isal.h"
#include "shard/shard_store.h"
#include "svc/governor.h"
#include "svc/stripe_service.h"

namespace {

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

/// Slurp a file's bytes (plain read; comparison only).
std::vector<std::byte> Slurp(const std::filesystem::path& p) {
  std::vector<std::byte> out;
  aio::ReadFileFull(p, &out);
  return out;
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

/// The --qos run length: the whole argument must be a finite, positive
/// decimal ("nan", "2x", "-1" and "" are all rejected).
std::optional<double> ParseSeconds(std::string_view text) {
  double secs = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, secs);
  if (ec != std::errc{} || ptr != end || !std::isfinite(secs) ||
      secs <= 0.0) {
    return std::nullopt;
  }
  return secs;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_svc_throughput --integrity | --qos "
               "[run-seconds]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--integrity") == 0) {
    return RunIntegrity();
  }
  if ((argc == 2 || argc == 3) && std::strcmp(argv[1], "--qos") == 0) {
    double secs = 1.5;
    if (argc == 3) {
      const std::optional<double> parsed = ParseSeconds(argv[2]);
      if (!parsed) return Usage();
      secs = *parsed;
    }
    return RunQos(secs);
  }
  return Usage();
}
