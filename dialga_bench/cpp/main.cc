// dialga_bench: one end-to-end workload per process.
//
//   dialga_bench --workload NAME [--seed N] [--seconds S]
//                [--trace-out DIR] [--data-dir DIR] [--smoke]
//                [--inputs-only]
//
// Sets the workload up several times (reporting the median set-up
// time), runs one timed phase of S seconds with tracing off, checks
// every output bit-exact, and prints each metric as
// `workload metric value unit samples` followed by one JSON result
// line. With --trace-out the run is split into an untraced and a
// traced half; the traced half records outside-in spans, and the run
// then times each layer in isolation (probes.h) and writes the Chrome
// trace plus layers.json into DIR. Exit codes: 0 correct, 1 an output
// was not bit-exact or an operation failed, 2 usage or a refused
// environment.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include "bench_util/stats.h"
#include "harness.h"
#include "probes.h"
#include "tracer.h"
#include "workloads.h"

namespace dbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  fs::path trace_out;
  fs::path data_dir = ".bench_out/data";
  bool smoke = false;
  bool inputs_only = false;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "dialga_bench: %s\n"
               "usage: dialga_bench --workload NAME [--seed N] [--seconds S]\n"
               "                    [--trace-out DIR] [--data-dir DIR] [--smoke]\n"
               "                    [--inputs-only]\n"
               "workloads:",
               why);
  for (const std::string& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (flag == "--smoke") {
      a->smoke = true;
    } else if (flag == "--inputs-only") {
      a->inputs_only = true;
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace-out" || flag == "--data-dir") {
      const char* v = value();
      if (v == nullptr) {
        *err = flag + " needs a value";
        return false;
      }
      char* end = nullptr;
      if (flag == "--workload") {
        a->workload = v;
      } else if (flag == "--seed") {
        a->seed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0') {
          *err = "--seed wants an unsigned integer";
          return false;
        }
      } else if (flag == "--seconds") {
        a->seconds = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(a->seconds > 0.0) || a->seconds > 120.0) {
          *err = "--seconds wants a number in (0, 120]";
          return false;
        }
      } else if (flag == "--trace-out") {
        a->trace_out = v;
      } else {
        a->data_dir = v;
      }
    } else {
      *err = "unknown argument " + flag;
      return false;
    }
  }
  if (a->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

std::vector<double> Latencies(const Phase& ph, int kind) {
  std::vector<double> v;
  for (const OpSample& o : ph.ops) {
    if (o.kind == kind) v.push_back(o.latency_s);
  }
  return v;
}

/// User GB/s of one op kind. Overlapping ops: the median over 20 equal
/// windows of the phase of the bytes completed in each, so a stall
/// costs the windows it lands in rather than the number. One caller
/// running ops in turn: an op's bytes over its median call time.
double Rate(const Phase& ph, int kind) {
  const std::vector<double> lat = Latencies(ph, kind);
  if (lat.empty()) return 0.0;
  const double per_op = static_cast<double>(ph.bytes[kind]) / static_cast<double>(lat.size());
  if (ph.sequential) return per_op / bench_util::Percentile(lat, 0.5) / 1e9;
  constexpr std::size_t kWindows = 20;
  const double width = ph.wall_s / kWindows;
  std::vector<double> per_window(kWindows, 0.0);
  for (const OpSample& o : ph.ops) {
    if (o.kind != kind) continue;
    per_window[std::min(kWindows - 1, static_cast<std::size_t>(o.end_s / width))] += per_op;
  }
  return bench_util::Percentile(per_window, 0.5) / width / 1e9;
}

/// End-to-end metrics of the untraced phase, plus the per-op-type
/// vocabulary (read/degraded GB/s and latencies) where the workload has
/// those ops.
void EndToEnd(const Phase& ph, const std::vector<double>& setup_times, double peak_rss,
              Report& r) {
  const std::vector<double> units = Latencies(ph, ph.unit);
  r.add("write_GBps", Rate(ph, kWrite), "GB/s", Latencies(ph, kWrite).size());
  r.add("op_p50_us", bench_util::Percentile(units, 0.5) * 1e6, "us", units.size());
  r.add("op_p99_us", WindowedPercentile(units, 0.99) * 1e6, "us", units.size());
  r.add("setup_s", bench_util::Percentile(setup_times, 0.5), "s", setup_times.size());
  r.add("peak_rss_mib", peak_rss, "MiB");
  r.add("failed_ratio",
        ph.attempted == 0 ? 1.0
                          : static_cast<double>(ph.failed) / static_cast<double>(ph.attempted),
        "fraction", ph.attempted);
  if (ph.bytes[kRead] > 0) {
    r.add("read_GBps", Rate(ph, kRead), "GB/s", Latencies(ph, kRead).size());
  }
  const std::vector<double> deg = Latencies(ph, kDegradedRead);
  if (!deg.empty()) {
    r.add("degraded_read_GBps", Rate(ph, kDegradedRead), "GB/s", deg.size());
    r.add("degraded_read_p50_us", bench_util::Percentile(deg, 0.5) * 1e6, "us", deg.size());
    r.add("degraded_read_p99_us", WindowedPercentile(deg, 0.99) * 1e6, "us", deg.size());
    r.add("degraded_read_p999_us", bench_util::Percentile(deg, 0.999) * 1e6, "us", deg.size());
  }
}

/// Share of [s, e) covered by the union of the given (sorted) codec
/// intervals.
double Covered(const std::vector<std::pair<std::int64_t, std::int64_t>>& codec,
               std::int64_t s, std::int64_t e) {
  std::int64_t covered = 0, reach = s;
  // Calls run one at a time, so every codec span of this call starts
  // inside it.
  auto it = std::lower_bound(codec.begin(), codec.end(), std::pair{s, std::int64_t{0}});
  for (; it != codec.end() && it->first < e; ++it) {
    const std::int64_t a = std::max(it->first, reach);
    const std::int64_t b = std::min(it->second, e);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return static_cast<double>(covered);
}

/// Per-layer metrics of the traced half, from its spans, the layer
/// counts the workload read, and obs-registry deltas over the phase.
void Layers(const Phase& untraced, const Phase& traced, const std::vector<Span>& spans,
            const CounterSnapshot& counts, Report& r) {
  std::unordered_map<std::uint64_t, double> codec_by_req;
  std::vector<double> codec_us, wait_us;
  std::vector<std::pair<std::int64_t, std::int64_t>> codec_iv;
  double codec_busy_s = 0.0;
  for (const Span& s : spans) {
    if (std::strncmp(s.name, "codec.", 6) != 0) continue;
    codec_us.push_back(s.seconds() * 1e6);
    codec_busy_s += s.seconds();
    codec_iv.emplace_back(s.start_ns, s.end_ns);
    if (s.req != 0) codec_by_req[s.req] += s.seconds();
  }
  std::sort(codec_iv.begin(), codec_iv.end());
  std::map<std::string, std::vector<double>> call_us;
  std::map<std::string, std::pair<double, double>> shard_cover;  // covered, total ns
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "svc.encode" || name == "svc.decode") {
      const auto it = codec_by_req.find(s.id);
      if (it != codec_by_req.end()) wait_us.push_back((s.seconds() - it->second) * 1e6);
    } else if (name.rfind("cluster.", 0) == 0) {
      call_us[name].push_back(s.seconds() * 1e6);
    } else if (name.rfind("shard.", 0) == 0) {
      auto& c = shard_cover[name];
      c.first += Covered(codec_iv, s.start_ns, s.end_ns);
      c.second += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  const LayerCounts& lc = traced.layers;
  const double user = traced.user_bytes();
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  r.add("svc.queue_wait_us_p50", bench_util::Percentile(wait_us, 0.5), "us", wait_us.size());
  r.add("svc.queue_wait_us_p99", bench_util::Percentile(wait_us, 0.99), "us", wait_us.size());
  r.add("svc.codec_us_p50", bench_util::Percentile(codec_us, 0.5), "us", codec_us.size());
  r.add("svc.codec_us_p99", bench_util::Percentile(codec_us, 0.99), "us", codec_us.size());
  r.add("svc.codec_busy_frac",
        ratio(codec_busy_s, traced.wall_s * static_cast<double>(lc.svc_workers)), "fraction");
  r.add("svc.mean_batch", ratio(static_cast<double>(lc.svc_stripes),
                                static_cast<double>(lc.svc_batches)),
        "stripes", lc.svc_batches);
  r.add("svc.rejected", static_cast<double>(lc.svc_rejected), "count");
  r.add("svc.queue_high_water", static_cast<double>(lc.svc_queue_high_water), "count");
  r.add("svc.pool_steals", static_cast<double>(lc.svc_steals), "count");
  r.add("svc.gov_deferrals", static_cast<double>(lc.gov_deferrals), "count");
  r.add("svc.gov_forced_drains", static_cast<double>(lc.gov_forced_drains), "count");
  r.add("svc.gov_aged_drains", static_cast<double>(lc.gov_aged_drains), "count");

  r.add("gf.kernel_bytes_per_user_byte", ratio(counts.get("dialga_gf_kernel_bytes_total"), user),
        "B/B");
  r.add("integrity.crc_bytes_per_user_byte",
        ratio(counts.get("dialga_integrity_checksum_bytes_total"), user), "B/B");
  r.add("aio.bytes_per_user_byte", ratio(counts.get("dialga_aio_bytes_total"), user), "B/B");
  r.add("aio.fallbacks", counts.get("dialga_aio_fallback_total"), "count");

  for (const auto& [metric, span] : {std::pair{"shard.encode_codec_frac", "shard.encode_file"},
                                     std::pair{"shard.decode_codec_frac", "shard.decode_file"},
                                     std::pair{"shard.degraded_codec_frac",
                                               "shard.decode_file_degraded"}}) {
    const auto it = shard_cover.find(span);
    r.add(metric, it == shard_cover.end() ? 0.0 : ratio(it->second.first, it->second.second),
          "fraction");
  }

  for (const char* op : {"write", "read", "degraded_read"}) {
    const std::vector<double>& v = call_us[std::string("cluster.") + op];
    const std::string name = std::string("cluster.") + op;
    r.add(name + "_us_p50", bench_util::Percentile(v, 0.5), "us", v.size());
    r.add(name + "_us_p99", bench_util::Percentile(v, 0.99), "us", v.size());
  }
  r.add("cluster.rpc_per_write",
        ratio(static_cast<double>(lc.rpc_in_writes), static_cast<double>(lc.cluster_writes)),
        "rpc/op");
  r.add("cluster.rpc_per_degraded_read",
        ratio(static_cast<double>(lc.rpc_in_degraded_reads),
              static_cast<double>(lc.cluster_degraded_reads)),
        "rpc/op");
  r.add("cluster.rpc_bytes_per_user_byte",
        ratio(counts.get("dialga_cluster_rpc_bytes_total"), user), "B/B");

  r.add("load.generator_late_us_p99", bench_util::Percentile(traced.late_s, 0.99) * 1e6, "us",
        traced.late_s.size());
  r.add("load.offered_kops", ratio(static_cast<double>(traced.submitted), traced.wall_s) / 1e3,
        "kop/s");
  const double base = ratio(untraced.user_bytes(), untraced.wall_s);
  r.add("trace.overhead_pct", (1.0 - ratio(ratio(user, traced.wall_s), base)) * 100.0, "%");
}

std::string MetricsJson(const Report& r) {
  std::string out = "{";
  for (std::size_t i = 0; i < r.metrics().size(); ++i) {
    const Metric& m = r.metrics()[i];
    out += (i == 0 ? "" : ",") + JsonString(m.name) + ":{\"value\":" + Num(m.value) +
           ",\"unit\":" + JsonString(m.unit) + ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

int Run(const Args& a) {
  if (const std::string var = RefusedEnvVar(); !var.empty()) {
    std::fprintf(stderr,
                 "dialga_bench: refusing to run with %s set: fault plans, the plan "
                 "cache, the learned selector and the lifecycle tracer change what is "
                 "measured\n",
                 var.c_str());
    return 2;
  }
  const bool trace = !a.trace_out.empty();
  RunConfig cfg;
  cfg.seed = a.seed;
  cfg.smoke = a.smoke;
  cfg.max_phase_s = trace ? a.seconds / 2 : a.seconds;
  cfg.data_dir = a.data_dir / (a.workload + "-" + std::to_string(::getpid()));
  if (MakeWorkload(a.workload, cfg) == nullptr) return Usage("unknown workload");
  std::error_code ec;
  fs::create_directories(cfg.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "dialga_bench: cannot create %s: %s\n", cfg.data_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code e;
      fs::remove_all(dir, e);
    }
  } cleanup{cfg.data_dir};
  const Env env = RecordEnv(cfg.data_dir);

  // Set up several times and report the median, so set-up work shows
  // without one slow allocation deciding the number. Peak RSS counts
  // from the last set-up on: what earlier set-ups left in the heap
  // would otherwise decide it.
  const int setups = a.smoke ? 1 : 5;
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < setups; ++i) {
    w.reset();
    if (i == setups - 1) ResetPeakRss();
    const std::int64_t t0 = NowNs();
    w = MakeWorkload(a.workload, cfg);
    w->setup();
    setup_times.push_back(SecondsSince(t0));
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(w->input_digest()));
  if (a.inputs_only) {
    std::printf("input_digest %s\n", digest);
    return 0;
  }

  const Phase untraced = w->run(cfg.max_phase_s, nullptr);
  Report e2e;
  EndToEnd(untraced, setup_times, PeakRssMib(), e2e);  // before the traced phase reuses the log
  Phase traced;
  Report layers;
  std::unique_ptr<Tracer> tracer;
  if (trace) {
    tracer = std::make_unique<Tracer>(std::size_t{1} << 20);
    const CounterSnapshot before = CounterSnapshot::Take();
    traced = w->run(cfg.max_phase_s, tracer.get());
    const CounterSnapshot counts = CounterSnapshot::Take() - before;
    Layers(untraced, traced, tracer->spans(), counts, layers);
  }
  const bool verified = w->verify();
  w.reset();  // probes measure on a quiet process
  if (trace) RunProbes(cfg, layers);

  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  const bool correct = verified && failed == 0 && attempted > 0;

  std::ostringstream env_json;
  env_json << "{";
  for (std::size_t i = 0; i < env.size(); ++i) {
    env_json << (i == 0 ? "" : ",") << JsonString(env[i].first) << ":"
             << JsonString(env[i].second);
    std::printf("# env %s %s\n", env[i].first.c_str(), env[i].second.c_str());
  }
  env_json << "}";
  std::printf("# input_digest %s\n", digest);
  for (const Report* r : {&e2e, &layers}) {
    for (const Metric& m : r->metrics()) {
      std::printf("%s %s %s %s %llu\n", a.workload.c_str(), m.name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
  }
  if (!verified) {
    std::fprintf(stderr, "dialga_bench: %s outputs are not bit-exact\n", a.workload.c_str());
  }
  if (failed > 0) {
    std::fprintf(stderr, "dialga_bench: %s: %llu of %llu operations failed\n",
                 a.workload.c_str(), static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }

  if (trace) {
    fs::create_directories(a.trace_out, ec);
    const bool wrote = tracer->write_chrome_trace(a.trace_out / "trace.json", 200000);
    std::ofstream out(a.trace_out / "layers.json");
    out << "{\"workload\":" << JsonString(a.workload) << ",\"seed\":" << a.seed
        << ",\"dropped_spans\":" << tracer->dropped() << ",\"metrics\":" << MetricsJson(layers)
        << "}\n";
    if (!wrote || !out) {
      std::fprintf(stderr, "dialga_bench: cannot write the trace into %s\n", a.trace_out.c_str());
      return 1;
    }
  }
  std::printf("{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,\"smoke\":%s,"
              "\"input_digest\":\"%s\",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"env\":%s,\"metrics\":%s,\"layers\":%s}\n",
              JsonString(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
              Num(a.seconds).c_str(), trace ? 1 : 0, a.smoke ? "true" : "false", digest,
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), env_json.str().c_str(),
              MetricsJson(e2e).c_str(), MetricsJson(layers).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dbench

int main(int argc, char** argv) {
  dbench::Args args;
  std::string err;
  if (!dbench::ParseArgs(argc, argv, &args, &err)) return dbench::Usage(err.c_str());
  try {
    return dbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dialga_bench: %s\n", e.what());
    return 1;
  }
}
