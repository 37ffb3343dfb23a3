#include "probes.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "aio/datapath.h"
#include "bench_util/stats.h"
#include "dialga/coordinator.h"
#include "dialga/dialga.h"
#include "ec/codec_util.h"
#include "ec/isal.h"
#include "ec/parallel.h"
#include "ec/thread_pool.h"
#include "gf/gf_simd.h"
#include "integrity/checksum.h"

namespace dbench {

namespace {

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;
constexpr std::size_t kSweep[] = {0, 4, 12, 32, 128};

/// Results the compiler must not drop.
volatile std::uint64_t g_sink = 0;

/// Calls of `body` per second: the best of three rounds of at least
/// `min_s` each, so a round a neighbour disturbed does not set the
/// ceiling.
template <class F>
double BestRate(double min_s, F&& body) {
  double best = 0.0;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = NowNs();
    std::uint64_t n = 0;
    double elapsed = 0.0;
    do {
      body();
      ++n;
      elapsed = SecondsSince(t0);
    } while (elapsed < min_s);
    best = std::max(best, static_cast<double>(n) / elapsed);
  }
  return best;
}

std::size_t HostPd(std::size_t k, std::size_t m, std::size_t bs) {
  const dialga::Coordinator coord({k, m, bs, 1}, dialga::Features::all(),
                                  dialga::Thresholds{}, 0);
  return coord.initial_strategy().sw_distance;
}

/// The codec sweep on one shape: GB/s of user data for encode_with at
/// each static prefetch distance (and at DIALGA's own distance), and of
/// DialgaCodec::encode, cycling through `set`.
struct Sweep {
  std::vector<std::pair<std::size_t, double>> pd_gbps;
  double dialga_gbps = 0.0;

  double at(std::size_t pd) const {
    for (const auto& [d, g] : pd_gbps) {
      if (d == pd) return g;
    }
    return 0.0;
  }
  /// Best static distance of the sweep (DIALGA's own distance only
  /// counts when the sweep holds it).
  std::pair<std::size_t, double> best() const {
    std::pair<std::size_t, double> b{0, 0.0};
    for (const std::size_t pd : kSweep) {
      if (at(pd) > b.second) b = {pd, at(pd)};
    }
    return b;
  }
};

Sweep RunSweep(const StripeSet& set, std::size_t host_pd, double min_s) {
  const ec::IsalCodec isal(set.k, set.m);
  const dialga::DialgaCodec dialga(set.k, set.m);
  std::vector<std::vector<const std::byte*>> data;
  std::vector<std::vector<std::byte*>> parity;
  for (std::size_t s = 0; s < set.stripes; ++s) {
    data.push_back(set.data(s));
    parity.push_back(set.parity(s));
  }
  const double bytes_per_call = static_cast<double>(set.k * set.bs);
  std::size_t cursor = 0;
  auto next = [&] {
    const std::size_t s = cursor;
    cursor = (cursor + 1) % set.stripes;
    return s;
  };
  std::vector<std::size_t> pds(std::begin(kSweep), std::end(kSweep));
  if (std::find(pds.begin(), pds.end(), host_pd) == pds.end()) pds.push_back(host_pd);
  Sweep out;
  for (const std::size_t pd : pds) {
    ec::HostKernelOptions opts;
    opts.prefetch_distance = pd;
    const double rate = BestRate(min_s, [&] {
      const std::size_t s = next();
      isal.encode_with(set.bs, data[s], parity[s], opts);
    });
    out.pd_gbps.emplace_back(pd, rate * bytes_per_call / 1e9);
  }
  out.dialga_gbps = BestRate(min_s, [&] {
                      const std::size_t s = next();
                      dialga.encode(set.bs, data[s], parity[s]);
                    }) *
                    bytes_per_call / 1e9;
  return out;
}

/// The highest of 1/2/4/8 k degraded reads/s the degraded_read_mix
/// configuration serves with a CO-corrected p99 <= 2 ms while its
/// generator keeps to schedule (a growing backlog fails both).
double KneeKops(const RunConfig& base, double step_s) {
  double knee = 0.0;
  for (const double rate : {1000.0, 2000.0, 4000.0, 8000.0}) {
    RunConfig cfg = base;
    cfg.max_phase_s = step_s;
    auto w = MakeDegradedReadMix(cfg, rate);
    w->setup();
    const Phase ph = w->run(step_s, nullptr);
    std::vector<double> lat;
    for (const OpSample& o : ph.ops) {
      if (o.kind == kDegradedRead) lat.push_back(o.latency_s);
    }
    const bool served = ph.failed == 0 && !lat.empty() &&
                        lat.size() == ph.late_s.size();
    if (served && bench_util::Percentile(lat, 0.99) <= 2e-3 &&
        bench_util::Percentile(ph.late_s, 0.99) <= 2e-3) {
      knee = rate / 1000.0;
    }
  }
  return knee;
}

}  // namespace

void RunProbes(const RunConfig& cfg, Report& layers) {
  const double point_s = cfg.smoke ? 0.01 : 0.1;

  // Wide shape and working set of encode_wide_stream.
  const std::size_t wide_stripes =
      cfg.smoke ? 8 : (768 * kMiB) / (48 * 64 * kKiB);
  const StripeSet wide(48, 4, 64 * kKiB, wide_stripes, Rng(cfg.seed, 100));

  // Roofline (the memec basic_op_performance idiom): a streaming read
  // and a memcpy over the wide working set.
  {
    const std::byte* p = wide.buf.data();
    const std::size_t n = wide.buf.size() / sizeof(std::uint64_t);
    const double reads = BestRate(point_s, [&] {
      std::uint64_t a = 0, b = 0, c = 0, d = 0;
      for (std::size_t i = 0; i + 4 <= n; i += 4) {
        std::uint64_t w[4];
        std::memcpy(w, p + i * 8, sizeof(w));
        a ^= w[0];
        b ^= w[1];
        c ^= w[2];
        d ^= w[3];
      }
      g_sink = a ^ b ^ c ^ d;
    });
    const std::size_t half = wide.buf.size() / 2;
    const double copies = BestRate(point_s, [&] {
      std::memcpy(wide.buf.data() + half, wide.buf.data(), half);
    });
    layers.add("roofline.read_GBps", reads * static_cast<double>(wide.buf.size()) / 1e9,
               "GB/s");
    layers.add("roofline.memcpy_GBps", copies * static_cast<double>(half) / 1e9, "GB/s");
  }

  // Hot shape and ring of encode_small_hot.
  const StripeSet hot(12, 4, 4 * kKiB, 64, Rng(cfg.seed, 101));
  {
    const ec::IsalCodec isal(12, 4);
    const ec::CoeffCache coeffs(isal.generator(), 12, 4, 12);
    std::size_t cursor = 0;
    std::vector<std::vector<const std::byte*>> data;
    std::vector<std::vector<std::byte*>> parity;
    for (std::size_t s = 0; s < hot.stripes; ++s) {
      data.push_back(hot.data(s));
      parity.push_back(hot.parity(s));
    }
    const double calls = BestRate(point_s, [&] {
      const std::size_t s = cursor;
      cursor = (cursor + 1) % hot.stripes;
      gf::mul_dot_multi(coeffs.data(), coeffs.stride(), data[s].data(), 12,
                        parity[s].data(), 4, hot.bs);
    });
    layers.add("gf.dot_hot_GBps", calls * 12.0 * static_cast<double>(hot.bs) / 1e9, "GB/s");
  }

  const std::size_t pd_hot = HostPd(12, 4, 4 * kKiB);
  const std::size_t pd_wide = HostPd(48, 4, 64 * kKiB);
  const Sweep hot_sweep = RunSweep(hot, pd_hot, point_s / 2);
  const Sweep wide_sweep = RunSweep(wide, pd_wide, point_s * 2);
  for (const auto& [name, sw] : {std::pair{"hot", &hot_sweep}, std::pair{"wide", &wide_sweep}}) {
    const std::string n = name;
    layers.add("ec.encode_" + n + "_GBps", sw->at(0), "GB/s");
    for (const std::size_t pd : kSweep) {
      if (pd != 0) {
        layers.add("ec.encode_" + n + "_pd" + std::to_string(pd) + "_GBps", sw->at(pd), "GB/s");
      }
    }
    layers.add("ec.best_pd_" + n, static_cast<double>(sw->best().first), "lines");
    layers.add("dialga.encode_" + n + "_GBps", sw->dialga_gbps, "GB/s");
  }
  layers.add("dialga.host_pd_hot", static_cast<double>(pd_hot), "lines");
  layers.add("dialga.host_pd_wide", static_cast<double>(pd_wide), "lines");
  // Per-call cost of the host face: DialgaCodec::encode against
  // encode_with at the distance the host face picks.
  const double hot_call_bytes = 12.0 * static_cast<double>(hot.bs);
  layers.add("dialga.host_face_ns_per_call",
             hot_call_bytes / hot_sweep.dialga_gbps - hot_call_bytes / hot_sweep.at(pd_hot),
             "ns");
  layers.add("dialga.vs_best_static_wide", wide_sweep.dialga_gbps / wide_sweep.best().second,
             "ratio");
  const Metric* read_roof = layers.find("roofline.read_GBps");
  layers.add("ec.wide_bw_efficiency",
             wide_sweep.at(0) * (48.0 + 4.0) / 48.0 / read_roof->value, "ratio");

  // One-erasure decode, RS(12,4)/64 KiB, hot.
  {
    const StripeSet one(12, 4, 64 * kKiB, 1, Rng(cfg.seed, 102));
    const ec::IsalCodec isal(12, 4);
    isal.encode_with(one.bs, one.data(0), one.parity(0), {});
    std::vector<std::byte*> blocks;
    for (std::size_t i = 0; i < 16; ++i) blocks.push_back(one.block(0, i));
    const std::size_t erasures[] = {0};
    const double calls = BestRate(point_s, [&] {
      isal.decode_with(one.bs, blocks, erasures, {});
    });
    layers.add("ec.decode_1e_us", 1e6 / calls, "us");
  }

  // Pooled encode efficiency: 2-worker ParallelEncode / 2x serial.
  {
    const StripeSet set(12, 4, 64 * kKiB, cfg.smoke ? 4 : 64, Rng(cfg.seed, 103));
    const dialga::DialgaCodec codec(12, 4);
    std::vector<std::vector<const std::byte*>> data;
    std::vector<std::vector<std::byte*>> parity;
    std::vector<ec::StripeBuffers> stripes;
    for (std::size_t s = 0; s < set.stripes; ++s) {
      data.push_back(set.data(s));
      parity.push_back(set.parity(s));
    }
    for (std::size_t s = 0; s < set.stripes; ++s) stripes.push_back({data[s], parity[s]});
    ec::ThreadPool pool(2);
    const double serial = BestRate(point_s, [&] {
      ec::ParallelEncode(codec, set.bs, stripes, 1);
    });
    const double pooled = BestRate(point_s, [&] {
      ec::ParallelEncode(pool, codec, set.bs, stripes);
    });
    layers.add("ec.pool_efficiency", pooled / (2.0 * serial), "ratio");
  }

  // CRC-32C at 64 KiB and at file_roundtrip's shard size.
  const std::size_t shard_bytes = FileStripes(cfg) * 64 * kKiB;
  {
    Buffer buf(shard_bytes);
    Rng(cfg.seed, 104).fill(buf.data(), buf.size());
    const double small =
        BestRate(point_s, [&] { g_sink = integrity::Crc32c(buf.data(), 64 * kKiB); });
    const double shard =
        BestRate(point_s, [&] { g_sink = integrity::Crc32c(buf.data(), shard_bytes); });
    layers.add("integrity.crc32c_GBps", small * 64.0 * kKiB / 1e9, "GB/s");
    layers.add("integrity.crc32c_shard_GBps", shard * static_cast<double>(shard_bytes) / 1e9,
               "GB/s");

    // Durable write and exact read of one shard-sized file in the data dir.
    const auto path = cfg.data_dir / "probe_shard";
    const aio::Backend backend = aio::SelectBackend(aio::ModeFromEnv());
    const double writes = BestRate(point_s, [&] {
      aio::Transfer xfer(backend);
      aio::WriteFileDurable(xfer, path, {buf.data(), shard_bytes});
    });
    Buffer back(shard_bytes);
    const double reads = BestRate(point_s, [&] {
      aio::Transfer xfer(backend);
      aio::ReadFileExact(xfer, path, {back.data(), shard_bytes});
    });
    layers.add("aio.write_durable_GBps", writes * static_cast<double>(shard_bytes) / 1e9, "GB/s");
    layers.add("aio.read_GBps", reads * static_cast<double>(shard_bytes) / 1e9, "GB/s");
  }

  layers.add("svc.knee_kops", KneeKops(cfg, cfg.smoke ? 0.05 : 0.5), "kop/s");
}

}  // namespace dbench
