// The five end-to-end workloads. Each drives the public API a user
// calls (svc::StripeService, shard::ShardStore, cluster::Coordinator)
// from one load thread, generates its inputs from the run's seed, and
// checks every output bit-exact outside the timed calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "svc/request.h"
#include "tracer.h"

namespace dbench {

/// Pre-generated stripes in one page-aligned allocation: stripe s,
/// block i (data 0..k-1, then parity k..k+m-1). Data comes from `rng`;
/// parity starts zeroed.
struct StripeSet {
  StripeSet(std::size_t k, std::size_t m, std::size_t bs, std::size_t n,
            Rng rng);

  std::byte* block(std::size_t s, std::size_t i) const {
    return buf.data() + (s * (k + m) + i) * bs;
  }
  std::vector<const std::byte*> data(std::size_t s) const;
  std::vector<std::byte*> parity(std::size_t s) const;
  svc::EncodeRequest request(std::size_t s, const ec::Codec* codec) const;
  void digest(Digest& d) const;
  /// True when at least one stripe is in `touched` and each one carries
  /// the parity of the library's unfused reference encoder.
  bool verify(const std::vector<bool>& touched) const;

  std::size_t k, m, bs, stripes;
  Buffer buf;
};

struct RunConfig {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< tiny sizes for the smoke test
  /// Longest timed phase the run will ask for; open-loop schedules are
  /// generated this long in setup.
  double max_phase_s = 1.0;
  std::filesystem::path data_dir;  ///< working files (file_roundtrip, probes)
};

/// Stripes in file_roundtrip's input, so one shard file holds this many
/// 64 KiB blocks.
inline std::size_t FileStripes(const RunConfig& cfg) { return cfg.smoke ? 1 : 48; }

/// Operation kinds of OpSample::kind. kCycle samples time one
/// write -> read -> degraded-read round trip of the sequential workloads.
enum OpKind : std::uint8_t { kWrite = 0, kRead = 1, kDegradedRead = 2, kCycle = 3 };

/// Layer counts a workload reads from its own service, governor and
/// cluster around a phase (deltas over the phase).
struct LayerCounts {
  std::size_t svc_workers = 0;  ///< 0 = the workload has no service of its own
  std::uint64_t svc_batches = 0;
  std::uint64_t svc_stripes = 0;
  std::uint64_t svc_rejected = 0;
  std::uint64_t svc_steals = 0;
  std::uint64_t svc_queue_high_water = 0;
  std::uint64_t gov_deferrals = 0;
  std::uint64_t gov_forced_drains = 0;
  std::uint64_t gov_aged_drains = 0;
  std::uint64_t cluster_writes = 0;
  std::uint64_t cluster_degraded_reads = 0;
  std::uint64_t rpc_in_writes = 0;
  std::uint64_t rpc_in_degraded_reads = 0;
};

/// What one timed phase measured.
struct Phase {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  /// Failed, rejected, or not bit-exact.
  std::uint64_t failed = 0;
  /// User data bytes per op kind; every op of one kind moves the same
  /// number of bytes.
  std::uint64_t bytes[3] = {0, 0, 0};
  /// Completed ops in completion (open loop: intended send) order;
  /// valid until the workload's next run().
  std::span<const OpSample> ops;
  /// The op kind whose latency op_p50_us/op_p99_us report: the unit of
  /// work the client repeats.
  std::uint8_t unit = kWrite;
  /// One caller runs the ops in turn, so a rate is bytes over call time;
  /// otherwise ops overlap and a rate is bytes over wall time.
  bool sequential = false;
  /// Open loop only: how late the generator sent each request.
  std::vector<double> late_s;
  std::uint64_t submitted = 0;  ///< requests the load thread issued
  LayerCounts layers;

  double user_bytes() const {
    return static_cast<double>(bytes[0] + bytes[1] + bytes[2]);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the service/store/cluster, generates inputs, warms up.
  virtual void setup() = 0;
  /// One timed phase; spans go to `tracer` when it is non-null.
  virtual Phase run(double seconds, Tracer* tracer) = 0;
  /// Bit-exact check of what the phases left behind (outputs checked
  /// per op during a phase are already counted in Phase::failed).
  virtual bool verify() = 0;
  /// Digest of every generated input and schedule.
  virtual std::uint64_t input_digest() = 0;
};

const std::vector<std::string>& WorkloadNames();
/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& cfg);

/// The degraded_read_mix workload at another read rate (the svc knee
/// probe's ladder).
std::unique_ptr<Workload> MakeDegradedReadMix(const RunConfig& cfg,
                                              double reads_per_s);

}  // namespace dbench
