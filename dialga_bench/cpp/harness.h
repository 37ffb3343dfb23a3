// Shared plumbing of the end-to-end benchmark binary: seeded input generation,
// input digests, metric records, tail statistics, obs-registry count
// snapshots, and the recorded/refused environment.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// xoshiro256** seeded through SplitMix64 from (seed, stream): every
/// generated input is a pure function of the workload seed, and each
/// kind of input draws from its own stream so adding one never shifts
/// another.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n);
  /// Uniform in (0, 1].
  double unit();
  void fill(std::byte* p, std::size_t n);

 private:
  std::uint64_t s_[4];
};

/// FNV-1a 64 over everything the workload generated (buffer contents
/// via CRC-32C, schedules value by value): equal seeds give equal
/// digests, which the smoke test checks. Computed outside every timed
/// phase, so the CRC bytes it hashes never reach a phase's counts.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  void add_bytes(const std::byte* p, std::size_t n);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Page-aligned, zero-filled (hence pre-faulted) byte buffer.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t bytes);
  std::byte* data() const { return p_.get(); }
  std::size_t size() const { return n_; }

 private:
  struct Free {
    void operator()(std::byte* p) const;
  };
  std::unique_ptr<std::byte, Free> p_;
  std::size_t n_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 1);
  const std::vector<Metric>& metrics() const { return m_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> m_;
};

/// One completed operation of a timed phase, in completion order.
struct OpSample {
  float latency_s = 0.0f;
  float end_s = 0.0f;     ///< completion, in seconds from the phase start
  std::uint8_t kind = 0;  ///< workload-defined op type
};

/// Operation samples in storage allocated and touched at set-up, so the
/// number of operations a phase completes never moves peak RSS. A
/// sample past the capacity throws: a metric over a truncated log
/// would be wrong.
class SampleLog {
 public:
  explicit SampleLog(std::size_t capacity);
  void clear() { n_ = 0; }
  void add(double latency_s, double end_s, std::uint8_t kind) {
    if (n_ == buf_.size()) throw std::length_error("sample log full");
    buf_[n_++] = {static_cast<float>(latency_s), static_cast<float>(end_s), kind};
  }
  std::span<const OpSample> samples() const { return {buf_.data(), n_}; }

 private:
  std::vector<OpSample> buf_;
  std::size_t n_ = 0;
};

/// Median over consecutive 1000-sample windows of each window's q-th
/// percentile (pooled below 1000 samples): a stall inflates the windows
/// it lands in, not the reported number, and each window's p99 still
/// has ten samples beyond it.
double WindowedPercentile(std::span<const double> in_order, double q);

/// Sum of every sample of the named obs-registry families, taken once
/// so a phase's count is the difference of two snapshots.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  double get(const std::string& name) const;
  CounterSnapshot operator-(const CounterSnapshot& base) const;

 private:
  std::map<std::string, double> sums_;
};

/// Environment recorded with every result; compare.py refuses to
/// compare runs whose recorded environments differ.
using Env = std::vector<std::pair<std::string, std::string>>;
Env RecordEnv(const std::filesystem::path& data_dir);

/// The first DIALGA_* variable that changes what is measured (fault
/// plans, plan cache, learned selector, lifecycle tracer), or "".
std::string RefusedEnvVar();

/// Returns freed heap pages to the kernel and restarts the process's
/// resident-set high-water mark from the current resident set.
void ResetPeakRss();

/// Process peak resident set in MiB since the last ResetPeakRss()
/// (VmHWM; getrusage ru_maxrss where /proc is unavailable).
double PeakRssMib();

/// Shortest round-trip decimal form of a double, for JSON.
std::string Num(double v);
std::string JsonString(const std::string& s);

}  // namespace dbench
