#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <thread>

#include "aio/datapath.h"
#include "bench_util/stats.h"
#include "gf/gf_simd.h"
#include "integrity/checksum.h"
#include "obs/metrics.h"

extern char** environ;

namespace dbench {

namespace {

std::uint64_t SplitMix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::string FsName(const std::filesystem::path& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string LlcBytes() {
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return std::to_string(v);
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (in >> s && !s.empty()) return s;
  return "unknown";
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ull);
  for (auto& s : s_) s = SplitMix(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

double Rng::unit() {
  return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
}

void Rng::fill(std::byte* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = next();
    std::memcpy(p + i, &v, 8);
  }
  if (i < n) {
    const std::uint64_t v = next();
    std::memcpy(p + i, &v, n - i);
  }
}

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add_u64(bits);
}

void Digest::add_bytes(const std::byte* p, std::size_t n) {
  add_u64(n);
  add_u64(integrity::Crc32c(p, n));
}

Buffer::Buffer(std::size_t bytes) : n_(bytes) {
  const std::size_t rounded = std::max<std::size_t>(4096, (bytes + 4095) & ~std::size_t{4095});
  auto* p = static_cast<std::byte*>(std::aligned_alloc(4096, rounded));
  if (p == nullptr) throw std::bad_alloc();
  std::memset(p, 0, rounded);
  p_.reset(p);
}

void Buffer::Free::operator()(std::byte* p) const { std::free(p); }

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  m_.push_back({std::move(name), value, std::move(unit), samples});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : m_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

SampleLog::SampleLog(std::size_t capacity) : buf_(capacity) {}

double WindowedPercentile(std::span<const double> in_order, double q) {
  constexpr std::size_t kWidth = 1000;
  const std::size_t n = in_order.size();
  if (n < kWidth) return bench_util::Percentile(in_order, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w + kWidth <= n; w += kWidth) {
    per_window.push_back(bench_util::Percentile(in_order.subspan(w, kWidth), q));
  }
  return bench_util::Percentile(per_window, 0.5);
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot s;
  for (const obs::Sample& smp : obs::Registry::Global().collect()) {
    if (smp.type == obs::MetricType::kCounter) s.sums_[smp.name] += smp.value;
  }
  return s;
}

double CounterSnapshot::get(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

CounterSnapshot CounterSnapshot::operator-(const CounterSnapshot& base) const {
  CounterSnapshot d = *this;
  for (const auto& [name, v] : base.sums_) d.sums_[name] -= v;
  return d;
}

Env RecordEnv(const std::filesystem::path& data_dir) {
  Env env;
  env.emplace_back("gf_isa", gf::isa_name(gf::active_isa()));
  env.emplace_back("crc32c_hw", integrity::Crc32cUsesHardware() ? "1" : "0");
  env.emplace_back("aio_backend",
                   aio::BackendName(aio::SelectBackend(aio::ModeFromEnv())));
  env.emplace_back("data_fs", FsName(data_dir));
  env.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  env.emplace_back("llc_bytes", LlcBytes());
  std::vector<std::string> vars;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "DIALGA_", 7) == 0) vars.emplace_back(*e);
  }
  std::sort(vars.begin(), vars.end());
  for (const std::string& v : vars) {
    const std::size_t eq = v.find('=');
    env.emplace_back("env." + v.substr(0, eq),
                     eq == std::string::npos ? "" : v.substr(eq + 1));
  }
  return env;
}

std::string RefusedEnvVar() {
  static const char* const kPrefixes[] = {"DIALGA_FAULT_", "DIALGA_PLAN_CACHE",
                                          "DIALGA_SELECTOR", "DIALGA_TRACE"};
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    for (const char* p : kPrefixes) {
      if (std::strncmp(*e, p, std::strlen(p)) == 0) {
        const char* eq = std::strchr(*e, '=');
        return eq == nullptr ? std::string(*e)
                             : std::string(*e, static_cast<std::size_t>(eq - *e));
      }
    }
  }
  return "";
}

void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace dbench
