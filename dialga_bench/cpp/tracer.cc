#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "harness.h"

namespace dbench {

namespace {

std::atomic<std::uint64_t> g_tracer_serial{1};

/// The calling thread's buffer in the most recent tracer it recorded
/// into; a serial mismatch (a newer tracer) registers a fresh buffer.
struct LocalCache {
  std::uint64_t serial = 0;
  void* buf = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

Tracer::Tracer(std::size_t per_thread_capacity)
    : serial_(g_tracer_serial.fetch_add(1)), capacity_(per_thread_capacity) {}

Tracer::ThreadBuf* Tracer::local() {
  if (t_cache.serial == serial_) return static_cast<ThreadBuf*>(t_cache.buf);
  auto buf = std::make_unique<ThreadBuf>();
  buf->spans.reserve(capacity_);
  ThreadBuf* raw = buf.get();
  {
    std::lock_guard<std::mutex> lk(mu_);
    raw->tid = static_cast<std::uint32_t>(bufs_.size());
    bufs_.push_back(std::move(buf));
  }
  t_cache = {serial_, raw};
  return raw;
}

void Tracer::record(Span s) {
  ThreadBuf* b = local();
  if (b->spans.size() == capacity_) {
    ++b->dropped;
    return;
  }
  s.tid = b->tid;
  b->spans.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> out;
  for (const auto& b : bufs_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& b : bufs_) n += b->dropped;
  return n;
}

bool Tracer::write_chrome_trace(const std::filesystem::path& path,
                                std::size_t max_events) const {
  std::vector<Span> all = spans();
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  if (all.size() > max_events) all.resize(max_events);
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << Num(static_cast<double>(s.start_ns - t0) * 1e-3)
        << ",\"dur\":" << Num(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

RequestMap::RequestMap(std::span<const void* const> keys)
    : req_(std::make_unique<std::atomic<std::uint64_t>[]>(keys.size())) {
  for (std::size_t i = 0; i < keys.size(); ++i) slot_.emplace(keys[i], i);
}

void RequestMap::begin(const void* key, std::uint64_t req) {
  const auto it = slot_.find(key);
  if (it != slot_.end()) req_[it->second].store(req, std::memory_order_relaxed);
}

std::uint64_t RequestMap::lookup(const void* key) const {
  const auto it = slot_.find(key);
  return it == slot_.end() ? 0 : req_[it->second].load(std::memory_order_relaxed);
}

TimedCodec::TimedCodec(const ec::Codec& inner, Tracer& tracer,
                       const RequestMap* requests)
    : inner_(inner), tracer_(tracer), requests_(requests) {}

void TimedCodec::Record(const char* name, const void* key,
                        std::int64_t t0) const {
  const std::int64_t t1 = NowNs();
  const std::uint64_t req = requests_ != nullptr ? requests_->lookup(key) : 0;
  tracer_.record({name, t0, t1, tracer_.new_id(),
                  req != 0 ? req : tracer_.open(), req, 0});
}

void TimedCodec::encode(std::size_t block_size,
                        std::span<const std::byte* const> data,
                        std::span<std::byte* const> parity) const {
  const std::int64_t t0 = NowNs();
  inner_.encode(block_size, data, parity);
  Record("codec.encode", parity.empty() ? nullptr : parity[0], t0);
}

bool TimedCodec::decode(std::size_t block_size,
                        std::span<std::byte* const> blocks,
                        std::span<const std::size_t> erasures) const {
  const std::int64_t t0 = NowNs();
  const bool ok = inner_.decode(block_size, blocks, erasures);
  const void* key = erasures.empty() || erasures[0] >= blocks.size()
                        ? nullptr
                        : blocks[erasures[0]];
  Record("codec.decode", key, t0);
  return ok;
}

}  // namespace dbench
