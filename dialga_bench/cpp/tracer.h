// Outside-in tracing for the traced run. Spans are recorded by the
// benchmark's own code around calls into each layer's public functions
// and, through TimedCodec, around the codec calls the stripe service
// and the shard store make on their workers. Nothing under src/ is
// instrumented.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "ec/codec.h"

namespace dbench {

struct Span {
  const char* name = "";  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< span that caused this one; 0 = root
  std::uint64_t req = 0;     ///< request shared by a request's spans
  std::uint32_t tid = 0;     ///< tracer-assigned thread index

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-thread span buffers, reserved once per thread at its first
/// span and appended without locks; spans past a thread's capacity are
/// counted as dropped. Read the spans back only after every recording
/// thread has handed its work back (futures resolved, calls returned).
class Tracer {
 public:
  explicit Tracer(std::size_t per_thread_capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(Span s);

  /// The caller-side span currently open (a shard-store call): the
  /// parent of codec calls whose buffers name no registered request.
  void set_open(std::uint64_t id) { open_.store(id, std::memory_order_relaxed); }
  std::uint64_t open() const { return open_.load(std::memory_order_relaxed); }

  std::vector<Span> spans() const;
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON (loadable in Perfetto) of the first
  /// `max_events` spans by start time.
  bool write_chrome_trace(const std::filesystem::path& path,
                          std::size_t max_events) const;

 private:
  struct ThreadBuf {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
  };
  ThreadBuf* local();

  const std::uint64_t serial_;
  const std::size_t capacity_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> open_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

/// Maps each request's first output buffer (parity[0] of an encode,
/// the first erased block of a decode) to the id of the request
/// currently using it. Keys are fixed at construction; the load
/// generator calls begin() before submitting, a worker calls lookup().
class RequestMap {
 public:
  explicit RequestMap(std::span<const void* const> keys);
  void begin(const void* key, std::uint64_t req);
  std::uint64_t lookup(const void* key) const;  ///< 0 when unknown

 private:
  std::unordered_map<const void*, std::size_t> slot_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> req_;
};

/// ec::Codec wrapper that records one span per encode/decode call,
/// parented to the request found in `requests` or else to the
/// tracer's open span.
class TimedCodec final : public ec::Codec {
 public:
  TimedCodec(const ec::Codec& inner, Tracer& tracer,
             const RequestMap* requests);

  std::string name() const override { return inner_.name(); }
  ec::CodeParams params() const override { return inner_.params(); }
  ec::SimdWidth simd() const override { return inner_.simd(); }
  void encode(std::size_t block_size, std::span<const std::byte* const> data,
              std::span<std::byte* const> parity) const override;
  bool decode(std::size_t block_size, std::span<std::byte* const> blocks,
              std::span<const std::size_t> erasures) const override;
  ec::EncodePlan encode_plan(std::size_t block_size,
                             const simmem::ComputeCost& cost) const override {
    return inner_.encode_plan(block_size, cost);
  }
  ec::EncodePlan decode_plan(std::size_t block_size,
                             const simmem::ComputeCost& cost,
                             std::span<const std::size_t> erasures)
      const override {
    return inner_.decode_plan(block_size, cost, erasures);
  }

 private:
  void Record(const char* name, const void* key, std::int64_t t0) const;

  const ec::Codec& inner_;
  Tracer& tracer_;
  const RequestMap* requests_;
};

}  // namespace dbench
