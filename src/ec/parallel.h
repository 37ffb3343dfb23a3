// Host-parallel functional encoding: spread stripes across the
// persistent work-stealing pool (ec/thread_pool.h). This is real
// wall-clock parallelism for library users protecting actual data
// (the shard store, the stripe service) — unrelated to the simulator's
// modelled cores, which exist to reproduce the paper's scalability
// figures deterministically.
//
// Exceptions thrown by a codec body on a worker are rethrown on the
// caller (see ThreadPool::parallel_for) instead of terminating the
// process.
#pragma once

#include <cstddef>
#include <span>

#include "ec/codec.h"
#include "ec/thread_pool.h"

namespace ec {

/// One stripe's functional buffers.
struct StripeBuffers {
  std::span<const std::byte* const> data;  // k pointers
  std::span<std::byte* const> parity;      // m pointers
};

/// Encode every stripe on the process-wide shared pool. `threads` is a
/// parallelism hint: 0 = hardware concurrency, 1 = run serially on the
/// caller (deterministic order, no pool involvement), > 1 = dispatch to
/// the shared pool, whose idle workers may steal regardless of the
/// hint. The codec must be safe for concurrent encode() calls with
/// distinct buffers — all codecs in this library are (encode is const
/// and touches only its arguments).
void ParallelEncode(const Codec& codec, std::size_t block_size,
                    std::span<const StripeBuffers> stripes,
                    std::size_t threads = 0);

/// Same, on an explicit pool (benches and long-lived services own one
/// and reuse it across calls).
void ParallelEncode(ThreadPool& pool, const Codec& codec,
                    std::size_t block_size,
                    std::span<const StripeBuffers> stripes);

/// Parallel scrub-style decode on an explicit pool: repairs each
/// stripe's erasures in place. Returns the number of stripes that
/// failed to decode.
struct DecodeJob {
  std::span<std::byte* const> blocks;        // k + m pointers
  std::span<const std::size_t> erasures;
};
std::size_t ParallelDecode(ThreadPool& pool, const Codec& codec,
                           std::size_t block_size,
                           std::span<const DecodeJob> jobs);

}  // namespace ec
