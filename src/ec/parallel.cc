#include "ec/parallel.h"

#include <mutex>

namespace ec {

void ParallelEncode(const Codec& codec, std::size_t block_size,
                    std::span<const StripeBuffers> stripes,
                    std::size_t threads) {
  // Serial on the caller for threads <= 1 or trivial stripe counts,
  // otherwise the process-wide shared pool. threads == 0 resolves via
  // ThreadPool::DefaultWorkerCount(), which owns the
  // hardware_concurrency() == 0 fallback.
  const std::size_t workers =
      threads != 0 ? threads : ThreadPool::DefaultWorkerCount();
  if (workers <= 1 || stripes.size() <= 1) {
    for (const StripeBuffers& sb : stripes) {
      codec.encode(block_size, sb.data, sb.parity);
    }
    return;
  }
  ParallelEncode(ThreadPool::Shared(), codec, block_size, stripes);
}

void ParallelEncode(ThreadPool& pool, const Codec& codec,
                    std::size_t block_size,
                    std::span<const StripeBuffers> stripes) {
  pool.parallel_for(stripes.size(), [&](std::size_t i) {
    codec.encode(block_size, stripes[i].data, stripes[i].parity);
  });
}

std::size_t ParallelDecode(ThreadPool& pool, const Codec& codec,
                           std::size_t block_size,
                           std::span<const DecodeJob> jobs) {
  std::mutex mu;
  std::size_t failures = 0;
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    if (!codec.decode(block_size, jobs[i].blocks, jobs[i].erasures)) {
      std::lock_guard<std::mutex> lk(mu);
      ++failures;
    }
  });
  return failures;
}

}  // namespace ec
