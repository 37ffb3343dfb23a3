#include "svc/batcher.h"

namespace svc {

std::vector<Batch> FormBatches(std::span<const Pending> reqs,
                               std::size_t max_batch) {
  std::vector<Batch> batches;
  // Linear scan with a search over open batches: the number of distinct
  // (op, shape, codec) groups in one drain round is tiny (the mix of
  // concurrently-served code shapes), so this beats hashing in practice
  // and keeps batches ordered by first appearance.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Pending& r = reqs[i];
    Batch* open = nullptr;
    for (auto it = batches.rbegin(); it != batches.rend(); ++it) {
      if (it->op == r.op && it->shape == r.shape() &&
          it->codec == r.codec_override()) {
        open = &*it;
        break;  // only the most recent batch of a group may still fill
      }
    }
    if (open == nullptr ||
        (max_batch != 0 && open->indices.size() >= max_batch)) {
      batches.push_back(Batch{r.op, r.shape(), r.codec_override(), {}});
      open = &batches.back();
    }
    open->indices.push_back(i);
  }
  return batches;
}

}  // namespace svc
