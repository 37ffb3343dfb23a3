#include "pmpool/arena.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

namespace pmpool {

void Arena::FreeDeleter::operator()(std::byte* p) const { std::free(p); }

Arena::Arena(std::size_t alignment) : alignment_(alignment) {}

std::size_t Arena::padded(std::size_t n) const {
  // aligned_alloc wants the size to be a multiple of the alignment;
  // a zero-length request still gets one alignment unit so the span
  // points at real memory.
  return ((n == 0 ? 1 : n) + alignment_ - 1) / alignment_ * alignment_;
}

std::span<std::byte> Arena::allocate(std::size_t n) {
  const std::size_t size = padded(n);
  auto* p = static_cast<std::byte*>(std::aligned_alloc(alignment_, size));
  if (p == nullptr) throw std::bad_alloc();
  std::memset(p, 0, size);
  slabs_.emplace_back(p);
  sizes_.push_back(size);
  return {p, n};
}

bool Arena::holds(std::size_t count, std::size_t n) const {
  const std::size_t size = padded(n);
  return slabs_.size() == count &&
         std::all_of(sizes_.begin(), sizes_.end(),
                     [&](std::size_t s) { return s == size; });
}

std::vector<std::span<std::byte>> Arena::recycle(std::size_t n) {
  assert(holds(slabs_.size(), n));
  std::vector<std::span<std::byte>> spans;
  spans.reserve(slabs_.size());
  for (const auto& slab : slabs_) spans.emplace_back(slab.get(), n);
  return spans;
}

}  // namespace pmpool
