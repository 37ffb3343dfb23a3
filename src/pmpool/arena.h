// pmpool::Arena — page-aligned, zero-initialized buffer arena backing
// the shard datapath's stripe buffers. Page alignment is what lets the
// io_uring backend pin the slabs as registered buffers (zero-copy
// READ_FIXED/WRITE_FIXED straight into the encode kernels' working
// set), and what a real PM-backed pool would hand out anyway (PM maps
// are page-granular). The arena owns every slab until it is destroyed,
// so spans handed to in-flight I/O stay valid for the whole
// operation. recycle() hands the same slabs out again as they are, so
// a caller that keeps its arena between operations maps and faults its
// pages once, and writes or zeroes every byte it uses.
//
// Not thread-safe: one file-level operation at a time.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace pmpool {

class Arena {
 public:
  /// `alignment` must be a power of two; the default is the page size
  /// every io_uring buffer-registration path accepts.
  explicit Arena(std::size_t alignment = 4096);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A fresh zeroed aligned slab of `n` bytes (n rounded up to the
  /// alignment internally; the returned span is exactly `n` long).
  std::span<std::byte> allocate(std::size_t n);

  /// Whether the arena holds exactly `count` slabs, each the size
  /// allocate(n) makes: the set recycle(n) can hand out again.
  bool holds(std::size_t count, std::size_t n) const;

  /// Every slab again, as spans of `n` bytes in allocation order,
  /// still holding what the last user left in them: allocate()'s
  /// contract without new memory and without the zero fill. Every slab
  /// must be the size allocate(n) makes (holds() checks it).
  std::vector<std::span<std::byte>> recycle(std::size_t n);

  /// One iovec per slab, in allocation order — the list handed to
  /// Ring::register_buffers. Slab i's buffer index is i.
  const std::vector<iovec>& iovecs() const { return iovecs_; }

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const;
  };

  /// Bytes allocate(n) reserves: n rounded up to the alignment, and a
  /// zero-length request as one alignment unit.
  std::size_t padded(std::size_t n) const;

  std::size_t alignment_;
  std::vector<std::unique_ptr<std::byte[], FreeDeleter>> slabs_;
  std::vector<iovec> iovecs_;
};

}  // namespace pmpool
