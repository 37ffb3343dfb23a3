// aio::Ring — a minimal raw-syscall io_uring wrapper (no liburing
// dependency): one submission queue + completion queue pair mmap'd
// from the kernel, with registered-buffer support for zero-copy fixed
// reads/writes.
//
// Scope is deliberately the shard datapath's needs, not a general
// liburing clone: pread/pwrite opcodes (durable writes fsync with
// fsync(2), see aio/datapath.h), single-threaded use (one
// Ring per file operation; callers that want concurrency create one
// ring per worker), synchronous submit/wait.
//
// Fault-injection sites (fault/injector.h):
//   aio.submit   io_uring_enter(submit) fails with the injected errno
//   aio.cqe      one drained completion's result is replaced by the
//                injected errno (as a kernel -errno result would be)
//
// On kernels (or sandboxes) without io_uring, KernelSupported() is
// false and Create() fails cleanly — callers fall back to the stdio
// datapath (aio/datapath.h handles the selection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

struct iovec;
// Kernel UAPI types (global scope — <linux/io_uring.h> in ring.cc).
struct io_uring_sqe;
struct io_uring_cqe;

namespace aio {

/// One completed operation, as drained from the CQ ring.
struct Completion {
  std::uint64_t user_data = 0;
  std::int32_t res = 0;  ///< bytes transferred, or -errno
};

class Ring {
 public:
  /// Whether this kernel accepts io_uring_setup at all. Probed once
  /// per process and cached; seccomp EPERM/ENOSYS count as "no".
  static bool KernelSupported();

  /// Create a ring with at least `entries` SQ slots (kernel rounds up
  /// to a power of two). nullptr + *err on failure.
  static std::unique_ptr<Ring> Create(unsigned entries, int* err = nullptr);

  ~Ring();
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Pin `n` buffers for READ_FIXED/WRITE_FIXED. Returns false when
  /// the kernel refuses (RLIMIT_MEMLOCK, too many/large buffers) —
  /// non-fatal, callers just queue unregistered ops (buf_index -1).
  bool register_buffers(const iovec* iov, unsigned n);
  bool buffers_registered() const { return buffers_registered_; }

  unsigned depth() const { return sq_entries_; }
  /// Unsubmitted SQEs queued locally + submitted-not-reaped ops.
  unsigned in_flight() const { return to_submit_ + inflight_; }
  /// Free SQ slots right now (queue_* return false when zero).
  unsigned sq_space() const;

  /// Queue one operation. `buf_index >= 0` selects the registered
  /// buffer containing [buf, buf+len) and issues the fixed variant.
  bool queue_read(int fd, void* buf, unsigned len, std::uint64_t off,
                  std::uint64_t user_data, int buf_index = -1);
  bool queue_write(int fd, const void* buf, unsigned len, std::uint64_t off,
                   std::uint64_t user_data, int buf_index = -1);

  /// Submit everything queued. Returns the number accepted by the
  /// kernel, or -errno (including the injected `aio.submit` errno).
  int submit();

  /// Block until at least `min_complete` completions are ready (of the
  /// ops currently in flight), then drain *all* ready CQEs into `out`
  /// (appended). Returns the number drained, or -errno.
  int wait(unsigned min_complete, std::vector<Completion>* out);

  /// Rewind the SQ tail over SQEs queued but never accepted by the
  /// kernel (legal: the kernel only reads the tail inside submit).
  /// Error paths MUST call this before reusing the ring — a leaked
  /// unsubmitted SQE would ride along with the next operation's
  /// submit and complete with a stale user_data.
  void drop_unsubmitted();

 private:
  Ring() = default;
  bool init(unsigned entries, int* err);
  struct io_uring_sqe* next_sqe();

  int fd_ = -1;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  unsigned to_submit_ = 0;  ///< queued locally, not yet submitted
  unsigned inflight_ = 0;   ///< submitted, completion not yet drained
  bool buffers_registered_ = false;

  // Mapped rings. With IORING_FEAT_SINGLE_MMAP sq/cq share a mapping
  // (cq_ptr_ == sq_ptr_ and only the first munmap fires).
  void* sq_ptr_ = nullptr;
  std::size_t sq_len_ = 0;
  void* cq_ptr_ = nullptr;
  std::size_t cq_len_ = 0;
  struct io_uring_sqe* sqes_ = nullptr;
  std::size_t sqes_len_ = 0;

  // Ring geometry pointers into the mappings.
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  struct io_uring_cqe* cqes_ = nullptr;
};

}  // namespace aio
