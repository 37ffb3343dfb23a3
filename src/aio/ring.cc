#include "aio/ring.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "fault/injector.h"
#include "obs/metrics.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define DIALGA_HAVE_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>
#else
#define DIALGA_HAVE_URING 0
#endif

namespace aio {

#if DIALGA_HAVE_URING

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg,
                          unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// The SQ/CQ head and tail live in kernel-shared memory: the kernel
// updates the SQ head / CQ tail concurrently with us, so every cross-
// side access needs acquire/release ordering (same contract liburing's
// io_uring_smp_* macros implement).
unsigned load_acquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}
void store_release(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

/// Ring-level registry mirror: sqe/cqe latency, ring-depth high water.
struct RingMetrics {
  obs::Counter& sqes;
  obs::Counter& cqes;
  obs::Gauge& depth;
  obs::Histogram& submit_s;
  obs::Histogram& wait_s;

  static RingMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static RingMetrics m{
        reg.counter("dialga_aio_sqes_total", {},
                    "io_uring submission queue entries accepted"),
        reg.counter("dialga_aio_cqes_total", {},
                    "io_uring completions drained"),
        reg.gauge("dialga_aio_ring_depth", {},
                  "High-water in-flight ops on any ring"),
        reg.histogram("dialga_aio_sqe_latency_seconds", obs::LatencyBounds(),
                      {}, "io_uring_enter submit-side syscall latency"),
        reg.histogram("dialga_aio_cqe_latency_seconds", obs::LatencyBounds(),
                      {}, "io_uring_enter completion-wait latency"),
    };
    return m;
  }
};

}  // namespace

bool Ring::KernelSupported() {
  static const bool supported = [] {
    io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    const int fd = sys_io_uring_setup(1, &p);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return supported;
}

std::unique_ptr<Ring> Ring::Create(unsigned entries, int* err) {
  std::unique_ptr<Ring> r(new Ring);
  if (!r->init(entries == 0 ? 1 : entries, err)) return nullptr;
  return r;
}

bool Ring::init(unsigned entries, int* err) {
  io_uring_params p;
  std::memset(&p, 0, sizeof(p));
  fd_ = sys_io_uring_setup(entries, &p);
  if (fd_ < 0) {
    if (err) *err = errno;
    return false;
  }
  sq_entries_ = p.sq_entries;
  cq_entries_ = p.cq_entries;

  sq_len_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  cq_len_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap && cq_len_ > sq_len_) sq_len_ = cq_len_;

  sq_ptr_ = ::mmap(nullptr, sq_len_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, fd_, IORING_OFF_SQ_RING);
  if (sq_ptr_ == MAP_FAILED) {
    if (err) *err = errno;
    sq_ptr_ = nullptr;
    return false;
  }
  if (single_mmap) {
    cq_ptr_ = sq_ptr_;
    cq_len_ = sq_len_;
  } else {
    cq_ptr_ = ::mmap(nullptr, cq_len_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, fd_, IORING_OFF_CQ_RING);
    if (cq_ptr_ == MAP_FAILED) {
      if (err) *err = errno;
      cq_ptr_ = nullptr;
      return false;
    }
  }
  sqes_len_ = p.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(
      ::mmap(nullptr, sqes_len_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, fd_, IORING_OFF_SQES));
  if (sqes_ == MAP_FAILED) {
    if (err) *err = errno;
    sqes_ = nullptr;
    return false;
  }

  auto* sq = static_cast<unsigned char*>(sq_ptr_);
  sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
  sq_mask_ = *reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
  auto* cq = static_cast<unsigned char*>(cq_ptr_);
  cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
  cqes_ = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
  return true;
}

Ring::~Ring() {
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_len_);
  if (cq_ptr_ != nullptr && cq_ptr_ != sq_ptr_) ::munmap(cq_ptr_, cq_len_);
  if (sq_ptr_ != nullptr) ::munmap(sq_ptr_, sq_len_);
  if (fd_ >= 0) ::close(fd_);
}

bool Ring::register_buffers(const iovec* iov, unsigned n) {
  if (buffers_registered_ || n == 0) return buffers_registered_;
  if (sys_io_uring_register(fd_, IORING_REGISTER_BUFFERS, iov, n) < 0) {
    return false;
  }
  buffers_registered_ = true;
  return true;
}

unsigned Ring::sq_space() const {
  const unsigned head = load_acquire(sq_head_);
  return sq_entries_ - (*sq_tail_ - head);
}

io_uring_sqe* Ring::next_sqe() {
  if (sq_space() == 0) return nullptr;
  const unsigned tail = *sq_tail_;
  const unsigned idx = tail & sq_mask_;
  io_uring_sqe* sqe = &sqes_[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  sq_array_[idx] = idx;
  // Publish the filled SQE before the kernel can see the new tail.
  store_release(sq_tail_, tail + 1);
  ++to_submit_;
  return sqe;
}

bool Ring::queue_read(int fd, void* buf, unsigned len, std::uint64_t off,
                      std::uint64_t user_data, int buf_index) {
  io_uring_sqe* sqe = next_sqe();
  if (sqe == nullptr) return false;
  const bool fixed = buf_index >= 0 && buffers_registered_;
  sqe->opcode = fixed ? IORING_OP_READ_FIXED : IORING_OP_READ;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(buf);
  sqe->len = len;
  sqe->off = off;
  if (fixed) sqe->buf_index = static_cast<std::uint16_t>(buf_index);
  sqe->user_data = user_data;
  return true;
}

bool Ring::queue_write(int fd, const void* buf, unsigned len,
                       std::uint64_t off, std::uint64_t user_data,
                       int buf_index) {
  io_uring_sqe* sqe = next_sqe();
  if (sqe == nullptr) return false;
  const bool fixed = buf_index >= 0 && buffers_registered_;
  sqe->opcode = fixed ? IORING_OP_WRITE_FIXED : IORING_OP_WRITE;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(buf);
  sqe->len = len;
  sqe->off = off;
  if (fixed) sqe->buf_index = static_cast<std::uint16_t>(buf_index);
  sqe->user_data = user_data;
  return true;
}

int Ring::submit() {
  if (to_submit_ == 0) return 0;
  if (const int fe = fault::FireErrno("aio.submit"); fe != 0) return -fe;
  const auto t0 = std::chrono::steady_clock::now();
  const int n = sys_io_uring_enter(fd_, to_submit_, 0, 0);
  if (n < 0) return -errno;
  RingMetrics::Get().submit_s.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  to_submit_ -= static_cast<unsigned>(n);
  inflight_ += static_cast<unsigned>(n);
  RingMetrics::Get().sqes.inc(static_cast<std::uint64_t>(n));
  RingMetrics::Get().depth.max_of(static_cast<double>(inflight_));
  return n;
}

void Ring::drop_unsubmitted() {
  if (to_submit_ == 0) return;
  store_release(sq_tail_, *sq_tail_ - to_submit_);
  to_submit_ = 0;
}

int Ring::wait(unsigned min_complete, std::vector<Completion>* out) {
  if (min_complete > inflight_) min_complete = inflight_;
  const auto t0 = std::chrono::steady_clock::now();
  unsigned head = *cq_head_;
  if (min_complete > 0 && load_acquire(cq_tail_) - head < min_complete) {
    if (sys_io_uring_enter(fd_, 0, min_complete, IORING_ENTER_GETEVENTS) <
        0) {
      return -errno;
    }
  }
  RingMetrics::Get().wait_s.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  const unsigned tail = load_acquire(cq_tail_);
  int drained = 0;
  while (head != tail) {
    const io_uring_cqe& cqe = cqes_[head & cq_mask_];
    Completion c{cqe.user_data, cqe.res};
    if (const int fe = fault::FireErrno("aio.cqe"); fe != 0) c.res = -fe;
    out->push_back(c);
    ++head;
    ++drained;
  }
  store_release(cq_head_, head);
  inflight_ -= static_cast<unsigned>(drained);
  RingMetrics::Get().cqes.inc(static_cast<std::uint64_t>(drained));
  return drained;
}

#else  // !DIALGA_HAVE_URING — non-Linux stub: never supported.

bool Ring::KernelSupported() { return false; }

std::unique_ptr<Ring> Ring::Create(unsigned, int* err) {
  if (err) *err = ENOSYS;
  return nullptr;
}

Ring::~Ring() = default;
bool Ring::init(unsigned, int*) { return false; }
bool Ring::register_buffers(const iovec*, unsigned) { return false; }
unsigned Ring::sq_space() const { return 0; }
struct io_uring_sqe* Ring::next_sqe() { return nullptr; }
bool Ring::queue_read(int, void*, unsigned, std::uint64_t, std::uint64_t,
                      int) {
  return false;
}
bool Ring::queue_write(int, const void*, unsigned, std::uint64_t,
                       std::uint64_t, int) {
  return false;
}
int Ring::submit() { return -ENOSYS; }
void Ring::drop_unsubmitted() {}
int Ring::wait(unsigned, std::vector<Completion>*) { return -ENOSYS; }

#endif  // DIALGA_HAVE_URING

}  // namespace aio
