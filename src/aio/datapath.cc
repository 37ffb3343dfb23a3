#include "aio/datapath.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "fault/injector.h"
#include "obs/metrics.h"

namespace aio {

namespace fs = std::filesystem;

namespace {

/// Sub-op granularity: large enough to amortize per-op cost, small
/// enough that a 128-deep ring keeps many in flight per shard file.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
constexpr unsigned kRingEntries = 128;
/// Transient (EINTR/EAGAIN) resubmits per operation before giving up.
constexpr int kTransientBudget = 1024;

int FireSite(const char* site) {
  return site != nullptr ? fault::FireErrno(site) : 0;
}
bool FiresSite(const char* site) {
  return site != nullptr && fault::Fires(site);
}

struct DpMetrics {
  obs::Counter& read_bytes_stdio;
  obs::Counter& read_bytes_uring;
  obs::Counter& write_bytes_stdio;
  obs::Counter& write_bytes_uring;
  obs::Counter& ops_read;
  obs::Counter& ops_write;
  obs::Counter& fallbacks;

  obs::Counter& bytes(Backend b, bool write) {
    if (write) {
      return b == Backend::kUring ? write_bytes_uring : write_bytes_stdio;
    }
    return b == Backend::kUring ? read_bytes_uring : read_bytes_stdio;
  }

  static DpMetrics& Get() {
    auto& reg = obs::Registry::Global();
    // All label combinations registered eagerly so exporters see every
    // series from the first scrape, whichever backend actually ran.
    static DpMetrics m{
        reg.counter("dialga_aio_bytes_total",
                    {{"backend", "stdio"}, {"op", "read"}},
                    "Bytes moved through the file datapath"),
        reg.counter("dialga_aio_bytes_total",
                    {{"backend", "uring"}, {"op", "read"}}),
        reg.counter("dialga_aio_bytes_total",
                    {{"backend", "stdio"}, {"op", "write"}}),
        reg.counter("dialga_aio_bytes_total",
                    {{"backend", "uring"}, {"op", "write"}}),
        reg.counter("dialga_aio_ops_total", {{"op", "read"}},
                    "Datapath operations (whole files or scatter sets)"),
        reg.counter("dialga_aio_ops_total", {{"op", "write"}}),
        reg.counter("dialga_aio_fallback_total", {},
                    "Times uring was requested/probed but stdio ran"),
    };
    return m;
  }
};

std::string ShortReadDetail(std::uint64_t got, std::uint64_t want,
                            std::uint64_t offset) {
  return "short read: got " + std::to_string(got) + " of " +
         std::to_string(want) + " bytes at offset " + std::to_string(offset);
}

/// Clean the ring for reuse before an error return: rewind SQEs the
/// kernel never saw (they would otherwise ride along with the next
/// operation's submit and complete with stale user_data, corrupting
/// its accounting), then drain every submitted-but-unreaped completion
/// so the kernel is done with the caller's buffers.
void DrainRing(Ring* ring) {
  ring->drop_unsubmitted();
  std::vector<Completion> sink;
  while (true) {
    sink.clear();
    if (ring->wait(1, &sink) <= 0) break;
  }
}

/// One chunk of a segment, small enough for a single SQE.
struct SubOp {
  std::size_t seg = 0;
  std::byte* buf = nullptr;
  std::size_t len = 0;
  std::uint64_t off = 0;
};

std::vector<SubOp> ChunkSegs(std::span<const Seg> segs) {
  std::vector<SubOp> subs;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Seg& s = segs[i];
    for (std::size_t done = 0; done < s.len;) {
      const std::size_t n = std::min(kChunkBytes, s.len - done);
      subs.push_back({i, s.buf + done, n, s.offset + done});
      done += n;
    }
  }
  return subs;
}

// ---------------------------------------------------------------------------
// Reads.

IoStatus PreadSeg(int fd, const Seg& seg, const FaultSites& sites) {
  std::size_t done = 0;
  int budget = kTransientBudget;
  while (done < seg.len) {
    const ::ssize_t n = ::pread(fd, seg.buf + done, seg.len - done,
                                static_cast<::off_t>(seg.offset + done));
    if (n < 0) {
      if ((errno == EINTR || errno == EAGAIN) && --budget >= 0) continue;
      return IoStatus::Error(errno, "read failed");
    }
    if (const int fe = FireSite(sites.read); fe != 0) {
      if ((fe == EINTR || fe == EAGAIN) && --budget >= 0) continue;
      return IoStatus::Error(fe, "read failed");
    }
    if (n == 0 || FiresSite(sites.short_read)) {
      return IoStatus::Error(
          EIO, ShortReadDetail(done, seg.len, seg.offset));
    }
    done += static_cast<std::size_t>(n);
  }
  return IoStatus::Ok();
}

IoStatus ReadSegsFd(Transfer& xfer, int fd, std::span<const Seg> segs,
                    const FaultSites& sites,
                    const std::function<void(std::size_t)>& on_segment) {
  std::vector<std::size_t> remaining(segs.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    remaining[i] = segs[i].len;
    total += segs[i].len;
  }

  Ring* ring = xfer.backend() == Backend::kUring ? xfer.ring() : nullptr;
  if (ring == nullptr) {
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (IoStatus st = PreadSeg(fd, segs[i], sites); !st.ok()) return st;
      DpMetrics::Get().bytes(Backend::kStdio, false).inc(segs[i].len);
      if (on_segment) on_segment(i);
    }
    return IoStatus::Ok();
  }

  std::vector<SubOp> subs = ChunkSegs(segs);
  std::vector<std::size_t> pending(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) pending[i] = i;
  std::size_t outstanding = 0;
  int budget = kTransientBudget;
  std::vector<Completion> cqes;

  while (!pending.empty() || outstanding > 0) {
    while (!pending.empty() && ring->sq_space() > 0) {
      const std::size_t idx = pending.back();
      const SubOp& s = subs[idx];
      ring->queue_read(fd, s.buf, static_cast<unsigned>(s.len), s.off, idx,
                       xfer.buf_index_for(s.buf, s.len));
      pending.pop_back();
      ++outstanding;
    }
    if (int rc = ring->submit(); rc < 0) {
      if ((rc == -EINTR || rc == -EAGAIN) && --budget >= 0) continue;
      DrainRing(ring);
      return IoStatus::Error(-rc, "aio submit failed");
    }
    cqes.clear();
    if (int rc = ring->wait(1, &cqes); rc < 0) {
      if ((rc == -EINTR || rc == -EAGAIN) && --budget >= 0) continue;
      DrainRing(ring);
      return IoStatus::Error(-rc, "aio completion wait failed");
    }
    for (const Completion& c : cqes) {
      --outstanding;
      SubOp& s = subs[c.user_data];
      int injected = FireSite(sites.read);
      if (c.res < 0 || injected != 0) {
        const int e = injected != 0 ? injected : -c.res;
        if ((e == EINTR || e == EAGAIN) && --budget >= 0) {
          pending.push_back(static_cast<std::size_t>(c.user_data));
          continue;
        }
        DrainRing(ring);
        return IoStatus::Error(e, "read failed");
      }
      if (c.res == 0 || FiresSite(sites.short_read)) {
        const std::size_t seg_done = segs[s.seg].len - remaining[s.seg];
        DrainRing(ring);
        return IoStatus::Error(
            EIO, ShortReadDetail(seg_done, segs[s.seg].len,
                                 segs[s.seg].offset));
      }
      const std::size_t got = static_cast<std::size_t>(c.res);
      // Corruption drill: a completion whose DMA'd payload rotted in
      // flight. Only this completion's bytes are touched, so the
      // mutation is pinned to (seed, aio.cqe.corrupt, op#).
      fault::MaybeCorrupt("aio.cqe.corrupt", s.buf, got);
      remaining[s.seg] -= got;
      if (got < s.len) {  // partial chunk: continue where it stopped
        s.buf += got;
        s.len -= got;
        s.off += got;
        pending.push_back(static_cast<std::size_t>(c.user_data));
        continue;
      }
      if (remaining[s.seg] == 0 && on_segment) on_segment(s.seg);
    }
  }
  DpMetrics::Get().bytes(Backend::kUring, false).inc(total);
  return IoStatus::Ok();
}

// ---------------------------------------------------------------------------
// Writes.

IoStatus PwriteAll(int fd, const std::byte* buf, std::size_t len,
                   std::uint64_t off) {
  std::size_t done = 0;
  int budget = kTransientBudget;
  while (done < len) {
    const ::ssize_t n = ::pwrite(fd, buf + done, len - done,
                                 static_cast<::off_t>(off + done));
    if (n < 0) {
      if ((errno == EINTR || errno == EAGAIN) && --budget >= 0) continue;
      return IoStatus::Error(errno, "write failed");
    }
    done += static_cast<std::size_t>(n);
  }
  return IoStatus::Ok();
}

/// Write every sub-op through the ring, resubmitting transient errors
/// and finishing short writes where they stopped.
IoStatus WriteSegsFdUring(Transfer& xfer, Ring* ring, int fd,
                          std::vector<SubOp> subs) {
  std::vector<std::size_t> pending(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) pending[i] = i;
  std::size_t outstanding = 0;
  int budget = kTransientBudget;
  std::vector<Completion> cqes;

  while (!pending.empty() || outstanding > 0) {
    while (!pending.empty() && ring->sq_space() > 0) {
      const std::size_t idx = pending.back();
      const SubOp& s = subs[idx];
      ring->queue_write(fd, s.buf, static_cast<unsigned>(s.len), s.off, idx,
                        xfer.buf_index_for(s.buf, s.len));
      pending.pop_back();
      ++outstanding;
    }
    if (int rc = ring->submit(); rc < 0) {
      if ((rc == -EINTR || rc == -EAGAIN) && --budget >= 0) continue;
      DrainRing(ring);
      return IoStatus::Error(-rc, "aio submit failed");
    }
    cqes.clear();
    if (int rc = ring->wait(1, &cqes); rc < 0) {
      if ((rc == -EINTR || rc == -EAGAIN) && --budget >= 0) continue;
      DrainRing(ring);
      return IoStatus::Error(-rc, "aio completion wait failed");
    }
    for (const Completion& c : cqes) {
      --outstanding;
      SubOp& s = subs[c.user_data];
      if (c.res < 0) {
        const int e = -c.res;
        if ((e == EINTR || e == EAGAIN) && --budget >= 0) {
          pending.push_back(static_cast<std::size_t>(c.user_data));
          continue;
        }
        DrainRing(ring);
        return IoStatus::Error(e, "write failed");
      }
      const std::size_t put = static_cast<std::size_t>(c.res);
      if (put < s.len) {  // short write: finish the remainder
        s.buf += put;
        s.len -= put;
        s.off += put;
        pending.push_back(static_cast<std::size_t>(c.user_data));
      }
    }
  }
  return IoStatus::Ok();
}

std::atomic<unsigned> g_tmp_seq{0};

/// Create a fresh temp beside `path` (O_EXCL), naming it in *tmp;
/// returns its descriptor, or -1 with errno set. A name that already
/// exists is one an earlier process with this pid left behind (a crash
/// leaves its temps and spares), so the next sequence number is tried.
int CreateTemp(const fs::path& path, fs::path* tmp) {
  fs::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix =
      path.filename().string() + ".tmp-" + std::to_string(::getpid()) + "-";
  for (;;) {
    *tmp = dir / (prefix + std::to_string(g_tmp_seq.fetch_add(1)));
    const int fd =
        ::open(tmp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd >= 0 || errno != EEXIST) return fd;
  }
}

/// open(path, flags) and fsync it; `what` names it in the error.
IoStatus OpenAndFsync(const fs::path& path, int flags, const char* what) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return IoStatus::Error(errno, std::string("cannot open ") + what);
  if (::fsync(fd) < 0) {
    const int e = errno;
    ::close(fd);
    return IoStatus::Error(e, std::string("cannot fsync ") + what);
  }
  ::close(fd);
  return IoStatus::Ok();
}

IoStatus SyncParentDir(const fs::path& path) {
  fs::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  return OpenAndFsync(dir, O_RDONLY | O_DIRECTORY, "parent directory");
}

void UnlinkEach(std::span<const fs::path> paths) {
  for (const fs::path& p : paths) {
    if (!p.empty()) ::unlink(p.c_str());
  }
}

/// Whether `segs` write every byte of the file they define, so a file
/// overwritten with them keeps none of its old content.
bool CoversWholeFile(std::span<const Seg> segs) {
  std::vector<Seg> sorted(segs.begin(), segs.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Seg& a, const Seg& b) { return a.offset < b.offset; });
  std::uint64_t end = 0;
  for (const Seg& s : sorted) {
    if (s.offset > end) return false;
    end = std::max(end, s.offset + s.len);
  }
  return true;
}

/// Open a spare for overwriting, or -1 when it is no longer a regular
/// file (gone, or replaced by a symlink, a directory or another node)
/// or when it has another name too: a spare is a file an exchange
/// displaced, and a hard link made while it was live (a `cp -al` or
/// rsync --link-dest backup of the directory) must keep its bytes.
/// O_NONBLOCK keeps a FIFO in its place from blocking the open; it is
/// cleared before anything is written.
int OpenSpare(const fs::path& spare) {
  const int fd = ::open(spare.c_str(),
                        O_WRONLY | O_NOFOLLOW | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) return -1;
  struct ::stat st;
  if (::fstat(fd, &st) < 0 || !S_ISREG(st.st_mode) || st.st_nlink != 1 ||
      ::fcntl(fd, F_SETFL, 0) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool IsRegularFile(const fs::path& path) {
  struct ::stat st;
  return ::lstat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// Publish `tmp` at `path`. With `exchange`, a regular file at `path`
/// trades places with `tmp` in one atomic renameat2(RENAME_EXCHANGE),
/// so `tmp` then holds the displaced file and *exchanged is set. A
/// missing target or a filesystem without the exchange takes the plain
/// rename; so does a non-regular target, which is never swapped away (a
/// directory fails the rename with EISDIR). Returns 0 or the errno.
int Publish(const fs::path& tmp, const fs::path& path, bool exchange,
            bool* exchanged) {
  *exchanged = false;
  if (exchange && IsRegularFile(path)) {
    if (::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, path.c_str(),
                    RENAME_EXCHANGE) == 0) {
      *exchanged = true;
      return 0;
    }
    if (errno != EINVAL && errno != ENOSYS && errno != EOPNOTSUPP &&
        errno != ENOENT) {
      return errno;
    }
  }
  return ::rename(tmp.c_str(), path.c_str()) == 0 ? 0 : errno;
}

/// Size the temp behind `fd`, write `segs` into it, and start its
/// write-back so the device works on this file while later files of
/// the group are written.
IoStatus FillTemp(Transfer& xfer, int fd, std::span<const Seg> segs) {
  std::uint64_t total = 0;
  std::uint64_t payload = 0;
  for (const Seg& s : segs) {
    total = std::max(total, s.offset + s.len);
    payload += s.len;
  }
  // Pre-size the file: gaps between segments (none in practice) read
  // as zero, and the final length is right even for an empty gather.
  if (::ftruncate(fd, static_cast<::off_t>(total)) < 0) {
    return IoStatus::Error(errno, "cannot size temp file");
  }
  Ring* ring = xfer.backend() == Backend::kUring ? xfer.ring() : nullptr;
  if (ring != nullptr) {
    if (IoStatus st = WriteSegsFdUring(xfer, ring, fd, ChunkSegs(segs));
        !st.ok()) {
      return st;
    }
  } else {
    for (const Seg& s : segs) {
      if (IoStatus st = PwriteAll(fd, s.buf, s.len, s.offset); !st.ok()) {
        return st;
      }
    }
  }
  DpMetrics::Get().bytes(xfer.backend(), true).inc(payload);
  DpMetrics::Get().ops_write.inc();
#if defined(__linux__)
  // A hint only: fsync decides durability, so its error is ignored.
  (void)::sync_file_range(fd, 0, 0, SYNC_FILE_RANGE_WRITE);
#endif
  return IoStatus::Ok();
}

std::atomic<bool> g_warned_forced_uring{false};

}  // namespace

// ---------------------------------------------------------------------------
// Mode / backend selection.

std::optional<Mode> ParseMode(std::string_view s) {
  if (s == "auto") return Mode::kAuto;
  if (s == "stdio") return Mode::kStdio;
  if (s == "uring" || s == "io_uring") return Mode::kUring;
  return std::nullopt;
}

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kStdio:
      return "stdio";
    case Mode::kUring:
      return "uring";
    default:
      return "auto";
  }
}

Mode ModeFromEnv() {
  const char* v = std::getenv("DIALGA_AIO");
  if (v == nullptr || *v == '\0') return Mode::kAuto;
  if (const auto m = ParseMode(v)) return *m;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "dialga: DIALGA_AIO '%s' not recognized "
                 "(stdio|uring|auto); using auto\n",
                 v);
  }
  return Mode::kAuto;
}

Backend SelectBackend(Mode m) {
  DpMetrics::Get();  // eager registration, whichever backend runs
  switch (m) {
    case Mode::kStdio:
      return Backend::kStdio;
    case Mode::kUring:
      if (Ring::KernelSupported()) return Backend::kUring;
      if (!g_warned_forced_uring.exchange(true)) {
        std::fprintf(stderr,
                     "dialga: io_uring unavailable on this kernel; "
                     "falling back to the stdio datapath\n");
      }
      DpMetrics::Get().fallbacks.inc();
      return Backend::kStdio;
    default:
      if (Ring::KernelSupported()) return Backend::kUring;
      DpMetrics::Get().fallbacks.inc();
      return Backend::kStdio;
  }
}

const char* BackendName(Backend b) {
  return b == Backend::kUring ? "uring" : "stdio";
}

// ---------------------------------------------------------------------------
// Transfer.

Transfer::Transfer(Backend backend, std::span<const iovec> registered)
    : backend_(backend),
      registered_(registered.begin(), registered.end()) {
  DpMetrics::Get();
}

Ring* Transfer::ring() {
  if (backend_ != Backend::kUring) return nullptr;
  if (!ring_tried_) {
    ring_tried_ = true;
    ring_ = Ring::Create(kRingEntries);
    if (ring_ == nullptr) {
      backend_ = Backend::kStdio;  // degrade this transfer, keep going
      DpMetrics::Get().fallbacks.inc();
      return nullptr;
    }
    if (!registered_.empty()) {
      // Registration failure (RLIMIT_MEMLOCK) is non-fatal: ops simply
      // run unfixed; buf_index_for answers -1 from here on.
      if (!ring_->register_buffers(registered_.data(),
                                   static_cast<unsigned>(
                                       registered_.size()))) {
        registered_.clear();
      }
    }
  }
  return ring_.get();
}

int Transfer::buf_index_for(const void* p, std::size_t len) const {
  if (ring_ == nullptr || !ring_->buffers_registered()) return -1;
  const auto* b = static_cast<const std::byte*>(p);
  for (std::size_t i = 0; i < registered_.size(); ++i) {
    const auto* base = static_cast<const std::byte*>(registered_[i].iov_base);
    if (b >= base && b + len <= base + registered_[i].iov_len) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Entry points.

IoStatus ReadFileFull(const fs::path& path, std::vector<std::byte>* out,
                      const FaultSites& sites) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoStatus::Error(errno, "cannot open");
  if (const int fe = FireSite(sites.open); fe != 0) {
    ::close(fd);
    return IoStatus::Error(fe, "cannot open");
  }
  struct ::stat st;
  if (::fstat(fd, &st) < 0) {
    const int e = errno;
    ::close(fd);
    return IoStatus::Error(e, "cannot size");
  }
  out->resize(static_cast<std::size_t>(st.st_size));
  const Seg seg{out->data(), out->size(), 0};
  IoStatus r = out->empty() ? IoStatus::Ok() : PreadSeg(fd, seg, sites);
  ::close(fd);
  if (r.ok()) {
    DpMetrics::Get().bytes(Backend::kStdio, false).inc(out->size());
    DpMetrics::Get().ops_read.inc();
  }
  return r;
}

IoStatus StatSize(const fs::path& path, std::uint64_t* size) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) < 0) {
    return IoStatus::Error(errno, "cannot stat");
  }
  *size = static_cast<std::uint64_t>(st.st_size);
  return IoStatus::Ok();
}

IoStatus ReadFileExact(Transfer& xfer, const fs::path& path,
                       std::span<std::byte> dst, const FaultSites& sites) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoStatus::Error(errno, "cannot open");
  if (const int fe = FireSite(sites.open); fe != 0) {
    ::close(fd);
    return IoStatus::Error(fe, "cannot open");
  }
  struct ::stat st;
  if (::fstat(fd, &st) < 0) {
    const int e = errno;
    ::close(fd);
    return IoStatus::Error(e, "cannot size");
  }
  if (static_cast<std::uint64_t>(st.st_size) != dst.size()) {
    ::close(fd);
    return IoStatus::Error(EIO, "size mismatch: file holds " +
                                    std::to_string(st.st_size) +
                                    " bytes, expected " +
                                    std::to_string(dst.size()));
  }
  const Seg seg{dst.data(), dst.size(), 0};
  IoStatus r = dst.empty()
                   ? IoStatus::Ok()
                   : ReadSegsFd(xfer, fd, std::span<const Seg>(&seg, 1),
                                sites, {});
  ::close(fd);
  if (r.ok()) {
    DpMetrics::Get().ops_read.inc();
    // Whole-payload corruption site: fires identically on both
    // backends (one consult per successful exact read), so chaos
    // schedules stay bit-identical across stdio and uring.
    if (sites.corrupt != nullptr && !dst.empty()) {
      fault::MaybeCorrupt(sites.corrupt, dst.data(), dst.size());
    }
  }
  return r;
}

IoStatus ReadScatter(Transfer& xfer, const fs::path& path,
                     std::span<const Seg> segs, const FaultSites& sites,
                     const std::function<void(std::size_t)>& on_segment) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoStatus::Error(errno, "cannot open");
  if (const int fe = FireSite(sites.open); fe != 0) {
    ::close(fd);
    return IoStatus::Error(fe, "cannot open");
  }
  IoStatus r = ReadSegsFd(xfer, fd, segs, sites, on_segment);
  ::close(fd);
  if (r.ok()) DpMetrics::Get().ops_read.inc();
  return r;
}

IoStatus WriteFilesDurable(Transfer& xfer, std::span<const DurableFile> files,
                           const FaultSites& sites, bool sync_parent,
                           std::size_t* failed,
                           std::vector<fs::path>* spares) {
  // Every spare handed in is overwritten as its file's temp or
  // unlinked: none outlives this call untracked.
  std::vector<fs::path> pool;
  if (spares != nullptr) pool = std::exchange(*spares, {});
  std::vector<fs::path> temps;  // created or reused so far, in file order
  temps.reserve(files.size());
  auto fail = [&](std::size_t i, IoStatus st) {
    UnlinkEach(temps);
    UnlinkEach(pool);
    if (failed != nullptr) *failed = i;
    return st;
  };
  for (std::size_t i = 0; i < files.size(); ++i) {
    fs::path tmp;
    int fd = -1;
    if (i < pool.size() && !pool[i].empty()) {
      fs::path spare = std::exchange(pool[i], {});
      // Only content that covers the whole file may overwrite a spare:
      // a gap would keep the old bytes where the file must read zero.
      if (CoversWholeFile(files[i].segs)) fd = OpenSpare(spare);
      if (fd >= 0) {
        tmp = std::move(spare);
      } else {
        ::unlink(spare.c_str());
      }
    }
    if (fd < 0) {
      fd = CreateTemp(files[i].path, &tmp);
      if (fd < 0) {
        return fail(i, IoStatus::Error(errno, "cannot create temp file"));
      }
    }
    temps.push_back(std::move(tmp));
    const IoStatus st = FillTemp(xfer, fd, files[i].segs);
    ::close(fd);
    if (!st.ok()) return fail(i, st);
    // The injected failure lands before durability is declared, so a
    // fired site aborts with every target untouched — exactly the
    // crash the temp→rename protocol is there to survive.
    if (const int fe = FireSite(sites.write); fe != 0) {
      return fail(i, IoStatus::Error(fe, "write failed"));
    }
  }
  UnlinkEach(pool);  // spares beyond the last file
  pool.clear();
  // No temp is published until every temp of the group is durable.
  // The reopened descriptor is as good as the first: fsync flushes the
  // inode, and Linux reports a write-back error that no descriptor has
  // seen yet to a newly opened one.
  for (std::size_t i = 0; i < temps.size(); ++i) {
    if (IoStatus st = OpenAndFsync(temps[i], O_WRONLY, "temp file");
        !st.ok()) {
      return fail(i, st);
    }
  }
  // Per file, the temp path that now holds the file its publish
  // displaced (empty where it renamed over nothing).
  std::vector<fs::path> displaced(files.size());
  auto fail_published = [&](std::size_t i, IoStatus st) {
    UnlinkEach(displaced);
    if (failed != nullptr) *failed = i;
    return st;
  };
  for (std::size_t i = 0; i < temps.size(); ++i) {
    bool exchanged = false;
    if (const int e = Publish(temps[i], files[i].path, spares != nullptr,
                              &exchanged);
        e != 0) {
      UnlinkEach(std::span(temps).subspan(i));
      return fail_published(i, IoStatus::Error(e, "rename failed"));
    }
    if (exchanged) displaced[i] = std::move(temps[i]);
  }
  if (sync_parent) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      const fs::path dir = files[i].path.parent_path();
      if (i > 0 && dir == files[i - 1].path.parent_path()) continue;
      if (IoStatus st = SyncParentDir(files[i].path); !st.ok()) {
        return fail_published(i, st);
      }
    }
  }
  if (spares != nullptr) {
    *spares = std::move(displaced);
  }
  return IoStatus::Ok();
}

IoStatus WriteFileDurable(Transfer& xfer, const fs::path& path,
                          std::span<const std::byte> data,
                          const FaultSites& sites, bool sync_parent) {
  const Seg seg{const_cast<std::byte*>(data.data()), data.size(), 0};
  return WriteGatherDurable(xfer, path,
                            data.empty() ? std::span<const Seg>{}
                                         : std::span<const Seg>(&seg, 1),
                            sites, sync_parent);
}

IoStatus WriteGatherDurable(Transfer& xfer, const fs::path& path,
                            std::span<const Seg> segs,
                            const FaultSites& sites, bool sync_parent) {
  const DurableFile file{path, segs};
  return WriteFilesDurable(xfer, std::span<const DurableFile>(&file, 1), sites,
                           sync_parent);
}

IoStatus CreateDirectoriesDurable(const fs::path& dir) {
  std::vector<fs::path> missing;  // levels to create, deepest first
  std::error_code ec;
  for (fs::path p = dir; !p.empty() && !fs::exists(p, ec);
       p = p.parent_path()) {
    missing.push_back(p);
    if (p == p.parent_path()) break;  // a missing root: nothing above it
  }
  fs::create_directories(dir, ec);
  if (ec) return IoStatus::Error(ec.value(), "cannot create directory");
  for (const fs::path& p : missing) {
    if (IoStatus st = SyncParentDir(p); !st.ok()) return st;
  }
  return IoStatus::Ok();
}

}  // namespace aio
