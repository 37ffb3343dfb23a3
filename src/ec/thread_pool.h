// Persistent work-stealing thread pool for the host-parallel EC path.
//
// The pool is constructed once and reused across calls: workers park on
// a condition variable between parallel_for invocations instead of
// being spawned and joined per call, so repeated ParallelEncode /
// ParallelDecode rounds (service batches, bench iterations) pay no
// thread-construction cost in the hot loop. Each worker owns a deque
// fed round-robin by parallel_for; an idle worker steals from the back
// of a victim's deque, which balances uneven stripe costs (mixed block
// sizes, partial stripes) without a global queue bottleneck.
//
// Exception safety: the first exception thrown by a parallel_for body
// is captured, the remaining not-yet-started tasks of that call are
// skipped, and the exception is rethrown on the caller once the call is
// quiescent (every task ran or was skipped). Worker threads never
// terminate the process.
//
// This is real host concurrency for library users protecting actual
// data — unrelated to the simulator's modelled cores (ec/executor.h),
// which stay single-threaded and deterministic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ec {

/// Monotonic pool counters. Snapshot with ThreadPool::stats(); subtract
/// two snapshots to attribute activity to one window (max_queue_depth
/// is a high-water mark, so a difference keeps the later value).
struct ThreadPoolStats {
  std::uint64_t tasks_run = 0;       ///< bodies executed (throws included)
  std::uint64_t tasks_skipped = 0;   ///< cancelled after a sibling threw
  std::uint64_t steals = 0;          ///< tasks taken from another worker
  std::uint64_t parallel_fors = 0;   ///< parallel_for calls dispatched
  std::uint64_t max_queue_depth = 0; ///< deepest per-worker queue seen

  ThreadPoolStats operator-(const ThreadPoolStats& base) const {
    ThreadPoolStats d;
    d.tasks_run = tasks_run - base.tasks_run;
    d.tasks_skipped = tasks_skipped - base.tasks_skipped;
    d.steals = steals - base.steals;
    d.parallel_fors = parallel_fors - base.parallel_fors;
    d.max_queue_depth = max_queue_depth;  // high-water mark
    return d;
  }
};

class ThreadPool {
 public:
  /// `threads == 0` uses DefaultWorkerCount(). Workers start parked.
  explicit ThreadPool(std::size_t threads = 0);

  /// Graceful shutdown: drains any queued tasks, then joins every
  /// worker. Must not race with an in-flight parallel_for.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Run body(i) for every i in [0, jobs) on the pool and block until
  /// all of them finished. Jobs are dealt round-robin to the worker
  /// queues (a single-worker pool therefore runs them in index order);
  /// idle workers steal, so completion order is otherwise unspecified.
  /// The first exception a body throws is rethrown here after
  /// quiescence; tasks not yet started by then are skipped. Calling
  /// from inside a pool worker (nesting) falls back to running the loop
  /// inline on that worker, which cannot deadlock.
  void parallel_for(std::size_t jobs,
                    const std::function<void(std::size_t)>& body);

  /// Completion-hook variant: enqueue body(i) for every i in [0, jobs)
  /// and return immediately. `on_complete` runs exactly once, on the
  /// worker that finishes the last job, with the first exception any
  /// body threw (nullptr when all succeeded; remaining jobs of the call
  /// are skipped after a throw, as in parallel_for). The hook must not
  /// block on this pool (submitting more work via run_async is fine —
  /// it never blocks); long-lived services use it to overlap batches
  /// instead of parking a thread per parallel_for. jobs == 0 invokes
  /// the hook inline on the caller.
  void run_async(std::size_t jobs, std::function<void(std::size_t)> body,
                 std::function<void(std::exception_ptr)> on_complete);

  /// Aggregated counters since construction (relaxed reads: exact once
  /// the pool is quiescent, approximate while work is in flight).
  ThreadPoolStats stats() const;

  /// Hardware concurrency as std::size_t, with the unspecified
  /// `hardware_concurrency() == 0` case pinned to 1 explicitly.
  static std::size_t DefaultWorkerCount();

  /// Process-wide lazily-constructed pool (DefaultWorkerCount workers)
  /// shared by ParallelEncode/ParallelDecode and the bench harnesses.
  static ThreadPool& Shared();

 private:
  struct ForState;
  struct Task {
    ForState* state = nullptr;
    std::size_t index = 0;
  };
  struct Worker;

  void WorkerLoop(std::size_t id);
  bool TryPop(std::size_t id, Task& out);
  void Execute(std::size_t id, const Task& task);
  void Enqueue(ForState* state, std::size_t jobs);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  /// Tasks pushed but not yet popped, across all queues. Incremented
  /// before the push batch so sleeping workers can use it as the wake
  /// predicate without taking every queue lock.
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> parallel_fors_{0};
};

}  // namespace ec
