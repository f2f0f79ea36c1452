#ifndef PRISTE_COMMON_THREAD_POOL_H_
#define PRISTE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "priste/common/mutex.h"
#include "priste/common/thread_annotations.h"

namespace priste {

/// A fixed-size worker pool for coarse-grained task parallelism (repeated
/// experiment runs, per-trajectory sweeps).
///
/// Design notes:
///  * `ParallelFor` callers always participate in the loop themselves, so
///    nested parallel sections never deadlock — if every worker is busy, the
///    caller simply executes all iterations and the posted helper tasks
///    no-op once they finally run.
///  * Determinism is the caller's contract: iterations must write to
///    disjoint state, so results are independent of the thread count (see
///    thread_pool_test.cc).
///  * Lock discipline is machine-checked: the queue and shutdown flag are
///    PRISTE_GUARDED_BY(mu_), enforced by clang -Wthread-safety in CI.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 is valid and means "callers run
  /// everything inline".
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of live workers; 0 once Shutdown() has run.
  int num_threads() const PRISTE_EXCLUDES(mu_);

  /// Enqueues `fn` for execution on a worker thread. Returns false — and
  /// does not run or retain `fn` — if the pool has shut down; rejected
  /// submissions tick the `pool.tasks_rejected` counter.
  PRISTE_BLOCKING bool Submit(std::function<void()> fn) PRISTE_EXCLUDES(mu_);

  /// Stops accepting new work, lets workers drain the queued tasks, and
  /// joins them. Idempotent; the destructor calls it. Workers are joined
  /// OUTSIDE mu_ — joining under the lock would stall every concurrent
  /// Submit caller, exactly the `blocking-under-lock` shape the concurrency
  /// lint forbids.
  PRISTE_BLOCKING void Shutdown() PRISTE_EXCLUDES(mu_);

  /// The process-wide pool, sized by the PRISTE_THREADS environment variable
  /// (read once, at first use; default DefaultThreadCount()). Never
  /// destroyed — workers outlive main-exit teardown hazards.
  static ThreadPool& Shared();

  /// PRISTE_THREADS when set and >= 1, otherwise the hardware concurrency
  /// (minimum 1). Re-reads the environment on every call.
  static int DefaultThreadCount();

 private:
  void WorkerLoop() PRISTE_EXCLUDES(mu_);

  mutable Mutex mu_ PRISTE_LOCK_LEVEL(20);
  CondVar cv_;
  std::deque<std::function<void()>> queue_ PRISTE_GUARDED_BY(mu_);
  bool shutdown_ PRISTE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ PRISTE_GUARDED_BY(mu_);
};

/// Runs fn(0..n-1) with iterations distributed over `pool`'s workers plus
/// the calling thread. Blocks until every iteration completed. Iterations
/// must not throw and must write only disjoint per-index state. Safe to call
/// during/after Shutdown(): rejected helper submissions just leave all
/// iterations to the calling thread.
PRISTE_BLOCKING void ParallelFor(ThreadPool& pool, size_t n,
                                 const std::function<void(size_t)>& fn);

/// ParallelFor over the shared pool.
PRISTE_BLOCKING void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

}  // namespace priste

#endif  // PRISTE_COMMON_THREAD_POOL_H_
