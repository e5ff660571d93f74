#ifndef PROBE_UTIL_THREAD_POOL_H_
#define PROBE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file
/// A fixed-size thread pool for the parallel query paths.
///
/// The paper reduces every spatial retrieval to merges over *disjoint*
/// z intervals (Sections 3.3 and 4), and disjoint intervals can be worked
/// on independently. This pool is the execution substrate: a plain
/// shared-queue design (no work stealing — partition counts are small and
/// chosen by the caller, so a single queue is never contended enough to
/// matter) with a futures API for irregular tasks and ParallelFor for
/// fixed fan-out. The calling thread always participates, so a pool of
/// `threads` workers runs `threads + 1` lanes and `ThreadPool(0)` degrades
/// gracefully to serial execution on the caller.

namespace probe::obs {
struct ThreadPoolMetrics;
}  // namespace probe::obs

namespace probe::util {

/// Fixed-size shared-queue thread pool.
///
/// Task submission and ParallelFor are thread-safe. Destruction drains the
/// queue: already-submitted tasks run to completion before the workers
/// exit.
class ThreadPool {
 public:
  /// Spawns `threads` workers. 0 is allowed: every call then runs inline
  /// on the calling thread (useful as the serial baseline of a sweep).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (not counting the calling thread).
  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Number of parallel lanes a caller-blocking operation effectively has:
  /// the workers plus the calling thread itself.
  int lanes() const { return thread_count() + 1; }

  /// Hardware concurrency with a sane floor (std::thread reports 0 when it
  /// cannot tell).
  static int DefaultThreads();

  /// Publishes queue depth, task count, and enqueue-to-completion latency
  /// to `metrics` (e.g. obs::ThreadPoolMetrics::Default()). Opt-in: with
  /// no metrics attached — the default — submission is untouched. The
  /// pointer must outlive the pool; nullptr detaches. The pointer is
  /// atomic, so enabling while submissions are in flight is safe (tasks
  /// already wrapped keep their metrics; unwrapped ones stay unwrapped).
  void EnableMetrics(obs::ThreadPoolMetrics* metrics) {
    metrics_.store(metrics, std::memory_order_release);
  }

  /// Enqueues `fn` and returns a future for its result. The future also
  /// carries any exception `fn` throws.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Runs `fn(i)` for every i in [0, n), spread across the workers and the
  /// calling thread, and blocks until all calls have returned. Iterations
  /// are independent tasks: `fn` must be safe to call concurrently with
  /// itself. The first exception thrown by any iteration is rethrown on
  /// the caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Graceful shutdown: drain, then join, bounded by `deadline`. Waits for
  /// queued and in-flight tasks to finish; when the deadline passes first,
  /// tasks still *queued* are discarded (their futures report
  /// broken_promise) and only in-flight ones are awaited — so stopping a
  /// server is bounded by its longest single task, never by queue length.
  /// Tasks submitted after shutdown begins run inline on the submitting
  /// thread (ParallelFor likewise degrades to serial). Idempotent; returns
  /// true iff everything queued at shutdown time completed.
  bool Shutdown(std::chrono::milliseconds deadline);

 private:
  void Enqueue(std::function<void()> task);

  // Pops queued tasks until stopping_. Deliberately the ONLY place queue
  // tasks are popped: a ParallelFor caller drains its own batch via the
  // shared iteration counter and never executes foreign queue tasks, so a
  // lane that blocks inside fn (e.g. a shard's Apply waiting, as a
  // group-commit follower, on another thread's fsync) can never have
  // picked up an unrelated task that waits, in turn, on that lane — a
  // caller-drain helper here would make that deadlock possible.
  void WorkerLoop();

  // Completion bookkeeping for WorkerLoop: decrements in_flight_ and
  // wakes Shutdown's drain wait at idle.
  void FinishTask();

  // Lock hierarchy: mutex_ is a leaf — no other lock in the system is
  // acquired while it is held (tasks run outside it).
  Mutex mutex_;
  CondVar cv_;
  // Signalled when the pool goes idle (empty queue, nothing in flight);
  // Shutdown's drain wait sleeps on it.
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ PROBE_GUARDED_BY(mutex_);
  bool stopping_ PROBE_GUARDED_BY(mutex_) = false;
  bool draining_ PROBE_GUARDED_BY(mutex_) = false;
  size_t in_flight_ PROBE_GUARDED_BY(mutex_) = 0;
  // Written only in the constructor and (after every worker joined) in
  // Shutdown; workers never touch it, so it needs no guard.
  std::vector<std::thread> workers_;
  std::atomic<obs::ThreadPoolMetrics*> metrics_{nullptr};
};

}  // namespace probe::util

#endif  // PROBE_UTIL_THREAD_POOL_H_
