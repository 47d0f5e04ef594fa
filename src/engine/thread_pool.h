// Shared-counter thread pool for batch verdict evaluation.
//
// The pool owns `total_threads - 1` worker threads; the thread calling
// `parallel_for` participates as the remaining worker, so a pool built
// with one thread runs everything inline (no spawned threads, fully
// deterministic scheduling).  Each `parallel_for` publishes one Job, and
// every participant claims the next unclaimed index from the Job's
// shared counter until none is left.  Every batch knows its whole index
// range up front and holds at most a few thousand tasks — a verdict
// batch's program runs (one analysis, its masks, and the searches of
// its tests) or ranges of a fingerprint pass, microseconds to
// milliseconds each — so claiming one index at a time balances the load.
//
// Lock discipline (compile-time checked, see util/thread_annotations.h):
// `mu_` guards the job hand-off state (job_, epoch_, stop_); a Job's
// first captured exception is guarded by err_mu.  `next`, `remaining`
// and `failed` are atomics outside any lock.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcmc::engine {

class ThreadPool {
 public:
  /// `total_threads` counts the caller of `parallel_for`; values below 1
  /// are clamped to 1 (inline execution, no worker threads).
  explicit ThreadPool(int total_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count, including the calling thread.
  [[nodiscard]] int num_threads() const { return total_threads_; }

  /// Runs `fn(i)` once for every `i` in `[0, n)` and blocks until all
  /// complete.  Tasks must be independent; the assignment of indices to
  /// threads is unspecified.  The first exception thrown by any task is
  /// rethrown here after the batch drains; once a task has thrown, the
  /// batch fails as a unit — indices not yet started are abandoned
  /// (claimed and counted, never run), so a poisoned batch finishes
  /// promptly instead of grinding through work whose result will be
  /// discarded.  The pool itself stays fully usable for subsequent
  /// batches.  Not reentrant: one `parallel_for` at a time per pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// One batch of work shared between the participating threads.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    // The next unclaimed index, and the count of indices not yet done.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> failed{false};  // set with the first captured error
    util::Mutex err_mu;
    std::exception_ptr err GUARDED_BY(err_mu);

    /// Claims and runs indices until every index has been claimed.
    void work();
  };

  void worker_loop();

  int total_threads_;
  std::vector<std::thread> workers_;  // immutable after construction

  util::Mutex mu_;
  util::CondVar work_cv_;   // workers wait here for a new job
  util::CondVar done_cv_;   // parallel_for waits here for drain
  std::shared_ptr<Job> job_ GUARDED_BY(mu_);  // current job, null when idle
  std::uint64_t epoch_ GUARDED_BY(mu_) = 0;  // bumped per job, wakes workers
  bool stop_ GUARDED_BY(mu_) = false;
  util::Mutex submit_mu_;   // serializes parallel_for callers
};

/// Runs fn(begin, end) over [0, n) split into at most
/// pool.num_threads() x 4 contiguous tasks (inline for one thread or
/// one item).
template <typename Fn>
void parallel_ranges(ThreadPool& pool, std::size_t n, const Fn& fn) {
  const auto threads = static_cast<std::size_t>(pool.num_threads());
  const std::size_t tasks = threads > 1 && n > 1 ? std::min(n, threads * 4) : 1;
  const auto range = [&](std::size_t r) {
    fn(n * r / tasks, n * (r + 1) / tasks);
  };
  if (tasks > 1) {
    pool.parallel_for(tasks, range);
  } else {
    range(0);
  }
}

}  // namespace mcmc::engine
