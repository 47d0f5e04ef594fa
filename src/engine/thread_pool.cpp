#include "engine/thread_pool.h"

namespace mcmc::engine {

ThreadPool::ThreadPool(int total_threads)
    : total_threads_(total_threads < 1 ? 1 : total_threads) {
  workers_.reserve(static_cast<std::size_t>(total_threads_ - 1));
  for (int i = 1; i < total_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Job::work() {
  for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
    // After the first failure the batch is poisoned: remaining indices
    // are still claimed and counted (so `remaining` reaches zero and the
    // submitter wakes) but their tasks never run — parallel_for rethrows
    // the first exception, so their results could never be observed.
    if (!failed.load(std::memory_order_acquire)) {
      try {
        (*fn)(i);
      } catch (...) {
        {
          util::MutexLock lock(err_mu);
          if (!err) err = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
      }
    }
    remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      util::MutexLock lock(mu_);
      // job_ may already be null again if the batch drained before this
      // worker woke; in that case keep waiting for the next epoch.
      while (!stop_ && !(job_ != nullptr && epoch_ != seen_epoch)) {
        work_cv_.wait(mu_);
      }
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    job->work();
    // Taking mu_ before notifying orders this worker's final
    // remaining-decrement after any waiter's predicate check, so the
    // wakeup cannot be lost.
    { util::MutexLock lock(mu_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  util::MutexLock submit_lock(submit_mu_);

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->remaining.store(n, std::memory_order_relaxed);

  {
    util::MutexLock lock(mu_);
    job_ = job;
    ++epoch_;
  }
  work_cv_.notify_all();

  job->work();  // the submitting thread participates

  {
    util::MutexLock lock(mu_);
    while (job->remaining.load(std::memory_order_acquire) != 0) {
      done_cv_.wait(mu_);
    }
    job_ = nullptr;
  }

  std::exception_ptr err;
  {
    util::MutexLock lock(job->err_mu);
    err = job->err;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace mcmc::engine
