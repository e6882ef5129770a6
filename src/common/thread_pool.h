#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

/// \file thread_pool.h
/// A small reusable worker pool built for batched query serving, with two
/// job shapes over one set of persistent workers:
///
///  - ParallelFor: fans a contiguous index range across the workers with
///    dynamic (work-stealing-counter) load balancing. The caller
///    participates as worker 0, so a pool of size N uses N-1 background
///    threads and a pool of size 1 degenerates to an inline loop with zero
///    synchronization — serial and parallel runs share one code path.
///  - Post: enqueue one task for asynchronous execution on a background
///    worker (the live repository's background seals run this way). Many
///    producer threads may Post concurrently; the pool drains. On a pool
///    of size 1 (no background workers) the task runs inline in the
///    calling thread — serialized against other inline work, so two
///    concurrent posters never both execute as worker 0 — and code
///    written against Post degenerates to synchronous execution instead
///    of deadlocking. (Corollary: on a size-1 pool, do not Post from
///    inside a task or ParallelFor callback; the inline serialization
///    would self-deadlock.)
///
/// Thread-safety contract: ParallelFor is NOT reentrant and must not be
/// called from two threads at once (one executor batch at a time). Post
/// IS safe to call from any number of threads concurrently,
/// including while a ParallelFor is in flight (workers prefer the
/// ParallelFor job, then drain the task queue). The callback receives
/// (worker, index) / (worker) with worker < size(), letting callers
/// maintain per-worker scratch without locks. Indices are each executed
/// exactly once; completion of ParallelFor happens-after every callback.
/// Destruction drains: tasks already Posted run to completion before the
/// workers join — but no new Post/ParallelFor may race with the
/// destructor.
///
/// The lock discipline is machine-checked: every guarded field carries
/// PPQ_GUARDED_BY(mu_) and `clang -Wthread-safety` proves each access
/// holds the lock (see common/thread_annotations.h).

namespace ppq {

/// \brief Fixed-size pool of persistent workers driving ParallelFor jobs.
class ThreadPool {
 public:
  using Task = std::function<void(size_t worker, size_t index)>;
  /// A single queued task: receives the id of the worker running it.
  using PostedTask = std::function<void(size_t worker)>;

  /// \param num_threads total workers including the caller; 0 means
  ///        std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0) {
    if (num_threads == 0) {
      num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    num_threads_ = num_threads;
    workers_.reserve(num_threads - 1);
    for (size_t w = 1; w < num_threads; ++w) {
      workers_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    wake_cv_.NotifyAll();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return num_threads_; }
  /// Background workers available to Post (0 for a pool of size 1,
  /// whose queued tasks run inline in the posting thread).
  size_t num_background() const { return workers_.size(); }

  /// \brief Enqueue \p task for asynchronous execution on a background
  /// worker. Safe to call from any thread, any number of threads at once.
  /// With no background workers (pool size 1) the task runs inline before
  /// Post returns. Tasks posted before destruction are guaranteed to run.
  /// Posted tasks must not throw (there is nowhere to deliver the
  /// exception).
  void Post(PostedTask task) PPQ_EXCLUDES(mu_, inline_mu_) {
    if (workers_.empty()) {
      // Serialized: concurrent posters must not both run as worker 0
      // (callers keep per-worker scratch keyed by the id).
      MutexLock lock(inline_mu_);
      task(0);
      return;
    }
    {
      MutexLock lock(mu_);
      queue_.push_back(std::move(task));
    }
    wake_cv_.NotifyOne();
  }

  /// Run fn(worker, i) for every i in [0, count), spread over all workers.
  /// Blocks until every index has been executed. If any callback throws,
  /// the remaining indices still run and the first exception is rethrown
  /// here.
  void ParallelFor(size_t count, const Task& fn) PPQ_EXCLUDES(mu_, inline_mu_) {
    if (count == 0) return;
    if (workers_.empty()) {
      // Inline path on a size-1 pool: serialize with inline Post
      // tasks so worker 0 is never two threads at once.
      MutexLock inline_lock(inline_mu_);
      RunInline(count, fn);
      return;
    }
    if (count == 1) {
      // Same drain-then-rethrow semantics as the pooled path so side
      // effects don't depend on the thread count. (With background
      // workers present, queued tasks run as worker >= 1 and cannot
      // collide with this inline worker 0.)
      RunInline(count, fn);
      return;
    }
    {
      MutexLock lock(mu_);
      job_ = &fn;
      job_count_ = count;
      items_done_ = 0;
      first_error_ = nullptr;
      next_.store(0, std::memory_order_relaxed);
      ++generation_;
    }
    wake_cv_.NotifyAll();
    RunJob(&fn, count, /*worker=*/0);
    MutexLock lock(mu_);
    while (!(items_done_ == job_count_ && runners_ == 0)) {
      done_cv_.Wait(mu_);
    }
    if (first_error_ != nullptr) {
      std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      lock.Unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  /// The no-background-workers / single-index loop: drain every index,
  /// rethrow the first error. Touches no guarded state.
  static void RunInline(size_t count, const Task& fn) {
    std::exception_ptr first_error;
    for (size_t i = 0; i < count; ++i) {
      try {
        fn(0, i);
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  void WorkerLoop(size_t worker) PPQ_EXCLUDES(mu_) {
    uint64_t seen_generation = 0;
    MutexLock lock(mu_);
    for (;;) {
      while (!(stop_ || generation_ != seen_generation || !queue_.empty())) {
        wake_cv_.Wait(mu_);
      }
      if (generation_ != seen_generation) {
        seen_generation = generation_;
        const Task* job = job_;
        const size_t count = job_count_;
        if (job == nullptr) continue;  // job already drained before we woke
        ++runners_;
        lock.Unlock();
        RunJob(job, count, worker);
        lock.Lock();
        if (--runners_ == 0) done_cv_.NotifyAll();
        continue;
      }
      if (!queue_.empty()) {
        PostedTask task = std::move(queue_.front());
        queue_.pop_front();
        lock.Unlock();
        task(worker);
        lock.Lock();
        continue;
      }
      // stop_ is checked only after the queue is empty, so destruction
      // drains every task already posted.
      if (stop_) return;
    }
  }

  void RunJob(const Task* job, size_t count, size_t worker)
      PPQ_EXCLUDES(mu_) {
    for (;;) {
      const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        (*job)(worker, i);
      } catch (...) {
        MutexLock lock(mu_);
        if (first_error_ == nullptr) first_error_ = std::current_exception();
      }
      MutexLock lock(mu_);
      if (++items_done_ == count) {
        job_ = nullptr;  // late wakers skip straight back to waiting
        done_cv_.NotifyAll();
      }
    }
  }

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  /// Serializes worker-0 execution on a pool with no background workers
  /// (inline Post vs. each other and vs. inline ParallelFor).
  Mutex inline_mu_;
  Mutex mu_;
  CondVar wake_cv_;  ///< workers wait here for a job
  CondVar done_cv_;  ///< ParallelFor waits here for drain
  const Task* job_ PPQ_GUARDED_BY(mu_) = nullptr;
  size_t job_count_ PPQ_GUARDED_BY(mu_) = 0;
  size_t items_done_ PPQ_GUARDED_BY(mu_) = 0;
  size_t runners_ PPQ_GUARDED_BY(mu_) = 0;
  uint64_t generation_ PPQ_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ PPQ_GUARDED_BY(mu_) = nullptr;
  std::deque<PostedTask> queue_ PPQ_GUARDED_BY(mu_);  ///< Post tasks
  bool stop_ PPQ_GUARDED_BY(mu_) = false;
  /// Atomic so index claiming stays lock-free on the hot path.
  std::atomic<size_t> next_{0};
};

}  // namespace ppq
