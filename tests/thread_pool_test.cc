#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

/// \file thread_pool_test.cc
/// The ThreadPool contract: every index runs exactly once, worker ids stay
/// in range, the pool is reusable across jobs, and the size-1 pool
/// degenerates to an inline loop — plus the task-queue mode (Post) that
/// the live repository's background seals run on: results delivered
/// through promises, concurrent posting, coexistence with ParallelFor, and
/// drain-on-destruction. These tests are part of the TSan CI job.

namespace ppq {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t /*worker*/, size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> by_worker(8);
  pool.ParallelFor(5000, [&](size_t worker, size_t /*i*/) {
    ASSERT_LT(worker, pool.size());
    by_worker[worker].fetch_add(1, std::memory_order_relaxed);
  });
  int total = 0;
  for (auto& c : by_worker) total += c.load();
  EXPECT_EQ(total, 5000);
}

TEST(ThreadPoolTest, PerWorkerScratchNeedsNoLocks) {
  // The (worker, index) signature exists so callers can keep per-worker
  // state: each worker accumulates into its own slot, no atomics needed.
  ThreadPool pool(4);
  const size_t n = 4096;
  std::vector<uint64_t> per_worker_sum(pool.size(), 0);
  pool.ParallelFor(n, [&](size_t worker, size_t i) {
    per_worker_sum[worker] += i;
  });
  const uint64_t total =
      std::accumulate(per_worker_sum.begin(), per_worker_sum.end(),
                      uint64_t{0});
  EXPECT_EQ(total, uint64_t{n} * (n - 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(97, [&](size_t, size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 97) << "round " << round;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(10, [&](size_t worker, size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, InlinePathDrainsBeforeRethrowingToo) {
  // The size-1 (inline) path must have the same drain-then-rethrow
  // semantics as the pooled path, so side effects don't depend on the
  // thread count.
  ThreadPool pool(1);
  int executed = 0;
  EXPECT_THROW(pool.ParallelFor(20,
                                [&](size_t, size_t i) {
                                  ++executed;
                                  if (i == 3) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  EXPECT_EQ(executed, 20);
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAfterDraining) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t, size_t i) {
                         executed.fetch_add(1, std::memory_order_relaxed);
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // Every index still ran (the pool drains instead of deadlocking).
  EXPECT_EQ(executed.load(), 100);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&](size_t, size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolSubmitTest, SubmitResolvesFutureWithTaskResult) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_background(), 3u);
  std::promise<int> promise;
  std::future<int> future = promise.get_future();
  pool.Post([&promise](size_t worker) {
    EXPECT_GT(worker, 0u);  // queued tasks run on background workers
    promise.set_value(41 + 1);
  });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolSubmitTest, SingleThreadPoolRunsSubmitInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_background(), 0u);
  const auto caller = std::this_thread::get_id();
  std::promise<std::thread::id> promise;
  std::future<std::thread::id> future = promise.get_future();
  pool.Post([&promise](size_t worker) {
    EXPECT_EQ(worker, 0u);
    promise.set_value(std::this_thread::get_id());
  });
  // No background workers: the task already ran, in the posting thread.
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), caller);
}

TEST(ThreadPoolSubmitTest, ManyProducersSubmitConcurrently) {
  ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 200;
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  std::vector<std::vector<std::promise<int>>> promises(kProducers);
  std::vector<std::vector<std::future<int>>> futures(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    promises[p].resize(kPerProducer);
    for (auto& promise : promises[p]) {
      futures[p].push_back(promise.get_future());
    }
  }
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.Post([&, p, i](size_t) {
          executed.fetch_add(1, std::memory_order_relaxed);
          promises[p][i].set_value(p * kPerProducer + i);
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(futures[p][i].get(), p * kPerProducer + i);
    }
  }
  EXPECT_EQ(executed.load(), kProducers * kPerProducer);
}

TEST(ThreadPoolSubmitTest, PostCoexistsWithParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> posted_done{0};
  // Queue tasks from a side thread while ParallelFor jobs run.
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      pool.Post([&](size_t) {
        posted_done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(64, [&](size_t, size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 64) << "round " << round;
  }
  producer.join();
  // Give the queue a synchronization point: destruction drains, but here
  // we assert the tasks also complete while the pool lives.
  while (posted_done.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  EXPECT_EQ(posted_done.load(), 100);
}

TEST(ThreadPoolSubmitTest, DestructionDrainsQueuedTasks) {
  std::vector<std::promise<int>> promises(500);
  std::vector<std::future<int>> futures;
  for (auto& promise : promises) futures.push_back(promise.get_future());
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Post([&executed, &promises, i](size_t) {
        executed.fetch_add(1, std::memory_order_relaxed);
        promises[i].set_value(i);
      });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(executed.load(), 500);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ASSERT_EQ(futures[i].get(), i);
  }
}

}  // namespace
}  // namespace ppq
