#include "core/query_dispatch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

/// \file query_dispatch_test.cc
/// The request queue under contention: submitters (single and batched)
/// race a canceller, then the dispatcher is destroyed with work still
/// queued. Every future must resolve exactly once — evaluated or
/// cancelled, never both, never neither — and the queue-depth gauge must
/// read 0 once the queue has drained. Part of the TSan CI job.

namespace ppq::core {
namespace {

TEST(QueryDispatcherTest, SubmittersRaceCancelAndDestruction) {
  constexpr size_t kWorkers = 3;
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 60;
  std::atomic<size_t> evaluated{0};
  std::atomic<size_t> cancelled{0};
  std::vector<std::vector<std::future<QueryResponse>>> futures(kSubmitters);
  {
    QueryDispatcher dispatcher(
        kWorkers, [&](const QueryRequest& request, size_t worker) {
          EXPECT_LT(worker, kWorkers);
          // Slow enough for a backlog to build behind the workers.
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          evaluated.fetch_add(1, std::memory_order_relaxed);
          QueryResponse response;
          response.kind = KindOf(request);
          return response;
        });
    std::atomic<bool> submitting{true};
    std::thread canceller([&] {
      while (submitting.load(std::memory_order_relaxed)) {
        cancelled.fetch_add(dispatcher.CancelPending(),
                            std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (int round = 0; round < kRounds; ++round) {
          if (round % 2 == 0) {
            futures[s].push_back(dispatcher.Submit(StrqRequest{}));
          } else {
            for (auto& future : dispatcher.SubmitBatch(
                     {KnnRequest{}, TpqRequest{}, WindowRequest{}})) {
              futures[s].push_back(std::move(future));
            }
          }
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    submitting.store(false, std::memory_order_relaxed);
    canceller.join();
  }  // destroyed with requests still queued: they drain, not vanish

  size_t submitted = 0;
  size_t ok = 0;
  size_t failed = 0;
  for (auto& list : futures) {
    for (auto& future : list) {
      ++submitted;
      ASSERT_TRUE(future.valid());
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      const QueryResponse response = future.get();
      if (response.ok()) {
        ++ok;
      } else {
        EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
        ++failed;
      }
    }
  }
  EXPECT_EQ(submitted, size_t{kSubmitters} * (kRounds / 2) * 4);
  EXPECT_EQ(ok, evaluated.load());
  EXPECT_EQ(failed, cancelled.load());
  EXPECT_EQ(evaluated.load() + cancelled.load(), submitted);
  EXPECT_EQ(
      obs::Registry::Default().GetGauge("ppq_serve_queue_depth")->Value(), 0);
}

}  // namespace
}  // namespace ppq::core
