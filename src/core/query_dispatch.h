#pragma once

#include <array>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "core/query_types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file query_dispatch.h
/// The request queue of the serving backend (core::QueryService): one
/// pending deque under one lock, drained by the dispatcher's own worker
/// threads, with cancellation of queued-but-unstarted requests and
/// drain-on-destruction. Keeping it apart from the evaluator keeps the
/// subtle parts — the cancel race, the destruction ordering, promise
/// exception delivery — in one place.
///
/// Thread-safety contract: Submit / SubmitBatch / CancelPending are safe
/// from any number of threads. Each queued request is evaluated exactly
/// once, on a dispatcher thread (never on a submitter thread), and the
/// evaluator learns which worker runs it so it can keep per-worker
/// scratch. Destruction drains: every submitted future resolves before
/// the destructor returns.

namespace ppq::core {

/// Record one response's stage breakdown into the per-stage serve
/// histograms (`ppq_serve_<stage>_micros`) and the whole-evaluation one,
/// and its scan work into `ppq_serve_cells_decoded_total`.
/// Called once per request by the dispatcher (the only site, so the
/// registry view and the per-response QueryStats cannot double-count).
inline void ObserveServeStages(const QueryStats& stats) {
  // Resolved from the default registry once; the last slot is eval.
  static const std::array<obs::Histogram*, kNumServeStages + 1> hists = [] {
    std::array<obs::Histogram*, kNumServeStages + 1> h{};
    obs::Registry& registry = obs::Registry::Default();
    for (size_t i = 0; i < kNumServeStages; ++i) {
      h[i] = registry.GetHistogram(std::string("ppq_serve_") +
                                   kServeStageNames[i] + "_micros");
    }
    h[kNumServeStages] = registry.GetHistogram("ppq_serve_eval_micros");
    return h;
  }();
  for (size_t i = 0; i < kNumServeStages; ++i) {
    hists[i]->Observe(stats.stage_micros[i]);
  }
  hists[kNumServeStages]->Observe(stats.eval_micros);
  static obs::Counter* const cells =
      obs::Registry::Default().GetCounter("ppq_serve_cells_decoded_total");
  cells->Increment(stats.cells_decoded);
}

/// \brief Internally synchronized request queue drained by a fixed set of
/// worker threads.
class QueryDispatcher {
 public:
  /// Evaluates one request on worker `worker` (in [0, num_workers)).
  using Evaluator =
      std::function<QueryResponse(const QueryRequest& request, size_t worker)>;

  /// \param num_workers evaluation threads (resolved, nonzero).
  QueryDispatcher(size_t num_workers, Evaluator evaluate)
      : evaluate_(std::move(evaluate)) {
    threads_.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  /// Drains the queue, then joins the workers.
  ~QueryDispatcher() {
    {
      MutexLock lock(queue_mu_);
      stop_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& thread : threads_) thread.join();
  }

  QueryDispatcher(const QueryDispatcher&) = delete;
  QueryDispatcher& operator=(const QueryDispatcher&) = delete;

  /// \brief Queue one request; the future resolves when a worker has
  /// evaluated it (or it was cancelled).
  std::future<QueryResponse> Submit(QueryRequest request)
      PPQ_EXCLUDES(queue_mu_) {
    return std::move(SubmitBatch({std::move(request)}).front());
  }

  /// \brief Queue a batch under one lock; futures[i] answers requests[i].
  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests) PPQ_EXCLUDES(queue_mu_) {
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(requests.size());
    {
      MutexLock lock(queue_mu_);
      const auto enqueued = std::chrono::steady_clock::now();
      for (QueryRequest& request : requests) {
        pending_.push_back({std::move(request), {}, enqueued});
        futures.push_back(pending_.back().promise.get_future());
      }
      queue_depth_->Set(static_cast<int64_t>(pending_.size()));
    }
    for (size_t i = 0; i < futures.size() && i < threads_.size(); ++i) {
      wake_.NotifyOne();
    }
    return futures;
  }

  /// \brief Fail every queued-but-unstarted request with
  /// StatusCode::kCancelled; returns the number cancelled.
  size_t CancelPending() PPQ_EXCLUDES(queue_mu_) {
    std::deque<Pending> cancelled;
    {
      MutexLock lock(queue_mu_);
      cancelled.swap(pending_);
      queue_depth_->Set(0);
    }
    for (Pending& pending : cancelled) {
      QueryResponse response;
      response.kind = KindOf(pending.request);
      response.status =
          Status::Cancelled("request cancelled before evaluation started");
      pending.promise.set_value(std::move(response));
    }
    return cancelled.size();
  }

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    /// Submission time, for the queue-wait stage of the response.
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Pop requests until the queue is empty and the dispatcher stopping:
  /// stop_ is checked only once the queue is empty, so destruction
  /// drains every request already submitted.
  void WorkerLoop(size_t worker) PPQ_EXCLUDES(queue_mu_) {
    MutexLock lock(queue_mu_);
    for (;;) {
      while (!stop_ && pending_.empty()) wake_.Wait(queue_mu_);
      if (pending_.empty()) return;
      Pending pending = std::move(pending_.front());
      pending_.pop_front();
      queue_depth_->Set(static_cast<int64_t>(pending_.size()));
      lock.Unlock();
      const uint64_t queue_micros = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - pending.enqueued)
              .count());
      try {
        PPQ_ZONE("serve.evaluate");
        QueryResponse response = evaluate_(pending.request, worker);
        // Queue wait is the dispatcher's stage, unseen by the evaluator.
        response.stats.queue_micros = queue_micros;
        response.stats.stage_micros[static_cast<size_t>(ServeStage::kQueue)] =
            queue_micros;
        ObserveServeStages(response.stats);
        pending.promise.set_value(std::move(response));
      } catch (...) {
        pending.promise.set_exception(std::current_exception());
      }
      lock.Lock();
    }
  }

  Evaluator evaluate_;
  /// Requests waiting for a worker, updated whenever the queue changes:
  /// the back-pressure signal for queue-wait regressions.
  obs::Gauge* queue_depth_ =
      obs::Registry::Default().GetGauge("ppq_serve_queue_depth");

  Mutex queue_mu_;
  CondVar wake_;  ///< workers wait here for a request or for stop_
  std::deque<Pending> pending_ PPQ_GUARDED_BY(queue_mu_);
  bool stop_ PPQ_GUARDED_BY(queue_mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace ppq::core
