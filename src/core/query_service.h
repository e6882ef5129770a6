#pragma once

#include <future>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "core/query_backend.h"
#include "core/query_dispatch.h"
#include "core/shard_view.h"

/// \file query_service.h
/// The serving backend: QueryService accepts the unified QueryRequest
/// vocabulary (STRQ / window / k-NN / TPQ, query_types.h) from any number
/// of caller threads, evaluates each request on its dispatcher's worker
/// threads, and resolves a std::future<QueryResponse> per request.
///
/// One evaluator serves every source. Each request pins one ShardView per
/// shard (shard_view.h): the sealed snapshot, the cut it covers, and the
/// raw tail past the cut. It runs one leg per shard — the eval templates
/// over the sealed snapshot, unioned with the tail scan when the shard
/// has a tail — and merges the legs with result_merge.h. One sealed
/// snapshot is a 1-shard source without a tail; a sealed repository is N
/// such shards; a live repository's shards carry tails. The constructor
/// here serves a SummarySnapshot; repo::ShardedQueryService and
/// repo::LiveQueryService are the named constructors for a sealed and a
/// live repository.
///
/// Thread-safety contract — the service is INTERNALLY synchronized:
///  - Submit / SubmitBatch / CancelPending / UpdateView and the accessors
///    are safe to call concurrently from any number of threads.
///  - Sealed sources are pinned with ONE atomic load of views built at
///    swap time, so a response never mixes shards of two swaps. A live
///    source is pinned one shard at a time (its shards roll
///    independently; the per-point disjointness of seal and tail keeps
///    the union exact whatever the interleaving).
///  - UpdateView swaps the served view atomically and never blocks
///    serving: every in-flight request finishes on the views it pinned.
///    Swaps are serialized among themselves, so the swap count they
///    publish never goes backwards.
///  - seal_epoch: a sealed source's views are stamped with the number of
///    UpdateView swaps applied; a live shard's view carries its seal
///    generation. A response reports the minimum over the views it
///    pinned.
///  - Workers keep per-shard DecodeMemo scratch tagged with the sealed
///    snapshot it indexes (holding a reference, so the tag can never
///    alias a recycled allocation): appends leave it intact, a roll
///    resets that shard's memo. UpdateView eagerly sweeps every idle
///    worker's scratch, so a retired seal's memory is reclaimed at swap
///    time.
///  - Exact-mode verification data is OWNED by the service via
///    shared_ptr (Options::raw) and validated against every sealed source
///    at construction and at every UpdateView.
///  - Destruction drains: every request already submitted is evaluated
///    and its future resolved before the destructor returns. To shed a
///    backlog instead, CancelPending() fails queued-but-unstarted
///    requests with StatusCode::kCancelled.

namespace ppq::core {

/// \brief Futures-based, internally synchronized query serving backend
/// over an atomically hot-swappable set of shard views.
class QueryService : public QueryBackend {
 public:
  struct Options {
    /// Dedicated serving workers; 0 = hardware concurrency. (The caller
    /// thread never evaluates — submission is asynchronous.)
    size_t num_threads = 0;
    /// Raw dataset for StrqMode::kExact verification of sealed points,
    /// owned by the service; ids are global, so one dataset serves every
    /// shard. May be null: exact mode then degenerates like the serial
    /// engine's (candidates counted, none verified). Tail points are raw
    /// already.
    std::shared_ptr<const TrajectoryDataset> raw;
    /// Evaluation grid cell size gc.
    double cell_size = 0.001;
    /// Per-worker decode-scratch budget across all shards, in points:
    /// when a worker's memoised prefixes exceed it the scratch is
    /// cleared, bounding resident memory at (num_threads * budget *
    /// sizeof(Point)).
    size_t scratch_budget_points = size_t{1} << 22;
  };

  /// \throws std::invalid_argument when \p snapshot is null or \p
  /// options.raw has fewer trajectories than the snapshot serves.
  QueryService(SnapshotPtr snapshot, Options options);

  /// Drains: blocks until every submitted request has resolved its
  /// future. Call CancelPending() first to shed the queue instead.
  ~QueryService() override = default;

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  std::future<QueryResponse> Submit(QueryRequest request) override {
    return dispatcher_.Submit(std::move(request));
  }

  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests) override {
    return dispatcher_.SubmitBatch(std::move(requests));
  }

  size_t CancelPending() override { return dispatcher_.CancelPending(); }

  /// \brief Hot-swap the served view (QueryBackend::UpdateView). \p view
  /// must hold the type this service was constructed with. Validates like
  /// the constructor; a rejected view leaves the served one unchanged.
  /// The calling thread then reclaims idle workers' stale decode scratch
  /// (waiting at most for each worker's current evaluation).
  void UpdateView(ServingView view) override;

  /// The currently served snapshot (null when this service was built by
  /// a named constructor over a repository).
  SnapshotPtr snapshot() const { return Served()->view.As<SummarySnapshot>(); }

  /// The number of UpdateView swaps applied.
  uint64_t seal_epoch() const { return Served()->swaps; }

  size_t num_threads() const override { return workers_.size(); }

 protected:
  /// What a served view resolves to: the per-shard seals of a sealed
  /// source, or a live source.
  struct Resolved {
    std::vector<SnapshotPtr> seals;
    std::shared_ptr<const LiveSource> live;
  };
  /// Resolves the one view type a constructor serves. \throws
  /// std::invalid_argument on a null view or another type.
  using Resolver = Resolved (*)(const ServingView& view);

  /// The named constructors' entry point.
  QueryService(ServingView view, Options options, Resolver resolve);

  /// The view as handed to the constructor or the last UpdateView.
  ServingView view() const { return Served()->view; }

 private:
  /// One swap's worth of served state, published with one atomic store.
  struct ServedState {
    ServingView view;
    /// A sealed source's views, built at swap time (empty when live).
    std::vector<ShardViewPtr> views;
    std::shared_ptr<const LiveSource> live;
    uint64_t swaps = 0;
  };
  using ServedPtr = std::shared_ptr<const ServedState>;

  /// Per-worker decode scratch: one memo per shard, each tagged by the
  /// sealed snapshot it indexes. The mutex is held by the owning worker
  /// for the duration of each evaluation (uncontended in steady state)
  /// and by UpdateView's reclamation sweep.
  struct WorkerState {
    Mutex mu;
    std::vector<DecodeMemo> memos PPQ_GUARDED_BY(mu);
    std::vector<SnapshotPtr> memo_seals PPQ_GUARDED_BY(mu);
  };

  static Resolved ResolveSnapshot(const ServingView& view);
  ServedPtr Served() const {
    return std::atomic_load_explicit(&served_, std::memory_order_acquire);
  }
  /// Resolve and validate \p view into the state a swap publishes.
  ServedPtr MakeServed(ServingView view, uint64_t swaps) const;
  QueryResponse Evaluate(const QueryRequest& request, WorkerState& state);

  Options options_;
  Resolver resolve_;
  /// Accessed only through std::atomic_load/atomic_store (the C++17
  /// atomic-shared_ptr interface), except at construction.
  ServedPtr served_;
  /// Serializes UpdateView's stamp-and-publish; serving never takes it.
  Mutex swap_mu_;
  std::vector<WorkerState> workers_;

  /// Queue + worker threads; declared last so it is destroyed FIRST — its
  /// drain-on-destroy evaluates against the still-alive members above.
  QueryDispatcher dispatcher_;
};

}  // namespace ppq::core
