#include "core/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/simd.h"
#include "core/query_eval.h"
#include "core/result_merge.h"
#include "obs/trace.h"

namespace ppq::core {
namespace {

constexpr int64_t kMaxTick = std::numeric_limits<Tick>::max();

/// The points of one pinned tail at \p tick, newest chunk first. Chain
/// ticks are non-increasing, so the walk stops at the first older chunk.
template <typename Fn>
void ForEachTailChunk(const ShardView& view, Tick tick, Fn fn) {
  for (const TailChunk* c = view.tail.get(); c != nullptr; c = c->prev.get()) {
    if (c->slice.tick < tick) break;
    if (c->slice.tick == tick) fn(c->slice);
  }
}

/// Tail points at \p tick inside the half-open \p box. Tail points are
/// raw device readings, so membership is decided on the position for
/// every mode (the deviation of a raw point is zero); in exact mode each
/// match counts as a verified candidate, mirroring the sealed side's
/// Table 4 accounting.
StrqResult TailMatches(const ShardView& view, Tick tick, const Window& box,
                       StrqMode mode) {
  StrqResult part;
  std::vector<uint8_t> mask;
  ForEachTailChunk(view, tick, [&](const TimeSlice& slice) {
    mask.resize(slice.size());
    simd::ContainsMask(slice.positions.data(), slice.size(), box.min_x,
                       box.min_y, box.max_x, box.max_y, mask.data());
    for (size_t i = 0; i < slice.size(); ++i) {
      if (!mask[i]) continue;
      if (mode == StrqMode::kExact) ++part.candidates_visited;
      part.ids.push_back(slice.ids[i]);
    }
  });
  return part;
}

/// Every raw tail point at \p tick, scored at its exact distance to \p q.
std::vector<Neighbor> TailNeighbors(const ShardView& view, Tick tick,
                                    const Point& q) {
  std::vector<Neighbor> out;
  std::vector<double> dist;
  ForEachTailChunk(view, tick, [&](const TimeSlice& slice) {
    dist.resize(slice.size());
    simd::Distances(slice.positions.data(), slice.size(), q, dist.data());
    for (size_t i = 0; i < slice.size(); ++i) {
      out.push_back({slice.ids[i], dist[i]});
    }
  });
  return out;
}

/// The grid cell of \p p as a half-open window.
Window CellWindow(const Point& p, double cell_size) {
  const eval::GridCell c = eval::CellOf(p, cell_size);
  return {c.min_x, c.min_y, c.max_x, c.max_y};
}

/// The raw position of (id, tick) in one pinned tail, or nullptr.
const Point* TailPointOf(const ShardView& view, TrajId id, Tick tick) {
  const Point* found = nullptr;
  ForEachTailChunk(view, tick, [&](const TimeSlice& slice) {
    for (size_t i = 0; found == nullptr && i < slice.size(); ++i) {
      if (slice.ids[i] == id) found = &slice.positions[i];
    }
  });
  return found;
}

}  // namespace

QueryService::Resolved QueryService::ResolveSnapshot(const ServingView& view) {
  SnapshotPtr snapshot = view.As<SummarySnapshot>();
  if (snapshot == nullptr) {
    throw std::invalid_argument(
        "QueryService: expected a non-null SummarySnapshot view");
  }
  return {{std::move(snapshot)}, nullptr};
}

QueryService::QueryService(SnapshotPtr snapshot, Options options)
    : QueryService(std::move(snapshot), std::move(options), &ResolveSnapshot) {}

QueryService::QueryService(ServingView view, Options options,
                           Resolver resolve)
    : options_(std::move(options)),
      resolve_(resolve),
      // Validated before any worker starts: a rejected view throws here.
      served_(MakeServed(std::move(view), 0)),
      // 0 workers requested means hardware concurrency.
      workers_(options_.num_threads != 0
                   ? options_.num_threads
                   : std::max(1u, std::thread::hardware_concurrency())),
      // The evaluator captures this; the dispatcher is declared last, so
      // it drains (and stops calling Evaluate) before any member dies.
      dispatcher_(workers_.size(), [this](const QueryRequest& request,
                                          size_t worker) {
        return Evaluate(request, workers_[worker]);
      }) {}

QueryService::ServedPtr QueryService::MakeServed(ServingView view,
                                                 uint64_t swaps) const {
  Resolved resolved = resolve_(view);
  std::vector<ShardViewPtr> views;
  size_t trajectories = 0;
  for (SnapshotPtr& seal : resolved.seals) {
    trajectories += seal->NumTrajectories();
    views.push_back(std::make_shared<const ShardView>(
        ShardView{std::move(seal), kMaxTick, nullptr, 0, swaps}));
  }
  if (options_.raw != nullptr && options_.raw->size() < trajectories) {
    throw std::invalid_argument(
        "QueryService: verification dataset has fewer trajectories than "
        "the view serves — it cannot be the dataset this summary was "
        "compressed from");
  }
  return std::make_shared<const ServedState>(ServedState{
      std::move(view), std::move(views), std::move(resolved.live), swaps});
}

void QueryService::UpdateView(ServingView view) {
  {
    // Stamp and publish as one step, so concurrent swaps publish their
    // counts in order. Workers only ever load served_: never blocked.
    MutexLock lock(swap_mu_);
    ServedPtr next = MakeServed(std::move(view), Served()->swaps + 1);
    std::atomic_store_explicit(&served_, std::move(next),
                               std::memory_order_release);
  }
  // Reclaim the retired views eagerly: sweep every worker's scratch (and
  // its pinned seals) instead of waiting for traffic to reach that
  // worker. A worker that re-tags concurrently just pins the NEW views,
  // which the sweep then harmlessly clears again.
  for (WorkerState& state : workers_) {
    MutexLock lock(state.mu);
    state.memos.clear();
    state.memo_seals.clear();
  }
}

QueryResponse QueryService::Evaluate(const QueryRequest& request,
                                     WorkerState& state) {
  QueryResponse response;
  response.kind = KindOf(request);

  // Owning-worker lock: uncontended except against UpdateView's sweep.
  MutexLock state_lock(state.mu);

  // Pin one view per shard for the whole evaluation: a sealed source's
  // views with the one load of served_, a live source's shard by shard.
  const ServedPtr served = Served();
  const LiveSource* live = served->live.get();
  std::vector<ShardViewPtr> live_views;
  for (size_t s = 0; live != nullptr && s < live->num_shards(); ++s) {
    live_views.push_back(live->ShardView(s));
  }
  const std::vector<ShardViewPtr>& views =
      live != nullptr ? live_views : served->views;
  const size_t num_shards = views.size();

  // Re-tag decode scratch per shard: it stays valid exactly as long as
  // that shard's seal does.
  state.memos.resize(num_shards);
  state.memo_seals.resize(num_shards);
  response.stats.seal_epoch = std::numeric_limits<uint64_t>::max();
  for (size_t s = 0; s < num_shards; ++s) {
    response.stats.seal_epoch =
        std::min(response.stats.seal_epoch, views[s]->seal_epoch);
    if (state.memo_seals[s] != views[s]->sealed) {
      state.memos[s].Clear();
      state.memo_seals[s] = views[s]->sealed;
    }
  }

  eval::StageNanos stages;
  const TrajectoryDataset* raw = options_.raw.get();
  const double cell_size = options_.cell_size;
  const auto reader = [&](size_t s) {
    return eval::CountingReader<eval::SnapshotReader>{
        eval::SnapshotReader{views[s]->sealed.get(), &state.memos[s]},
        &response.stats, &stages};
  };
  const auto merge = [&](auto merger, auto parts) {
    eval::StageTimer timer(&stages, ServeStage::kMerge);
    return merger(std::move(parts));
  };
  // Shard s's leg: its sealed part, plus the part `tail` scans from its
  // raw tail when it has one.
  const auto add_leg = [&](size_t s, auto sealed, auto tail, auto* parts) {
    parts->push_back(std::move(sealed));
    if (views[s]->tail == nullptr) return;
    PPQ_ZONE("eval.tail");
    eval::StageTimer timer(&stages, ServeStage::kTail);
    parts->push_back(tail(*views[s]));
  };
  const auto add_strq_leg = [&](size_t s, const QuerySpec& q, StrqMode mode,
                                std::vector<StrqResult>* parts) {
    const Window box = CellWindow(q.position, cell_size);
    add_leg(s, eval::Strq(reader(s), raw, cell_size, q, mode),
            [&](const ShardView& v) {
              return TailMatches(v, q.tick, box, mode);
            },
            parts);
  };

  const auto start = std::chrono::steady_clock::now();
  std::visit(
      Overloaded{
          [&](const StrqRequest& r) {
            std::vector<StrqResult> parts;
            for (size_t s = 0; s < num_shards; ++s) {
              add_strq_leg(s, r.query, r.mode, &parts);
            }
            response.result = merge(MergeStrq, std::move(parts));
          },
          [&](const WindowRequest& r) {
            const WindowSpec& w = r.window;
            std::vector<StrqResult> parts;
            for (size_t s = 0; s < num_shards; ++s) {
              add_leg(s,
                      eval::WindowQuery(reader(s), raw, w.window, w.tick,
                                        r.mode),
                      [&](const ShardView& v) {
                        return TailMatches(v, w.tick, w.window, r.mode);
                      },
                      &parts);
            }
            response.result = merge(MergeStrq, std::move(parts));
          },
          [&](const KnnRequest& r) {
            // Each sealed leg prunes against the k-th distance of the legs
            // merged so far. The merge is unchanged: a leg still returns
            // every neighbour that could displace one already held.
            std::vector<Neighbor> merged;
            for (size_t s = 0; s < num_shards; ++s) {
              const double bound =
                  r.k > 0 && merged.size() == r.k
                      ? merged.back().distance
                      : std::numeric_limits<double>::infinity();
              std::vector<std::vector<Neighbor>> parts;
              parts.push_back(std::move(merged));
              add_leg(s,
                      eval::NearestTrajectories(reader(s), r.query, r.k,
                                                bound),
                      [&](const ShardView& v) {
                        return TailNeighbors(v, r.query.tick, r.query.position);
                      },
                      &parts);
              merged = merge(
                  [&](auto p) { return MergeKnn(std::move(p), r.k); },
                  std::move(parts));
            }
            response.result = std::move(merged);
          },
          [&](const TpqRequest& r) {
            // Each matched id's forward path splits at its shard's cut:
            // the sealed prefix decodes as one span, the raw tail suffix
            // continues tick by tick. Spans are computed in int64_t, so no
            // caller tick can overflow them.
            const int64_t first = r.query.tick;
            const int64_t want = std::max(r.length, 0);
            std::vector<TpqResult> parts(num_shards);
            for (size_t s = 0; s < num_shards; ++s) {
              std::vector<StrqResult> base;
              add_strq_leg(s, r.query, r.mode, &base);
              const StrqResult matches = merge(MergeStrq, std::move(base));
              const int64_t cut = views[s]->sealed_through;
              const auto sealed_want = static_cast<size_t>(
                  std::clamp<int64_t>(cut - first + 1, 0, want));
              parts[s].candidates_visited = matches.candidates_visited;
              for (TrajId id : matches.ids) {
                std::vector<Point> path(static_cast<size_t>(want));
                size_t got = reader(s).ReconstructSpan(
                    id, r.query.tick, sealed_want, path.data());
                // The tail only extends a path that reached the cut intact.
                if (got == sealed_want && views[s]->tail != nullptr) {
                  eval::StageTimer timer(&stages, ServeStage::kTail);
                  for (int64_t t = first + static_cast<int64_t>(got);
                       got < path.size() && t <= kMaxTick; ++t, ++got) {
                    const Point* p =
                        TailPointOf(*views[s], id, static_cast<Tick>(t));
                    if (p == nullptr) break;  // not (yet) appended
                    path[got] = *p;
                  }
                }
                path.resize(got);
                parts[s].ids.push_back(id);
                parts[s].paths.push_back(std::move(path));
              }
            }
            response.result = merge(MergeTpq, std::move(parts));
          },
      },
      request);
  // Every k-NN candidate is visited exactly once, to rank its
  // reconstruction.
  response.stats.candidates_visited = std::visit(
      Overloaded{
          [&](const std::vector<Neighbor>&) {
            return response.stats.points_decoded;
          },
          [](const auto& result) { return result.candidates_visited; }},
      response.result);
  response.stats.eval_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  eval::FillStageMicros(stages, &response.stats);

  size_t scratch_points = 0;
  for (const DecodeMemo& memo : state.memos) {
    scratch_points += memo.TotalPoints();
  }
  if (scratch_points > options_.scratch_budget_points) {
    for (DecodeMemo& memo : state.memos) memo.Clear();
  }
  return response;
}

}  // namespace ppq::core
