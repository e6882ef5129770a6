#include "repo/live_repository.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "repo/live_query_service.h"
#include "repo/sharded_query_service.h"
#include "tests/test_util.h"

/// \file live_repository_test.cc
/// The ingest-while-serving tentpole's contract. The load-bearing oracle:
/// StrqMode::kExact equals ground truth over the raw data (local-search
/// recall 1, verification precision 1 — window_knn_test proves it for the
/// sealed path, and tail points are raw, where all modes coincide), and
/// appends only ever add ticks NEWER than the frontier — so for any query
/// tick at or behind the frontier, ground truth over the FULL dataset is
/// the exact oracle even mid-ingest, whichever side of a watermark roll
/// or in-flight background seal each point currently sits on. That is the
/// staleness bound made testable: every response equals the oracle over
/// every point appended before it, at every roll/seal boundary.
///
/// Around it: watermark rolls (tick-span and point-count) trip
/// deterministically; appends divert to the pending queue during a slow
/// background seal and drain losslessly; per-shard tick monotonicity is
/// enforced per batch; the sealed snapshot after RollAll+Quiesce answers
/// byte-identically to the live union (tails empty); and concurrent
/// appenders racing queries stay exact (TSan CI job).

namespace ppq::repo {
namespace {

using core::QueryEngine;
using core::QueryResponse;
using core::QuerySpec;
using core::SampleQueries;
using core::StrqMode;
using core::StrqRequest;
using core::WindowRequest;
using core::WindowSpec;

constexpr StrqMode kAllModes[] = {StrqMode::kApproximate,
                                  StrqMode::kLocalSearch, StrqMode::kExact};

TrajectoryDataset SmallDataset(uint64_t seed = 77, int trajectories = 40) {
  return test::MakePortoDataset({trajectories, 50, 15, 50, seed});
}

LiveRepository::CompressorFactory PpqAFactory() {
  return [](uint32_t /*shard*/) {
    return std::make_unique<core::PpqTrajectory>(core::MakePpqA());
  };
}

double CellSize() { return core::PpqOptions{}.tpi.pi.cell_size; }

/// Append the whole dataset tick by tick (the single-producer shape).
void IngestAll(LiveRepository& live, const TrajectoryDataset& data) {
  for (Tick t = data.MinTick(); t < data.MaxTick(); ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live.Append(batch).ok());
    }
  }
}

std::vector<TrajId> SortedIds(std::vector<TrajId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// -------------------------------------------------------------------------
// Construction and batch validation
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, RejectsInvalidConstruction) {
  LiveRepository::Options zero;
  zero.num_shards = 0;
  EXPECT_THROW(LiveRepository(PpqAFactory(), zero), std::invalid_argument);

  LiveRepository::Options options;
  options.num_shards = 2;
  EXPECT_THROW(LiveRepository([](uint32_t) {
                 return std::unique_ptr<core::Compressor>();
               },
                              options),
               std::invalid_argument);
}

TEST(LiveRepositoryTest, AppendValidatesBatchAndTickMonotonicity) {
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  LiveRepository live(PpqAFactory(), options);

  PointBatch mismatched(5);
  mismatched.ids.push_back(7);  // positions left empty
  EXPECT_FALSE(live.Append(mismatched).ok());

  PointBatch t10(10);
  t10.Add(1, Point{-8.6, 41.1});
  EXPECT_TRUE(live.Append(t10).ok());

  PointBatch t12(12);
  t12.Add(1, Point{-8.61, 41.11});
  EXPECT_TRUE(live.Append(t12).ok());

  // Same tick as staging: merges.
  PointBatch t12b(12);
  t12b.Add(2, Point{-8.62, 41.12});
  EXPECT_TRUE(live.Append(t12b).ok());

  // Behind the staging tick: rejected.
  PointBatch t11(11);
  t11.Add(3, Point{-8.63, 41.13});
  const Status regression = live.Append(t11);
  EXPECT_EQ(regression.code(), StatusCode::kInvalidArgument);

  // Advance to 13 (flushes 12), then 12 again: already flushed.
  PointBatch t13(13);
  t13.Add(1, Point{-8.64, 41.14});
  EXPECT_TRUE(live.Append(t13).ok());
  PointBatch t12c(12);
  t12c.Add(4, Point{-8.65, 41.15});
  EXPECT_EQ(live.Append(t12c).code(), StatusCode::kInvalidArgument);

  // The rejected batches left no trace: only the accepted points count.
  EXPECT_EQ(live.TotalPointsAppended(), 4u);
}

// -------------------------------------------------------------------------
// The queryable tail (before any seal exists)
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, TailServesEveryPointBeforeAnySeal) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 0;   // never roll:
  options.watermark_points = 0;  // the whole stream lives in the tail
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);
  IngestAll(*live, *data);

  EXPECT_EQ(live->MinSealEpoch(), 0u);
  size_t tail_points = 0;
  for (size_t s = 0; s < live->num_shards(); ++s) {
    tail_points += live->ShardView(s)->tail_points;
  }
  EXPECT_EQ(tail_points, live->TotalPointsAppended());

  LiveQueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  LiveQueryService service(live, serve);

  // Tail points are raw: all three modes coincide AND equal ground truth.
  Rng rng(5);
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    const auto truth = QueryEngine::GroundTruth(*data, q, CellSize());
    for (StrqMode mode : kAllModes) {
      const QueryResponse response =
          service.Submit(StrqRequest{q, mode}).get();
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(SortedIds(response.strq().ids), SortedIds(truth))
          << "tick " << q.tick;
      EXPECT_EQ(response.stats.seal_epoch, 0u);
    }
  }

  // TPQ at the ends of the tick range — neither span may overflow Tick
  // (the sanitizer CI job checks). Sealed through a positive cut, a
  // request at the first representable tick finds nothing...
  live->RollAll();
  live->Quiesce();
  const QueryResponse below =
      service
          .Submit(core::TpqRequest{
              QuerySpec{data->SliceAt(data->MinTick()).positions[0],
                        std::numeric_limits<Tick>::min()},
              8, StrqMode::kExact})
          .get();
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(below.tpq().ids.empty());

  // ...and a tail path running into the last representable tick stops
  // there.
  constexpr Tick kLast = std::numeric_limits<Tick>::max();
  LiveRepository::Options edge_options = options;
  edge_options.num_shards = 1;
  const auto edge =
      std::make_shared<LiveRepository>(PpqAFactory(), edge_options);
  std::vector<Point> edge_path;
  for (Tick t = kLast - 2;; ++t) {
    PointBatch batch(t);
    batch.Add(9, Point{-8.6 + 0.0001 * (kLast - t), 41.1});
    ASSERT_TRUE(edge->Append(batch).ok());
    edge_path.push_back(batch.positions.back());
    if (t == kLast) break;
  }
  LiveQueryService edge_service(edge, serve);
  const QueryResponse to_end =
      edge_service
          .Submit(core::TpqRequest{QuerySpec{edge_path[0], kLast - 2}, 8,
                                   StrqMode::kExact})
          .get();
  ASSERT_TRUE(to_end.ok());
  ASSERT_EQ(to_end.tpq().ids, std::vector<TrajId>{9});
  EXPECT_EQ(to_end.tpq().paths[0], edge_path);
}

TEST(LiveRepositoryTest, KnnEqualsBruteForceOverSealedAndTailPoints) {
  // Mid-ingest, a k-NN answer ranks every shard's sealed reconstructions
  // and raw tail points together: it must be the first k of their union
  // under (distance, id), whichever side of each shard's cut a point is.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 4;
  options.num_threads = 1;
  options.watermark_ticks = 7;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);
  LiveQueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  LiveQueryService service(live, serve);

  Rng rng(13);
  size_t sealed_answers = 0;
  size_t tail_answers = 0;
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live->Append(batch).ok());
    }
    if ((t - data->MinTick()) % 5 != 4) continue;
    live->Quiesce();  // no seal lands between the oracle and the request
    for (const Tick qt : {t, t - 3, t - 9}) {
      const TimeSlice slice = data->SliceAt(qt);
      if (slice.empty()) continue;
      const Point at = slice.positions[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(slice.size()) - 1))];
      const Point q{at.x + rng.Uniform(-1e-3, 1e-3),
                    at.y + rng.Uniform(-1e-3, 1e-3)};
      std::vector<std::pair<core::Neighbor, bool>> all;  // (n, from tail)
      for (size_t s = 0; s < live->num_shards(); ++s) {
        const auto view = live->ShardView(s);
        core::DecodeMemo memo;
        for (TrajId id = 0; id < static_cast<TrajId>(data->size()); ++id) {
          const auto p = view->sealed->Reconstruct(id, qt, &memo);
          if (!p.ok()) continue;
          double d = 0.0;
          simd::Distances(&*p, 1, q, &d);
          all.push_back({core::Neighbor{id, d}, false});
        }
        for (const core::TailChunk* c = view->tail.get(); c != nullptr;
             c = c->prev.get()) {
          if (c->slice.tick != qt) continue;
          for (size_t i = 0; i < c->slice.size(); ++i) {
            double d = 0.0;
            simd::Distances(&c->slice.positions[i], 1, q, &d);
            all.push_back({core::Neighbor{c->slice.ids[i], d}, true});
          }
        }
      }
      std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
        return core::NeighborOrder(a.first, b.first);
      });
      for (const size_t k : {size_t{1}, size_t{5}, size_t{16}}) {
        std::vector<core::Neighbor> want;
        for (size_t i = 0; i < all.size() && i < k; ++i) {
          want.push_back(all[i].first);
          (all[i].second ? tail_answers : sealed_answers) += 1;
        }
        const QueryResponse response =
            service.Submit(core::KnnRequest{QuerySpec{q, qt}, k}).get();
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.neighbors(), want)
            << "query tick " << qt << " at frontier " << t << " k " << k;
      }
    }
  }
  EXPECT_GT(sealed_answers, 0u);
  EXPECT_GT(tail_answers, 0u);
}

TEST(LiveRepositoryTest, KnnRanksAnIdAppendedTwiceAtOneTickOnce) {
  // A batch retried at its tick merges into the shard's staging tick, so
  // the tail holds every id of that tick twice, and so does the sealed
  // grid once the tick seals. k-NN ranks each id once, on either side of
  // the seal: the answer is the first k distinct ids.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 1000;  // nothing seals before RollAll
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);
  LiveQueryService::Options serve;
  serve.num_threads = 1;
  serve.raw = data;
  serve.cell_size = CellSize();
  LiveQueryService service(live, serve);

  const Tick qt = data->MinTick() + 12;
  for (Tick t = data->MinTick(); t <= qt; ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (batch.empty()) continue;
    ASSERT_TRUE(live->Append(batch).ok());
    if (t == qt) {
      ASSERT_TRUE(live->Append(batch).ok());
    }
  }
  const TimeSlice slice = data->SliceAt(qt);
  ASSERT_GE(slice.size(), 4u);

  // The oracle: every shard's sealed reconstructions and tail points at
  // qt, ranked, each id kept once.
  const auto distinct_ranking = [&](const Point& q) {
    std::vector<core::Neighbor> all;
    for (size_t s = 0; s < live->num_shards(); ++s) {
      const auto view = live->ShardView(s);
      core::DecodeMemo memo;
      for (TrajId id = 0; id < static_cast<TrajId>(data->size()); ++id) {
        const auto p = view->sealed->Reconstruct(id, qt, &memo);
        if (!p.ok()) continue;
        double d = 0.0;
        simd::Distances(&*p, 1, q, &d);
        all.push_back({id, d});
      }
      for (const core::TailChunk* c = view->tail.get(); c != nullptr;
           c = c->prev.get()) {
        if (c->slice.tick != qt) continue;
        for (size_t i = 0; i < c->slice.size(); ++i) {
          double d = 0.0;
          simd::Distances(&c->slice.positions[i], 1, q, &d);
          all.push_back({c->slice.ids[i], d});
        }
      }
    }
    std::sort(all.begin(), all.end(), core::NeighborOrder);
    std::vector<core::Neighbor> distinct;
    for (const core::Neighbor& n : all) {
      if (std::none_of(distinct.begin(), distinct.end(),
                       [&](const core::Neighbor& d) { return d.id == n.id; })) {
        distinct.push_back(n);
      }
    }
    return distinct;
  };
  const auto check = [&](const char* side) {
    for (size_t i = 0; i < slice.size(); i += 3) {
      const Point q{slice.positions[i].x + 1e-4, slice.positions[i].y};
      const std::vector<core::Neighbor> ranking = distinct_ranking(q);
      ASSERT_EQ(ranking.size(), slice.size()) << side;
      for (const size_t k : {size_t{1}, size_t{3}, slice.size() + 2}) {
        const std::vector<core::Neighbor> want(
            ranking.begin(),
            ranking.begin() + static_cast<ptrdiff_t>(std::min(k, ranking.size())));
        const QueryResponse response =
            service.Submit(core::KnnRequest{QuerySpec{q, qt}, k}).get();
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.neighbors(), want) << side << " k " << k;
      }
    }
  };
  check("tail");
  live->RollAll();
  live->Quiesce();
  for (size_t s = 0; s < live->num_shards(); ++s) {
    EXPECT_EQ(live->ShardView(s)->tail, nullptr) << "shard " << s;
  }
  check("sealed");
}

// -------------------------------------------------------------------------
// The staleness bound, across roll and background-seal boundaries
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, StalenessBoundAcrossRollAndSealBoundaries) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 5;  // roll often: many boundaries to cross
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);

  LiveQueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  LiveQueryService service(live, serve);

  Rng rng(9);
  const auto queries = SampleQueries(*data, 120, &rng);
  const auto windows = test::SampleWindows(*data, 60, &rng);

  // Ingest tick by tick; after each tick, replay every sampled query at
  // or behind the frontier whose tick is "near" — current, one watermark
  // back (straddling the last roll), two watermarks back (sealed by now).
  // Background seals land whenever they land; exactness must not care.
  const auto near_frontier = [&](Tick query_tick, Tick frontier) {
    if (query_tick > frontier) return false;
    const Tick lag = frontier - query_tick;
    return lag == 0 || lag == options.watermark_ticks ||
           lag == 2 * options.watermark_ticks;
  };

  size_t checked = 0;
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live->Append(batch).ok());
    }

    const uint64_t epoch_floor = live->MinSealEpoch();
    for (const QuerySpec& q : queries) {
      if (!near_frontier(q.tick, t)) continue;
      const QueryResponse response =
          service.Submit(StrqRequest{q, StrqMode::kExact}).get();
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(SortedIds(response.strq().ids),
                SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
          << "query tick " << q.tick << " at frontier " << t;
      // Freshness is reported and monotone: a response never claims a
      // seal generation older than the floor read before submission.
      EXPECT_GE(response.stats.seal_epoch, epoch_floor);
      ++checked;
    }
    for (const WindowSpec& w : windows) {
      if (!near_frontier(w.tick, t)) continue;
      const QueryResponse response =
          service.Submit(WindowRequest{w, StrqMode::kExact}).get();
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(SortedIds(response.strq().ids),
                SortedIds(QueryEngine::WindowGroundTruth(*data, w.window,
                                                         w.tick)))
          << "window tick " << w.tick << " at frontier " << t;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);

  // Final cut: everything seals, tails empty, answers unchanged.
  live->RollAll();
  live->Quiesce();
  EXPECT_GE(live->MinSealEpoch(), 1u);
  for (size_t s = 0; s < live->num_shards(); ++s) {
    EXPECT_EQ(live->ShardView(s)->tail_points, 0u) << "shard " << s;
  }
  for (const QuerySpec& q : queries) {
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids),
              SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())));
    EXPECT_GE(response.stats.seal_epoch, 1u);
  }
}

// -------------------------------------------------------------------------
// Watermark rolls trip deterministically
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, TickWatermarkRollsDeterministically) {
  const TrajectoryDataset data = SmallDataset();
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 4;
  options.watermark_points = 0;
  LiveRepository live(PpqAFactory(), options);

  // Quiescing after every tick keeps each seal out of the next flush's
  // way, so the roll points are exactly the watermark arithmetic's.
  std::vector<Tick> nonempty;
  for (Tick t = data.MinTick(); t < data.MaxTick(); ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (batch.empty()) continue;
    ASSERT_TRUE(live.Append(batch).ok());
    live.Quiesce();
    nonempty.push_back(t);
  }
  live.RollAll();
  live.Quiesce();

  // Replay the trip rule: tick u flushes when the stream advances past
  // it; a segment seals once it spans watermark_ticks; RollAll cuts the
  // rest.
  uint64_t expected = 0;
  Tick first = kNoTickYet;
  for (size_t i = 0; i + 1 < nonempty.size(); ++i) {
    if (first == kNoTickYet) first = nonempty[i];
    if (nonempty[i] - first + 1 >= options.watermark_ticks) {
      ++expected;
      first = kNoTickYet;
    }
  }
  if (!nonempty.empty()) ++expected;  // RollAll seals the final segment

  EXPECT_EQ(live.MinSealEpoch(), expected);
  EXPECT_GE(expected, 5u);  // the dataset really exercises multiple rolls
  EXPECT_EQ(live.ShardView(0)->sealed_through, nonempty.back());
  EXPECT_EQ(live.ShardView(0)->tail_points, 0u);
}

TEST(LiveRepositoryTest, PointWatermarkRollsDeterministically) {
  const TrajectoryDataset data = SmallDataset();
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 0;
  options.watermark_points = 150;
  LiveRepository live(PpqAFactory(), options);

  std::vector<size_t> flushed_sizes;
  for (Tick t = data.MinTick(); t < data.MaxTick(); ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (batch.empty()) continue;
    ASSERT_TRUE(live.Append(batch).ok());
    live.Quiesce();
    flushed_sizes.push_back(batch.size());
  }
  live.RollAll();
  live.Quiesce();

  uint64_t expected = 0;
  size_t segment = 0;
  for (size_t i = 0; i + 1 < flushed_sizes.size(); ++i) {
    segment += flushed_sizes[i];
    if (segment >= options.watermark_points) {
      ++expected;
      segment = 0;
    }
  }
  if (!flushed_sizes.empty()) ++expected;  // RollAll

  EXPECT_EQ(live.MinSealEpoch(), expected);
  EXPECT_GE(expected, 2u);
}

// -------------------------------------------------------------------------
// Appends divert (and drain losslessly) while a seal is in flight
// -------------------------------------------------------------------------

/// Decorator making Compressor::Seal slow enough that appends provably
/// land WHILE the background seal runs — the pending-queue path.
class SlowSealCompressor : public core::Compressor {
 public:
  explicit SlowSealCompressor(std::unique_ptr<core::Compressor> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void ObserveSlice(const TimeSlice& slice) override {
    inner_->ObserveSlice(slice);
  }
  void Finish() override { inner_->Finish(); }
  Result<Point> Reconstruct(TrajId id, Tick t) const override {
    return inner_->Reconstruct(id, t);
  }
  size_t SummaryBytes() const override { return inner_->SummaryBytes(); }
  size_t NumCodewords() const override { return inner_->NumCodewords(); }
  const index::TemporalPartitionIndex* index() const override {
    return inner_->index();
  }
  double LocalSearchRadius() const override {
    return inner_->LocalSearchRadius();
  }
  std::vector<core::RecordSpan> RecordSpans() const override {
    return inner_->RecordSpans();
  }
  core::SnapshotPtr Seal() const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return inner_->Seal();
  }

 private:
  std::unique_ptr<core::Compressor> inner_;
};

TEST(LiveRepositoryTest, PendingAppendsDrainDuringSlowSeal) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 4;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(
      [](uint32_t) {
        return std::make_unique<SlowSealCompressor>(
            std::make_unique<core::PpqTrajectory>(core::MakePpqA()));
      },
      options);

  // Ingest everything back to back: the first roll's 100ms seal is still
  // in flight while the following ticks flush, so they MUST divert to the
  // pending queue and drain when the cut lands.
  IngestAll(*live, *data);
  live->RollAll();
  live->Quiesce();

  EXPECT_GE(live->MinSealEpoch(), 2u);
  EXPECT_EQ(live->ShardView(0)->tail_points, 0u);

  // Lossless: after the last cut, every point answers from the summary,
  // exactly.
  LiveQueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  LiveQueryService service(live, serve);
  Rng rng(13);
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids),
              SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
        << "tick " << q.tick;
  }
}

// -------------------------------------------------------------------------
// The quiesced live union == the phased sharded path over SealedSnapshot
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, SealedSnapshotMatchesLiveServiceAfterQuiesce) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 8;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);
  IngestAll(*live, *data);
  live->RollAll();
  live->Quiesce();

  LiveQueryService::Options live_serve;
  live_serve.num_threads = 2;
  live_serve.raw = data;
  live_serve.cell_size = CellSize();
  LiveQueryService live_service(live, live_serve);

  ShardedQueryService::Options sharded_serve;
  sharded_serve.num_threads = 2;
  sharded_serve.raw = data;
  sharded_serve.cell_size = CellSize();
  ShardedQueryService sharded_service(live->SealedSnapshot(), sharded_serve);

  Rng rng(21);
  const auto queries = SampleQueries(*data, 25, &rng);
  const auto windows = test::SampleWindows(*data, 12, &rng);
  std::vector<core::QueryRequest> requests;
  for (StrqMode mode : kAllModes) {
    for (const QuerySpec& q : queries) {
      requests.push_back(StrqRequest{q, mode});
      requests.push_back(core::TpqRequest{q, 8, mode});
    }
    for (const WindowSpec& w : windows) {
      requests.push_back(WindowRequest{w, mode});
    }
  }
  for (const QuerySpec& q : queries) {
    requests.push_back(core::KnnRequest{q, 5});
  }

  auto live_futures = live_service.SubmitBatch(requests);
  auto sharded_futures = sharded_service.SubmitBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryResponse a = live_futures[i].get();
    const QueryResponse b = sharded_futures[i].get();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.result, b.result) << "request " << i;
  }
}

// -------------------------------------------------------------------------
// Concurrency: appenders racing queries (TSan)
// -------------------------------------------------------------------------

/// Reusable cyclic barrier (C++17 has none): appender threads synchronize
/// per tick so per-shard batch ticks stay non-decreasing.
class TickBarrier {
 public:
  explicit TickBarrier(int parties) : parties_(parties) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != generation; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int waiting_ = 0;
  uint64_t generation_ = 0;
};

TEST(LiveRepositoryConcurrencyTest, AppendersRaceQueriesAndStayExact) {
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(31, 24));
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 4;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);

  LiveQueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  LiveQueryService service(live, serve);

  Rng rng(3);
  const auto queries = SampleQueries(*data, 40, &rng);
  std::vector<std::vector<TrajId>> truth;
  truth.reserve(queries.size());
  for (const QuerySpec& q : queries) {
    truth.push_back(SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())));
  }

  constexpr int kAppenders = 2;
  TickBarrier barrier(kAppenders);
  std::atomic<Tick> frontier{std::numeric_limits<Tick>::min()};
  std::atomic<bool> done{false};

  // Each appender owns every (kAppenders)th point of each tick's batch;
  // the barrier keeps both on the same tick so per-shard ticks never
  // regress. Same-tick batches from both threads merge in staging.
  std::vector<std::thread> appenders;
  for (int a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&, a] {
      for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
        const PointBatch full = data->BatchAt(t);
        PointBatch mine(t);
        for (size_t i = static_cast<size_t>(a); i < full.size();
             i += kAppenders) {
          mine.Add(full.ids[i], full.positions[i]);
        }
        EXPECT_TRUE(live->Append(mine).ok());
        barrier.Arrive();
        // Both threads finished tick t: publish the frontier (one writer).
        if (a == 0) frontier.store(t, std::memory_order_release);
        barrier.Arrive();
      }
    });
  }

  std::thread reader([&] {
    size_t exact_checked = 0;
    while (!done.load(std::memory_order_acquire) || exact_checked == 0) {
      const Tick f = frontier.load(std::memory_order_acquire);
      for (size_t i = 0; i < queries.size(); ++i) {
        if (queries[i].tick > f) continue;
        const QueryResponse response =
            service.Submit(StrqRequest{queries[i], StrqMode::kExact}).get();
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(SortedIds(response.strq().ids), truth[i])
            << "query " << i << " at frontier " << f;
        ++exact_checked;
      }
    }
    EXPECT_GT(exact_checked, 0u);
  });

  for (std::thread& t : appenders) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Everything appended exactly once across the racing producers.
  size_t total = 0;
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    total += data->SliceAt(t).size();
  }
  EXPECT_EQ(live->TotalPointsAppended(), total);

  live->RollAll();
  live->Quiesce();
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResponse response =
        service.Submit(StrqRequest{queries[i], StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids), truth[i]) << "query " << i;
  }
}

// The seal-diversion protocol under racing readers. This is the path the
// thread-safety annotations restructured: SealShard MOVES the shard's
// compressor out under `shard.mu`, seals it with no lock held while
// appends divert to the pending queue, then moves it back and publishes
// the view. A slow seal keeps that window open for ~every flush while an
// appender hammers Append and a poller hammers ShardView/MinSealEpoch —
// under TSan (this suite is in the tsan CI job's -R 'Live' selection),
// any access that escaped the lock discipline is a hard failure. The
// final exactness sweep proves the diverted appends also drained
// losslessly.
TEST(LiveRepositoryConcurrencyTest, SealDiversionRacesViewReaders) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 2;
  options.watermark_ticks = 3;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(
      [](uint32_t) {
        return std::make_unique<SlowSealCompressor>(
            std::make_unique<core::PpqTrajectory>(core::MakePpqA()));
      },
      options);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    uint64_t floor = 0;
    std::vector<uint64_t> shard_floor(options.num_shards, 0);
    while (!done.load(std::memory_order_acquire)) {
      // Published views and the seal epoch must always read as a
      // consistent, monotone snapshot while seals are in flight.
      const uint64_t epoch = live->MinSealEpoch();
      EXPECT_GE(epoch, floor);
      floor = epoch;
      for (uint32_t s = 0; s < options.num_shards; ++s) {
        const auto view = live->ShardView(s);
        ASSERT_NE(view, nullptr);
        EXPECT_GE(view->seal_epoch, shard_floor[s]);
        shard_floor[s] = view->seal_epoch;
      }
      std::this_thread::yield();
    }
  });

  // Back-to-back ingest: each 100ms seal is still running when the next
  // watermark's flush lands, so those flushes take the diversion path.
  IngestAll(*live, *data);
  live->RollAll();
  live->Quiesce();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GE(live->MinSealEpoch(), 1u);
  LiveQueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  LiveQueryService service(live, serve);
  Rng rng(29);
  for (const QuerySpec& q : SampleQueries(*data, 25, &rng)) {
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids),
              SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
        << "tick " << q.tick;
  }
}

}  // namespace
}  // namespace ppq::repo
