#include <gtest/gtest.h>

#include <algorithm>

#include "common/simd.h"
#include "core/metrics.h"
#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "tests/test_util.h"

/// \file window_knn_test.cc
/// Tests for the query-engine extensions: rectangular window queries and
/// k-nearest-trajectory queries over the compressed summary.

namespace ppq::core {
namespace {

using Fixture = test::MethodFixture;
using test::WindowAround;

Fixture MakeFixture(uint64_t seed = 9) {
  return test::MakeFixtureWithOptions(
      test::MakePortoDataset({60, 60, 20, 60, seed}), MakePpqA());
}

// ---------------------------------------------------------------------------
// Window queries
// ---------------------------------------------------------------------------

TEST(WindowQueryTest, ExactModeMatchesGroundTruth) {
  const Fixture f = MakeFixture();
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const auto& traj = f.dataset[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(f.dataset.size()) - 1))];
    const size_t offset = traj.size() / 2;
    const Tick t = traj.start_tick + static_cast<Tick>(offset);
    const auto window =
        WindowAround(traj.points[offset], rng.Uniform(0.001, 0.01));

    auto got = f.engine->WindowQuery(window, t, StrqMode::kExact).ids;
    auto truth = QueryEngine::WindowGroundTruth(f.dataset, window, t);
    std::sort(got.begin(), got.end());
    std::sort(truth.begin(), truth.end());
    EXPECT_EQ(got, truth);
  }
}

TEST(WindowQueryTest, LocalSearchRecallIsOne) {
  const Fixture f = MakeFixture(11);
  Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const auto& traj = f.dataset[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(f.dataset.size()) - 1))];
    const size_t offset = traj.size() / 3;
    const Tick t = traj.start_tick + static_cast<Tick>(offset);
    const auto window = WindowAround(traj.points[offset], 0.003);

    auto got = f.engine->WindowQuery(window, t, StrqMode::kLocalSearch).ids;
    std::sort(got.begin(), got.end());
    for (TrajId id : QueryEngine::WindowGroundTruth(f.dataset, window, t)) {
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id));
    }
  }
}

TEST(WindowQueryTest, EmptyWindowReturnsNothing) {
  const Fixture f = MakeFixture();
  const QueryEngine::Window degenerate{0.5, 0.5, 0.5, 0.5};
  EXPECT_TRUE(
      f.engine->WindowQuery(degenerate, 10, StrqMode::kExact).ids.empty());
  const QueryEngine::Window inverted{1.0, 1.0, 0.0, 0.0};
  EXPECT_TRUE(
      f.engine->WindowQuery(inverted, 10, StrqMode::kExact).ids.empty());
}

TEST(WindowQueryTest, WholeRegionWindowReturnsAllActive) {
  const Fixture f = MakeFixture();
  const BoundingBox box = f.dataset.Bounds();
  const QueryEngine::Window all{box.min_x - 0.1, box.min_y - 0.1,
                                box.max_x + 0.1, box.max_y + 0.1};
  const Tick t = (f.dataset.MinTick() + f.dataset.MaxTick()) / 2;
  auto got = f.engine->WindowQuery(all, t, StrqMode::kExact).ids;
  size_t active = 0;
  for (const Trajectory& traj : f.dataset.trajectories()) {
    if (traj.ActiveAt(t)) ++active;
  }
  EXPECT_EQ(got.size(), active);
}

// ---------------------------------------------------------------------------
// k-nearest trajectories
// ---------------------------------------------------------------------------

TEST(NearestTrajectoriesTest, ReturnsKSortedByDistance) {
  const Fixture f = MakeFixture();
  const auto& traj = f.dataset[5];
  const Tick t = traj.start_tick + static_cast<Tick>(traj.size() / 2);
  const QuerySpec q{traj.At(t), t};
  const auto neighbors = f.engine->NearestTrajectories(q, 5);
  ASSERT_LE(neighbors.size(), 5u);
  ASSERT_GE(neighbors.size(), 1u);
  for (size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_GE(neighbors[i].distance, neighbors[i - 1].distance);
  }
  // The query point lies on trajectory 5, so it must rank first (its
  // reconstruction is within the deviation bound of distance zero).
  EXPECT_EQ(neighbors[0].id, 5);
}

TEST(NearestTrajectoriesTest, WithinBoundOfTrueNearest) {
  const Fixture f = MakeFixture(13);
  const double bound = f.method->LocalSearchRadius();
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const auto& traj = f.dataset[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(f.dataset.size()) - 1))];
    const Tick t = traj.start_tick + static_cast<Tick>(traj.size() / 2);
    const QuerySpec q{traj.At(t), t};
    const auto neighbors = f.engine->NearestTrajectories(q, 3);
    ASSERT_FALSE(neighbors.empty());

    // True sorted distances from the raw data.
    std::vector<double> truth;
    for (const Trajectory& other : f.dataset.trajectories()) {
      if (other.ActiveAt(t)) {
        truth.push_back(other.At(t).DistanceTo(q.position));
      }
    }
    std::sort(truth.begin(), truth.end());
    for (size_t i = 0; i < neighbors.size() && i < truth.size(); ++i) {
      // Reported reconstruction distance is within the deviation bound of
      // the true i-th nearest distance.
      EXPECT_LE(std::fabs(neighbors[i].distance - truth[i]), 2 * bound + 1e-9)
          << "rank " << i;
    }
  }
}

/// The k nearest reconstructions at q.tick by brute force: every id that
/// reconstructs, scored with the same distance kernel, ranked under
/// NeighborOrder.
std::vector<Neighbor> BruteForceKnn(const Compressor& method, size_t num_ids,
                                    const QuerySpec& q, size_t k) {
  std::vector<Neighbor> all;
  for (size_t id = 0; id < num_ids; ++id) {
    const auto p = method.Reconstruct(static_cast<TrajId>(id), q.tick);
    if (!p.ok()) continue;
    double d = 0.0;
    simd::Distances(&*p, 1, q.position, &d);
    all.push_back({static_cast<TrajId>(id), d});
  }
  std::sort(all.begin(), all.end(), NeighborOrder);
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(NearestTrajectoriesTest, EqualsBruteForceOverReconstructions) {
  const Fixture f = MakeFixture(17);
  const QueryEngine sealed(f.method->Seal(), &f.dataset,
                           f.engine->cell_size());
  const BoundingBox box = f.dataset.Bounds();
  Rng rng(21);
  for (int trial = 0; trial < 240; ++trial) {
    const Tick t = static_cast<Tick>(
        rng.UniformInt(f.dataset.MinTick(), f.dataset.MaxTick()));
    // Half the queries sit on a trajectory, half anywhere in (or just
    // outside) the data's bounds.
    Point p{rng.Uniform(box.min_x - 0.01, box.max_x + 0.01),
            rng.Uniform(box.min_y - 0.01, box.max_y + 0.01)};
    if (trial % 2 == 0) {
      const auto& traj = f.dataset[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(f.dataset.size()) - 1))];
      if (traj.ActiveAt(t)) p = traj.At(t);
    }
    const QuerySpec q{p, t};
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 24));
    const auto want = BruteForceKnn(*f.method, f.dataset.size(), q, k);
    EXPECT_EQ(f.engine->NearestTrajectories(q, k), want) << "trial " << trial;
    EXPECT_EQ(sealed.NearestTrajectories(q, k), want) << "trial " << trial;
  }
}

TEST(NearestTrajectoriesTest, SparseNeighboursAcrossCellRingsAreExact) {
  // A few parked trajectories a few cells apart, probed from a lattice of
  // query points around them: many probes have their k-th neighbour in a
  // cell beyond the cells nearest the query, where a search that stops
  // once it holds k ids within a ring of cells can return a farther
  // trajectory than one it never scanned.
  const double c = PpqOptions{}.tpi.pi.cell_size;
  const Point origin{-8.6, 41.15};
  const auto at = [&](double x, double y) {
    return Point{origin.x + x * c, origin.y + y * c};
  };
  const Point positions[] = {at(0.0, 0.0), at(2.5, 2.5), at(3.99, 3.99),
                             at(4.1, 1.2), at(0.7, 4.4), at(5.6, 0.3)};
  TrajectoryDataset data;
  for (const Point& p : positions) {
    Trajectory traj;
    traj.start_tick = 0;
    traj.points.assign(10, p);
    data.Add(std::move(traj));
  }
  PpqTrajectory method(MakePpqA());
  method.Compress(data);
  const QueryEngine engine(&method, &data, c);
  for (double x = -2.0; x <= 8.0; x += 0.25) {
    for (double y = -2.0; y <= 7.0; y += 0.25) {
      const QuerySpec q{at(x, y), 5};
      for (size_t k = 1; k <= 4; ++k) {
        EXPECT_EQ(engine.NearestTrajectories(q, k),
                  BruteForceKnn(method, data.size(), q, k))
            << "probe (" << x << ", " << y << ") k " << k;
      }
    }
  }
}

TEST(NearestTrajectoriesTest, KLargerThanPopulation) {
  const Fixture f = MakeFixture();
  const auto& traj = f.dataset[0];
  const Tick t = traj.start_tick;
  const auto neighbors =
      f.engine->NearestTrajectories({traj.At(t), t}, 10000);
  size_t active = 0;
  for (const Trajectory& other : f.dataset.trajectories()) {
    if (other.ActiveAt(t)) ++active;
  }
  EXPECT_EQ(neighbors.size(), active);
}

TEST(NearestTrajectoriesTest, ZeroKReturnsEmpty) {
  const Fixture f = MakeFixture();
  EXPECT_TRUE(
      f.engine->NearestTrajectories({{0.0, 0.0}, 10}, 0).empty());
}

TEST(NearestTrajectoriesTest, NoIndexReturnsEmpty) {
  // GeneratorOptions defaults except the size: 5 trips, 20-tick horizon.
  const TrajectoryDataset dataset =
      test::MakePortoDataset({5, 20, 30, 400, 42});
  PpqOptions options = MakePpqA();
  options.enable_index = false;
  PpqTrajectory method(options);
  method.Compress(dataset);
  QueryEngine engine(&method, &dataset, options.tpi.pi.cell_size);
  EXPECT_TRUE(engine.NearestTrajectories({{0.0, 0.0}, 5}, 3).empty());
}

}  // namespace
}  // namespace ppq::core
