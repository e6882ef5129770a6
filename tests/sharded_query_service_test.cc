#include "repo/sharded_query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/simd.h"
#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "repo/sharded_repository.h"
#include "tests/test_util.h"

/// \file sharded_query_service_test.cc
/// The scatter-gather router's contract: every response must be
/// byte-identical to evaluating the same request against each shard's
/// snapshot with the serial QueryEngine and merging serially (the
/// "per-shard serial oracle", reimplemented here independently of the
/// production merge), at N in {1, 2, 4} shards x every StrqMode x 1 and 4
/// workers. A 1-shard repository must answer byte-identically to the
/// unsharded QueryService; k-NN ties straddling a shard boundary must
/// resolve by the deterministic (distance, id) order; empty shards must
/// be transparent; and exact-mode answers must be independent of the
/// shard count. The hot-swap race (no response may mix two repository
/// seals), drain-on-destruction, and cancellation-accounting contracts
/// are covered for every core::QueryBackend implementation at once by
/// the conformance suite (query_backend_test.cc).

namespace ppq::repo {
namespace {

using core::KnnRequest;
using core::Neighbor;
using core::QueryEngine;
using core::QueryRequest;
using core::QueryResponse;
using core::QuerySpec;
using core::SampleQueries;
using core::StrqMode;
using core::StrqRequest;
using core::StrqResult;
using core::TpqRequest;
using core::TpqResult;
using core::WindowRequest;
using core::WindowSpec;

using Payload = std::variant<StrqResult, std::vector<Neighbor>, TpqResult>;

constexpr StrqMode kAllModes[] = {StrqMode::kApproximate,
                                  StrqMode::kLocalSearch, StrqMode::kExact};
constexpr int kTpqLength = 8;
constexpr size_t kK = 5;

TrajectoryDataset SmallDataset(uint64_t seed = 77, int trajectories = 40) {
  return test::MakePortoDataset({trajectories, 50, 15, 50, seed});
}

ShardedRepository::CompressorFactory PpqAFactory() {
  return [](uint32_t /*shard*/) {
    return std::make_unique<core::PpqTrajectory>(core::MakePpqA());
  };
}

RepositorySnapshotPtr BuildRepository(const TrajectoryDataset& data,
                                      uint32_t num_shards) {
  ShardedRepository::Options options;
  options.num_shards = num_shards;
  options.num_threads = 2;
  ShardedRepository repo(PpqAFactory(), options);
  repo.Compress(data);
  return repo.SealAll();
}

std::vector<QueryRequest> MakeRequests(const std::vector<QuerySpec>& queries,
                                       const std::vector<WindowSpec>& windows) {
  std::vector<QueryRequest> requests;
  for (StrqMode mode : kAllModes) {
    for (const QuerySpec& q : queries) {
      requests.push_back(StrqRequest{q, mode});
      requests.push_back(TpqRequest{q, kTpqLength, mode});
    }
    for (const WindowSpec& w : windows) {
      requests.push_back(WindowRequest{w, mode});
    }
  }
  for (const QuerySpec& q : queries) requests.push_back(KnnRequest{q, kK});
  return requests;
}

// -------------------------------------------------------------------------
// The per-shard serial oracle: evaluate against each shard with the
// serial QueryEngine, merge serially. Written from the merge-semantics
// SPEC (union in ascending id / global (distance, id) order / path rides
// its id), independent of the production merge code.
// -------------------------------------------------------------------------

struct ShardOracle {
  const TrajectoryDataset* raw;
  double cell_size;
  std::vector<std::unique_ptr<QueryEngine>> engines;

  ShardOracle(const RepositorySnapshotPtr& repository,
              const TrajectoryDataset* raw_data, double cell)
      : raw(raw_data), cell_size(cell) {
    for (const core::SnapshotPtr& shard : repository->shards()) {
      engines.push_back(std::make_unique<QueryEngine>(shard, raw, cell));
    }
  }

  Payload Eval(const QueryRequest& request) const {
    if (const auto* r = std::get_if<StrqRequest>(&request)) {
      StrqResult merged;
      for (const auto& engine : engines) {
        const StrqResult part = engine->Strq(r->query, r->mode);
        merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
        merged.candidates_visited += part.candidates_visited;
      }
      std::sort(merged.ids.begin(), merged.ids.end());
      return merged;
    }
    if (const auto* r = std::get_if<WindowRequest>(&request)) {
      StrqResult merged;
      for (const auto& engine : engines) {
        const StrqResult part =
            engine->WindowQuery(r->window.window, r->window.tick, r->mode);
        merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
        merged.candidates_visited += part.candidates_visited;
      }
      std::sort(merged.ids.begin(), merged.ids.end());
      return merged;
    }
    if (const auto* r = std::get_if<KnnRequest>(&request)) {
      std::vector<Neighbor> merged;
      for (const auto& engine : engines) {
        const auto part = engine->NearestTrajectories(r->query, r->k);
        merged.insert(merged.end(), part.begin(), part.end());
      }
      std::sort(merged.begin(), merged.end(),
                [](const Neighbor& a, const Neighbor& b) {
                  return a.distance < b.distance ||
                         (a.distance == b.distance && a.id < b.id);
                });
      if (merged.size() > r->k) merged.resize(r->k);
      return merged;
    }
    const auto& r = std::get<TpqRequest>(request);
    std::vector<std::pair<TrajId, std::vector<Point>>> entries;
    TpqResult merged;
    for (const auto& engine : engines) {
      TpqResult part = engine->Tpq(r.query, r.length, r.mode);
      merged.candidates_visited += part.candidates_visited;
      for (size_t i = 0; i < part.ids.size(); ++i) {
        entries.emplace_back(part.ids[i], std::move(part.paths[i]));
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [id, path] : entries) {
      merged.ids.push_back(id);
      merged.paths.push_back(std::move(path));
    }
    return merged;
  }
};

/// Submit every request and require byte-parity with the oracle, plus
/// internally consistent responses.
void ExpectMatchesOracle(ShardedQueryService& service,
                         const ShardOracle& oracle,
                         const std::vector<QueryRequest>& requests,
                         const std::string& label) {
  auto futures = service.SubmitBatch(requests);
  ASSERT_EQ(futures.size(), requests.size());
  size_t total_decoded = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const QueryResponse response = futures[i].get();
    EXPECT_TRUE(response.ok()) << label << " request " << i;
    EXPECT_EQ(response.kind, KindOf(requests[i])) << label << " request " << i;
    EXPECT_EQ(response.result, oracle.Eval(requests[i]))
        << label << " request " << i;
    total_decoded += response.stats.points_decoded;
    EXPECT_GE(response.stats.eval_micros, response.stats.decode_micros)
        << label << " request " << i;
  }
  EXPECT_GT(total_decoded, 0u) << label;
}

// -------------------------------------------------------------------------
// Parity: N shards x worker counts
// -------------------------------------------------------------------------

class ShardedServiceParity
    : public ::testing::TestWithParam<std::tuple<uint32_t, size_t>> {};

TEST_P(ShardedServiceParity, MatchesPerShardSerialOracle) {
  const auto [num_shards, workers] = GetParam();
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const double cell = core::PpqOptions{}.tpi.pi.cell_size;
  const RepositorySnapshotPtr repository = BuildRepository(*data, num_shards);
  const ShardOracle oracle(repository, data.get(), cell);

  Rng rng(17);
  const auto queries = SampleQueries(*data, 30, &rng);
  const auto windows = test::SampleWindows(*data, 15, &rng);
  const auto requests = MakeRequests(queries, windows);

  ShardedQueryService::Options options;
  options.num_threads = workers;
  options.raw = data;
  options.cell_size = cell;
  ShardedQueryService service(repository, options);
  EXPECT_EQ(service.num_threads(), workers);

  const std::string label = std::to_string(num_shards) + "shards@" +
                            std::to_string(workers) + "w";
  ExpectMatchesOracle(service, oracle, requests, "cold " + label);
  // Warm per-shard decode scratch must not change results.
  ExpectMatchesOracle(service, oracle, requests, "warm " + label);
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndWorkerCounts, ShardedServiceParity,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(size_t{1}, size_t{4})));

// -------------------------------------------------------------------------
// 1 shard == the unsharded serving path, byte for byte
// -------------------------------------------------------------------------

class OneShardEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(OneShardEquivalence, MatchesUnshardedQueryService) {
  const size_t workers = GetParam();
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const double cell = core::PpqOptions{}.tpi.pi.cell_size;

  const RepositorySnapshotPtr repository = BuildRepository(*data, 1);

  core::PpqOptions ppq = core::MakePpqA();
  core::PpqTrajectory unsharded(ppq);
  unsharded.Compress(*data);

  Rng rng(23);
  const auto queries = SampleQueries(*data, 30, &rng);
  const auto windows = test::SampleWindows(*data, 15, &rng);
  const auto requests = MakeRequests(queries, windows);

  ShardedQueryService::Options sharded_options;
  sharded_options.num_threads = workers;
  sharded_options.raw = data;
  sharded_options.cell_size = cell;
  ShardedQueryService sharded(repository, sharded_options);

  core::QueryService::Options flat_options;
  flat_options.num_threads = workers;
  flat_options.raw = data;
  flat_options.cell_size = cell;
  core::QueryService flat(unsharded.Seal(), flat_options);

  auto sharded_futures = sharded.SubmitBatch(requests);
  auto flat_futures = flat.SubmitBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryResponse a = sharded_futures[i].get();
    const QueryResponse b = flat_futures[i].get();
    EXPECT_TRUE(a.ok());
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.result, b.result) << "request " << i;
    // The deterministic stats agree too: same snapshot, same algorithm,
    // same candidate walks.
    EXPECT_EQ(a.stats.candidates_visited, b.stats.candidates_visited)
        << "request " << i;
    EXPECT_EQ(a.stats.points_decoded, b.stats.points_decoded)
        << "request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, OneShardEquivalence,
                         ::testing::Values(size_t{1}, size_t{4}));

// -------------------------------------------------------------------------
// Merge semantics corner cases
// -------------------------------------------------------------------------

TEST(ShardedMergeTest, KnnTiesAtShardBoundariesResolveById) {
  // Eight trajectories tracing the SAME path: every shard reconstructs
  // the same positions, so all eight k-NN candidates tie in distance and
  // the merged top-k must be the k smallest ids — regardless of which
  // shard each id lives in.
  TrajectoryDataset data;
  for (int i = 0; i < 8; ++i) {
    Trajectory traj;
    traj.start_tick = 0;
    for (Tick t = 0; t < 20; ++t) {
      traj.points.push_back(Point{-8.6 + 1e-4 * std::sin(0.3 * t),
                                  41.15 + 1e-4 * std::cos(0.3 * t)});
    }
    data.Add(std::move(traj));
  }

  const RepositorySnapshotPtr repository = BuildRepository(data, 2);
  // The tie genuinely straddles the boundary: ids 0..7 occupy both
  // shards (pinned hash: ids 2,4,5,6 -> shard 0, ids 0,1,3,7 -> shard 1).
  std::set<uint32_t> owners;
  for (TrajId id = 0; id < 8; ++id) {
    owners.insert(repository->shard_map().ShardOf(id));
  }
  ASSERT_EQ(owners.size(), 2u);

  const auto raw = std::make_shared<const TrajectoryDataset>(data);
  const double cell = core::PpqOptions{}.tpi.pi.cell_size;
  ShardedQueryService::Options options;
  options.num_threads = 2;
  options.raw = raw;
  options.cell_size = cell;
  ShardedQueryService service(repository, options);

  const QuerySpec query{data[0].At(10), 10};
  const QueryResponse response = service.Submit(KnnRequest{query, 4}).get();
  ASSERT_TRUE(response.ok());
  const std::vector<Neighbor>& neighbors = response.neighbors();
  ASSERT_EQ(neighbors.size(), 4u);

  // All candidates reconstruct identically -> equal distances -> the id
  // tie-break picks 0,1,2,3 in order. If shards reconstructed the shared
  // path differently, this is where it would show.
  for (const Neighbor& n : neighbors) {
    EXPECT_EQ(n.distance, neighbors[0].distance);
  }
  for (size_t i = 0; i < neighbors.size(); ++i) {
    EXPECT_EQ(neighbors[i].id, static_cast<TrajId>(i));
  }

  // And the oracle agrees (it is the general contract, ties included).
  const ShardOracle oracle(repository, raw.get(), cell);
  EXPECT_EQ(response.result, oracle.Eval(KnnRequest{query, 4}));
}

TEST(ShardedMergeTest, KnnEqualsBruteForceAtSparseTicksOverEightShards) {
  // Ids 0..7 trace one shared path over ticks 0..29; ids 8..39 walk
  // apart over ticks 0..19 only. Past tick 19 every shard holds fewer
  // than k ids (most hold none), and the shared path puts equal
  // distances on both sides of shard boundaries. Every answer must be
  // the first k of all shards' reconstructions under (distance, id).
  TrajectoryDataset data;
  Rng walk(5);
  for (int i = 0; i < 40; ++i) {
    Trajectory traj;
    traj.start_tick = 0;
    Point p{-8.6 + walk.Uniform(-0.01, 0.01), 41.15 + walk.Uniform(-0.01, 0.01)};
    for (Tick t = 0; t < (i < 8 ? 30 : 20); ++t) {
      if (i < 8) {
        p = Point{-8.6 + 1e-3 * std::sin(0.2 * t),
                  41.15 + 1e-3 * std::cos(0.2 * t)};
      } else {
        p = Point{p.x + walk.Uniform(-2e-4, 2e-4),
                  p.y + walk.Uniform(-2e-4, 2e-4)};
      }
      traj.points.push_back(p);
    }
    data.Add(std::move(traj));
  }
  const RepositorySnapshotPtr repository = BuildRepository(data, 8);
  const auto raw = std::make_shared<const TrajectoryDataset>(data);
  const double cell = core::PpqOptions{}.tpi.pi.cell_size;
  ShardedQueryService::Options options;
  options.num_threads = 2;
  options.raw = raw;
  options.cell_size = cell;
  ShardedQueryService service(repository, options);
  const ShardOracle oracle(repository, raw.get(), cell);

  bool sparse_shard = false;
  bool straddling_tie = false;
  Rng rng(9);
  for (Tick t = 0; t < 30; ++t) {
    // Every shard's reconstructions at t, tagged with their shard.
    std::vector<std::pair<Neighbor, size_t>> all;
    const Point q{data[0].At(t).x + rng.Uniform(-2e-3, 2e-3),
                  data[0].At(t).y + rng.Uniform(-2e-3, 2e-3)};
    for (size_t s = 0; s < repository->shards().size(); ++s) {
      core::DecodeMemo memo;
      size_t held = 0;
      for (TrajId id = 0; id < 40; ++id) {
        const auto p = repository->shards()[s]->Reconstruct(id, t, &memo);
        if (!p.ok()) continue;
        double d = 0.0;
        simd::Distances(&*p, 1, q, &d);
        all.push_back({Neighbor{id, d}, s});
        ++held;
      }
      sparse_shard |= held > 0 && held < kK;
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return core::NeighborOrder(a.first, b.first);
    });
    for (const size_t k : {size_t{1}, kK, size_t{12}}) {
      std::vector<Neighbor> want;
      for (size_t i = 0; i < all.size() && i < k; ++i) {
        want.push_back(all[i].first);
        straddling_tie |= i > 0 && all[i].first.distance ==
                                       all[i - 1].first.distance &&
                          all[i].second != all[i - 1].second;
      }
      const QueryResponse response =
          service.Submit(KnnRequest{QuerySpec{q, t}, k}).get();
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response.neighbors(), want) << "tick " << t << " k " << k;
      EXPECT_EQ(response.result, oracle.Eval(KnnRequest{QuerySpec{q, t}, k}))
          << "tick " << t << " k " << k;
    }
  }
  EXPECT_TRUE(sparse_shard);
  EXPECT_TRUE(straddling_tie);
}

TEST(ShardedMergeTest, EmptyShardsAreTransparent) {
  // 3 trajectories across 8 shards: most shards are empty and must
  // contribute nothing — not errors, not phantom candidates.
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(61, 3));
  const double cell = core::PpqOptions{}.tpi.pi.cell_size;
  const RepositorySnapshotPtr repository = BuildRepository(*data, 8);
  size_t empty = 0;
  for (const core::SnapshotPtr& shard : repository->shards()) {
    if (shard->NumTrajectories() == 0) ++empty;
  }
  ASSERT_GE(empty, 5u);

  const ShardOracle oracle(repository, data.get(), cell);
  Rng rng(31);
  const auto queries = SampleQueries(*data, 20, &rng);
  const auto windows = test::SampleWindows(*data, 10, &rng);

  ShardedQueryService::Options options;
  options.num_threads = 2;
  options.raw = data;
  options.cell_size = cell;
  ShardedQueryService service(repository, options);
  ExpectMatchesOracle(service, oracle, MakeRequests(queries, windows),
                      "empty shards");
}

TEST(ShardedMergeTest, ExactModeAnswersAreShardCountInvariant) {
  // kExact verifies every candidate against the raw data, so the id sets
  // it returns must not depend on how the repository was sharded — even
  // though each shard count quantizes (and therefore reconstructs)
  // differently.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const double cell = core::PpqOptions{}.tpi.pi.cell_size;

  core::PpqOptions ppq = core::MakePpqA();
  core::PpqTrajectory unsharded(ppq);
  unsharded.Compress(*data);
  const QueryEngine engine(&unsharded, data.get(), cell);

  Rng rng(41);
  const auto queries = SampleQueries(*data, 30, &rng);
  const auto windows = test::SampleWindows(*data, 15, &rng);

  for (const uint32_t num_shards : {2u, 4u}) {
    const RepositorySnapshotPtr repository =
        BuildRepository(*data, num_shards);
    ShardedQueryService::Options options;
    options.num_threads = 2;
    options.raw = data;
    options.cell_size = cell;
    ShardedQueryService service(repository, options);
    for (const QuerySpec& q : queries) {
      const QueryResponse response =
          service.Submit(StrqRequest{q, StrqMode::kExact}).get();
      EXPECT_EQ(response.strq().ids, engine.Strq(q, StrqMode::kExact).ids)
          << num_shards << " shards";
    }
    for (const WindowSpec& w : windows) {
      const QueryResponse response =
          service.Submit(WindowRequest{w, StrqMode::kExact}).get();
      EXPECT_EQ(response.strq().ids,
                engine.WindowQuery(w.window, w.tick, StrqMode::kExact).ids)
          << num_shards << " shards";
    }
  }
}

// -------------------------------------------------------------------------
// Validation
// -------------------------------------------------------------------------

TEST(ShardedServiceLifetimeTest, RejectsInvalidConstructionAndSwap) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const RepositorySnapshotPtr repository = BuildRepository(*data, 2);

  ShardedQueryService::Options null_options;
  null_options.num_threads = 1;
  EXPECT_THROW(ShardedQueryService(nullptr, null_options),
               std::invalid_argument);

  // A dataset smaller than the repository's total cannot be its source.
  ShardedQueryService::Options small_raw;
  small_raw.num_threads = 1;
  small_raw.raw = std::make_shared<const TrajectoryDataset>(
      test::MakePortoDataset({3, 50, 15, 50, 99}));
  EXPECT_THROW(ShardedQueryService(repository, small_raw),
               std::invalid_argument);

  ShardedQueryService::Options options;
  options.num_threads = 1;
  options.raw = data;
  ShardedQueryService service(repository, options);
  EXPECT_THROW(service.UpdateView(RepositorySnapshotPtr{}),
               std::invalid_argument);
  EXPECT_EQ(service.repository().get(), repository.get());
}

}  // namespace
}  // namespace ppq::repo
