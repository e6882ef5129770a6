#include <gtest/gtest.h>

#include "common/random.h"
#include "index/temporal_index.h"

namespace ppq::index {
namespace {

TemporalPartitionIndex::Options SmallOptions(double eps_d = 0.5,
                                             double eps_c = 0.5) {
  TemporalPartitionIndex::Options o;
  o.pi.epsilon_s = 0.5;
  o.pi.cell_size = 0.1;
  o.epsilon_d = eps_d;
  o.epsilon_c = eps_c;
  return o;
}

TimeSlice SliceAt(Tick t, const std::vector<Point>& points) {
  TimeSlice slice;
  slice.tick = t;
  for (size_t i = 0; i < points.size(); ++i) {
    slice.ids.push_back(static_cast<TrajId>(i));
    slice.positions.push_back(points[i]);
  }
  return slice;
}

/// A stable cloud of points near the origin.
std::vector<Point> StableCloud(Rng* rng, int n = 20) {
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({rng->Normal(0.0, 0.05), rng->Normal(0.0, 0.05)});
  }
  return points;
}

TEST(TemporalIndexTest, FirstSliceOpensPeriod) {
  Rng rng(1);
  TemporalPartitionIndex tpi(SmallOptions());
  tpi.Observe(SliceAt(5, StableCloud(&rng)));
  ASSERT_EQ(tpi.periods().size(), 1u);
  EXPECT_EQ(tpi.periods()[0].start, 5);
  EXPECT_EQ(tpi.periods()[0].end, 5);
  EXPECT_EQ(tpi.stats().num_periods, 1u);
}

TEST(TemporalIndexTest, StableDataReusesOnePeriod) {
  Rng rng(2);
  TemporalPartitionIndex tpi(SmallOptions());
  for (Tick t = 0; t < 20; ++t) {
    tpi.Observe(SliceAt(t, StableCloud(&rng)));
  }
  EXPECT_EQ(tpi.periods().size(), 1u);
  EXPECT_EQ(tpi.periods()[0].start, 0);
  EXPECT_EQ(tpi.periods()[0].end, 19);
  EXPECT_EQ(tpi.stats().num_rebuilds, 0u);
}

TEST(TemporalIndexTest, DistributionShiftTriggersRebuild) {
  Rng rng(3);
  TemporalPartitionIndex tpi(SmallOptions());
  for (Tick t = 0; t < 5; ++t) {
    tpi.Observe(SliceAt(t, StableCloud(&rng)));
  }
  // Teleport the whole population far away: every region's occupancy
  // collapses -> ADR = 1 > eps_d -> rebuild.
  std::vector<Point> moved;
  for (int i = 0; i < 20; ++i) {
    moved.push_back({100.0 + rng.Normal(0.0, 0.05),
                     100.0 + rng.Normal(0.0, 0.05)});
  }
  tpi.Observe(SliceAt(5, moved));
  EXPECT_EQ(tpi.periods().size(), 2u);
  EXPECT_EQ(tpi.stats().num_rebuilds, 1u);
  EXPECT_EQ(tpi.periods()[0].end, 4);
  EXPECT_EQ(tpi.periods()[1].start, 5);
}

TEST(TemporalIndexTest, NewRegionTriggersInsertionNotRebuild) {
  Rng rng(4);
  TemporalPartitionIndex tpi(SmallOptions());
  auto cloud = StableCloud(&rng);
  tpi.Observe(SliceAt(0, cloud));
  // Same cloud plus a new far-away point: the cloud's regions keep their
  // density, so the new point is an Insertion.
  auto extended = cloud;
  extended.push_back({50.0, 50.0});
  tpi.Observe(SliceAt(1, extended));
  EXPECT_EQ(tpi.periods().size(), 1u);
  EXPECT_EQ(tpi.stats().num_insertions, 1u);
  // The new point is queryable inside the same period.
  const auto ids = tpi.Query({50.0, 50.0}, 1);
  EXPECT_EQ(ids, (std::vector<TrajId>{static_cast<TrajId>(cloud.size())}));
}

TEST(TemporalIndexTest, QueriesRouteToCorrectPeriod) {
  Rng rng(5);
  TemporalPartitionIndex tpi(SmallOptions());
  for (Tick t = 0; t < 3; ++t) tpi.Observe(SliceAt(t, {{0.0, 0.0}}));
  for (Tick t = 3; t < 6; ++t) tpi.Observe(SliceAt(t, {{100.0, 100.0}}));
  ASSERT_EQ(tpi.periods().size(), 2u);
  EXPECT_FALSE(tpi.Query({0.0, 0.0}, 1).empty());
  EXPECT_TRUE(tpi.Query({0.0, 0.0}, 4).empty());
  EXPECT_FALSE(tpi.Query({100.0, 100.0}, 4).empty());
  // Outside all periods.
  EXPECT_TRUE(tpi.Query({0.0, 0.0}, 99).empty());
  EXPECT_EQ(tpi.FindPeriod(99), nullptr);
  EXPECT_EQ(tpi.FindPeriod(-1), nullptr);
}

TEST(TemporalIndexTest, QueryCircleFindsNeighbours) {
  Rng rng(6);
  TemporalPartitionIndex tpi(SmallOptions());
  tpi.Observe(SliceAt(0, {{0.0, 0.0}, {0.05, 0.0}, {3.0, 3.0}}));
  std::vector<TrajId> ids;
  tpi.QueryCircle({0.02, 0.0}, 0.2, 0, &ids);
  EXPECT_EQ(ids.size(), 2u);
}

/// Property (Tables 7/8): a larger eps_d tolerates more drift, producing
/// at most as many periods.
class EpsilonDMonotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EpsilonDMonotonicity, HigherToleranceFewerPeriods) {
  // Drifting population: points migrate steadily so rebuilds happen.
  const auto run = [&](double eps_d) {
    Rng rng(GetParam());
    TemporalPartitionIndex tpi(SmallOptions(eps_d, 0.3));
    for (Tick t = 0; t < 40; ++t) {
      std::vector<Point> points;
      const double drift = 0.15 * t;
      for (int i = 0; i < 15; ++i) {
        points.push_back(
            {drift + rng.Normal(0.0, 0.05), rng.Normal(0.0, 0.05)});
      }
      tpi.Observe(SliceAt(t, points));
    }
    return tpi.periods().size();
  };
  const size_t strict = run(0.1);
  const size_t loose = run(0.9);
  EXPECT_LE(loose, strict);
  EXPECT_GT(strict, 1u);  // the drift must actually cause rebuilds
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpsilonDMonotonicity,
                         ::testing::Values(7, 8, 9));

TEST(TemporalIndexTest, PeriodsTileTheTimeline) {
  Rng rng(10);
  TemporalPartitionIndex tpi(SmallOptions(0.2, 0.2));
  for (Tick t = 0; t < 50; ++t) {
    std::vector<Point> points;
    const double drift = 0.2 * t;
    for (int i = 0; i < 10; ++i) {
      points.push_back(
          {drift + rng.Normal(0.0, 0.05), rng.Normal(0.0, 0.05)});
    }
    tpi.Observe(SliceAt(t, points));
  }
  const auto& periods = tpi.periods();
  ASSERT_FALSE(periods.empty());
  EXPECT_EQ(periods.front().start, 0);
  EXPECT_EQ(periods.back().end, 49);
  for (size_t i = 1; i < periods.size(); ++i) {
    EXPECT_EQ(periods[i].start, periods[i - 1].end + 1);
  }
  // Every tick is covered by exactly one period.
  for (Tick t = 0; t < 50; ++t) {
    EXPECT_NE(tpi.FindPeriod(t), nullptr) << "tick " << t;
  }
}

TEST(TemporalIndexTest, FinalizeCompressesAndPreservesQueries) {
  Rng rng(11);
  TemporalPartitionIndex tpi(SmallOptions());
  const auto cloud = StableCloud(&rng, 30);
  for (Tick t = 0; t < 10; ++t) tpi.Observe(SliceAt(t, cloud));
  const auto before = tpi.Query(cloud[0], 5);
  tpi.Finalize();
  EXPECT_EQ(tpi.Query(cloud[0], 5), before);
}

TEST(TemporalIndexTest, SizeBytesGrowsWithPeriods) {
  Rng rng(12);
  TemporalPartitionIndex tpi(SmallOptions());
  tpi.Observe(SliceAt(0, StableCloud(&rng)));
  const size_t one = tpi.SizeBytes();
  tpi.Observe(SliceAt(1, {{100.0, 100.0}}));
  EXPECT_GT(tpi.SizeBytes(), one);
}

}  // namespace
}  // namespace ppq::index
