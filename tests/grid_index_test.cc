#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "common/random.h"
#include "index/grid_index.h"

namespace ppq::index {
namespace {

GridIndex MakeUnitGrid(double cell = 0.1) {
  return GridIndex(Rect{0.0, 0.0, 1.0, 1.0}, cell);
}

/// Index one point: a batch of one.
void InsertPoint(GridIndex* g, Tick t, TrajId id, Point p) {
  g->Insert(t, &id, &p, 1);
}

TEST(GridIndexTest, CellCounts) {
  const GridIndex g = MakeUnitGrid(0.1);
  EXPECT_EQ(g.cells_x(), 10);
  EXPECT_EQ(g.cells_y(), 10);
  // A cell size wider than the region collapses to a single cell.
  const GridIndex one(Rect{0.0, 0.0, 0.5, 0.5}, 2.0);
  EXPECT_EQ(one.cells_x(), 1);
  EXPECT_EQ(one.cells_y(), 1);
}

TEST(GridIndexTest, InsertAndQuerySameCell) {
  GridIndex g = MakeUnitGrid();
  InsertPoint(&g, 5, 1, {0.15, 0.15});
  InsertPoint(&g, 5, 2, {0.16, 0.14});
  InsertPoint(&g, 5, 3, {0.85, 0.85});
  const auto ids = g.Query({0.12, 0.18}, 5);
  EXPECT_EQ(ids, (std::vector<TrajId>{1, 2}));
  EXPECT_TRUE(g.Query({0.12, 0.18}, 6).empty());  // different tick
  EXPECT_TRUE(g.Query({0.5, 0.5}, 5).empty());    // empty cell
}

TEST(GridIndexTest, CountAtTracksInserts) {
  GridIndex g = MakeUnitGrid();
  InsertPoint(&g, 1, 1, {0.1, 0.1});
  InsertPoint(&g, 1, 2, {0.9, 0.9});
  InsertPoint(&g, 2, 3, {0.5, 0.5});
  EXPECT_EQ(g.CountAt(1), 2u);
  EXPECT_EQ(g.CountAt(2), 1u);
  EXPECT_EQ(g.CountAt(3), 0u);
}

TEST(GridIndexTest, BoundaryPointsClampIntoGrid) {
  GridIndex g = MakeUnitGrid();
  InsertPoint(&g, 0, 7, {1.0, 1.0});  // exactly on the max corner
  EXPECT_EQ(g.Query({0.999, 0.999}, 0), (std::vector<TrajId>{7}));
}

TEST(GridIndexTest, UnsortedInsertsKeptSorted) {
  GridIndex g = MakeUnitGrid();
  InsertPoint(&g, 0, 9, {0.05, 0.05});
  InsertPoint(&g, 0, 3, {0.05, 0.05});
  InsertPoint(&g, 0, 5, {0.05, 0.05});
  EXPECT_EQ(g.Query({0.05, 0.05}, 0), (std::vector<TrajId>{3, 5, 9}));
}

TEST(GridIndexTest, FinalizePreservesQueries) {
  GridIndex g = MakeUnitGrid();
  Rng rng(3);
  std::vector<std::tuple<Tick, TrajId, Point>> inserted;
  for (int i = 0; i < 500; ++i) {
    const Tick t = static_cast<Tick>(rng.UniformInt(0, 5));
    const Point p{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    InsertPoint(&g, t, static_cast<TrajId>(i), p);
    inserted.push_back({t, static_cast<TrajId>(i), p});
  }
  // Snapshot queries before finalizing.
  std::vector<std::vector<TrajId>> before;
  for (const auto& [t, id, p] : inserted) before.push_back(g.Query(p, t));
  g.Finalize();
  EXPECT_TRUE(g.finalized());
  for (size_t i = 0; i < inserted.size(); ++i) {
    const auto& [t, id, p] = inserted[i];
    EXPECT_EQ(g.Query(p, t), before[i]);
  }
}

TEST(GridIndexTest, FinalizeShrinksDenseIndex) {
  GridIndex g = MakeUnitGrid(1.0);  // single cell: maximal list sharing
  for (int t = 0; t < 10; ++t) {
    for (TrajId id = 0; id < 200; ++id) {
      InsertPoint(&g, t, id, {0.5, 0.5});
    }
  }
  const size_t before = g.SizeBytes();
  g.Finalize();
  EXPECT_LT(g.SizeBytes(), before);
}

TEST(GridIndexTest, QueryCircleMatchesBruteForce) {
  GridIndex g = MakeUnitGrid(0.07);
  Rng rng(9);
  std::vector<std::pair<TrajId, Point>> points;
  for (int i = 0; i < 300; ++i) {
    const Point p{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    InsertPoint(&g, 0, static_cast<TrajId>(i), p);
    points.push_back({static_cast<TrajId>(i), p});
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Point center{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    const double radius = rng.Uniform(0.01, 0.3);
    std::vector<TrajId> got;
    g.QueryCircle(center, radius, 0, &got);
    std::sort(got.begin(), got.end());
    // Everything within the radius must be returned (cells are a
    // superset of the disc).
    for (const auto& [id, p] : points) {
      if (p.DistanceTo(center) <= radius) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "missing id " << id;
      }
    }
    // And nothing farther than the disc's cell cover can reach.
    const double slack = radius + 0.07 * std::sqrt(2.0);
    for (TrajId id : got) {
      EXPECT_LE(points[static_cast<size_t>(id)].second.DistanceTo(center),
                slack);
    }
  }
}

/// Save \p g, reload it, and require the reload to save the same bytes
/// and charge the same SizeBytes; returns the reloaded grid.
GridIndex RoundTrip(const GridIndex& g) {
  ByteWriter first;
  g.SaveTo(&first);
  ByteReader in(first.buffer());
  auto loaded = GridIndex::LoadFrom(&in);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return g;
  EXPECT_TRUE(in.AtEnd());
  ByteWriter second;
  loaded->SaveTo(&second);
  EXPECT_EQ(first.buffer(), second.buffer());
  EXPECT_EQ(loaded->SizeBytes(), g.SizeBytes());
  EXPECT_EQ(loaded->finalized(), g.finalized());
  return std::move(*loaded);
}

TEST(GridIndexTest, OutOfOrderTicksQueryAndRoundTripByteForByte) {
  GridIndex g = MakeUnitGrid(0.1);
  Rng rng(12);
  // (tick, cell key) -> ids, the brute-force view of what was inserted.
  std::map<std::pair<Tick, int64_t>, std::vector<TrajId>> truth;
  std::vector<std::pair<Tick, Point>> probes;
  const Tick ticks[] = {9, 2, 7, 2, 11, -4, 9, 5};
  for (int i = 0; i < 400; ++i) {
    const Tick t = ticks[i % 8];
    const Point p{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    const auto id = static_cast<TrajId>(1000 - 2 * i);  // descending
    InsertPoint(&g, t, id, p);
    const int64_t key = static_cast<int64_t>(std::floor(p.y / 0.1)) * 10 +
                        static_cast<int64_t>(std::floor(p.x / 0.1));
    truth[{t, key}].push_back(id);
    probes.push_back({t, p});
  }
  for (auto& [cell, ids] : truth) std::sort(ids.begin(), ids.end());
  EXPECT_EQ(g.CountAt(2), 100u);
  EXPECT_EQ(g.CountAt(-4), 50u);

  const auto check = [&](const GridIndex& grid) {
    for (const auto& [t, p] : probes) {
      const int64_t key = static_cast<int64_t>(std::floor(p.y / 0.1)) * 10 +
                          static_cast<int64_t>(std::floor(p.x / 0.1));
      EXPECT_EQ(grid.Query(p, t), (truth[{t, key}]));
    }
    // The cells listed at a tick are exactly the occupied ones, and
    // their lists hold every id indexed at that tick.
    for (const Tick t : {-4, 2, 5, 7, 9, 11, 3}) {
      std::vector<CellHit> cells;
      const Point probe{0.23, 0.61};
      grid.CellsAt(probe, t, 7, &cells);
      std::vector<TrajId> ids;
      for (const CellHit& hit : cells) {
        EXPECT_EQ(hit.region, 7u);
        std::vector<TrajId> list;
        grid.AppendIds(hit.list, &list);
        ASSERT_FALSE(list.empty());
        // The cell's distance is that of the cell holding its ids.
        for (const auto& [cell, cell_ids] : truth) {
          if (cell.first != t || cell_ids != list) continue;
          const double min_x = 0.1 * static_cast<double>(cell.second % 10);
          const double min_y = 0.1 * static_cast<double>(cell.second / 10);
          EXPECT_NEAR(hit.distance,
                      (Rect{min_x, min_y, min_x + 0.1, min_y + 0.1}
                           .DistanceTo(probe)),
                      1e-12);
        }
        ids.insert(ids.end(), list.begin(), list.end());
      }
      std::sort(ids.begin(), ids.end());
      std::vector<TrajId> want;
      size_t occupied = 0;
      for (const auto& [cell, list] : truth) {
        if (cell.first != t) continue;
        ++occupied;
        want.insert(want.end(), list.begin(), list.end());
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(cells.size(), occupied) << "tick " << t;
      EXPECT_EQ(ids, want) << "tick " << t;
      EXPECT_EQ(grid.CountAt(t), want.size()) << "tick " << t;
    }
  };
  check(g);
  check(RoundTrip(g));
  g.Finalize();
  check(g);
  check(RoundTrip(g));
}

TEST(GridIndexTest, BatchInsertsEqualPointInserts) {
  // The same points, once a tick's batch at a time (ticks out of order,
  // some ticks in two batches) and once point by point, index the same
  // lists.
  GridIndex batched = MakeUnitGrid(0.1);
  GridIndex pointwise = MakeUnitGrid(0.1);
  Rng rng(4);
  for (const Tick t : {3, 1, 3, 8, -2, 1}) {
    std::vector<TrajId> ids;
    std::vector<Point> positions;
    for (int i = 0; i < 60; ++i) {
      ids.push_back(static_cast<TrajId>(rng.UniformInt(0, 500)));
      positions.push_back({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 0.3)});
      InsertPoint(&pointwise, t, ids.back(), positions.back());
    }
    batched.Insert(t, ids.data(), positions.data(), ids.size());
  }
  batched.Insert(5, nullptr, nullptr, 0);  // an empty batch adds nothing
  ByteWriter a;
  batched.SaveTo(&a);
  ByteWriter b;
  pointwise.SaveTo(&b);
  EXPECT_EQ(a.buffer(), b.buffer());
  EXPECT_EQ(batched.CountAt(3), 120u);
  EXPECT_EQ(batched.CountAt(5), 0u);
}

TEST(GridIndexTest, TickSpanNearTwoToThe31RoundTrips) {
  // A grid whose ticks span ~2^31 must load without a per-tick
  // allocation over the span and serve the same lists.
  constexpr Tick kMin = std::numeric_limits<Tick>::min();
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  for (const bool finalize : {false, true}) {
    GridIndex g = MakeUnitGrid();
    InsertPoint(&g, kMax, 4, {0.15, 0.15});
    InsertPoint(&g, kMin, 2, {0.15, 0.15});
    InsertPoint(&g, 0, 3, {0.85, 0.15});
    InsertPoint(&g, kMin, 1, {0.15, 0.15});
    if (finalize) g.Finalize();
    const GridIndex loaded = RoundTrip(g);
    EXPECT_EQ(loaded.Query({0.15, 0.15}, kMin), (std::vector<TrajId>{1, 2}));
    EXPECT_EQ(loaded.Query({0.15, 0.15}, kMax), (std::vector<TrajId>{4}));
    EXPECT_EQ(loaded.Query({0.85, 0.15}, 0), (std::vector<TrajId>{3}));
    EXPECT_TRUE(loaded.Query({0.15, 0.15}, 0).empty());
  }
}

TEST(GridIndexTest, ForgedListOrderIsRejectedAtLoad) {
  // Writers emit ascending cell keys, ascending ticks within a cell,
  // only the list kind the finalized flag names, and a count for every
  // tick that holds a list.
  const auto grid_bytes = [](uint8_t finalized, uint64_t key_a,
                             uint64_t key_b, Tick tick_a, Tick tick_b,
                             bool counted = true) {
    ByteWriter out;
    for (double v : {0.0, 0.0, 1.0, 1.0, 0.1}) out.WriteF64(v);
    out.WriteU8(finalized);
    out.WriteU32(0);  // empty huffman table
    if (!counted) {
      out.WriteU64(0);  // no per-tick counts
    } else if (tick_a == tick_b) {
      out.WriteU64(1);
      out.WriteI32(tick_a);
      out.WriteU64(2);
    } else {
      out.WriteU64(2);
      for (const Tick tick : {tick_a, tick_b}) {
        out.WriteI32(tick);
        out.WriteU64(1);
      }
    }
    out.WriteU64(2);  // two cells, one raw list of one id each
    for (const auto& [key, tick] : {std::pair{key_a, tick_a}, std::pair{key_b, tick_b}}) {
      out.WriteU64(key);
      out.WriteU64(1);
      out.WriteI32(tick);
      out.WriteU64(1);
      out.WriteI32(5);
      out.WriteU64(0);
    }
    return out.buffer();
  };
  const auto load = [](const std::vector<uint8_t>& bytes) {
    ByteReader in(bytes);
    return GridIndex::LoadFrom(&in);
  };
  EXPECT_TRUE(load(grid_bytes(0, 3, 4, 1, 1)).ok());
  EXPECT_FALSE(load(grid_bytes(0, 4, 3, 1, 1)).ok());  // keys descending
  EXPECT_FALSE(load(grid_bytes(0, 3, 3, 1, 2)).ok());  // duplicate key
  EXPECT_FALSE(load(grid_bytes(1, 3, 4, 1, 1)).ok());  // raw list, finalized
  EXPECT_TRUE(load(grid_bytes(0, 3, 4, 1, 2)).ok());
  EXPECT_FALSE(load(grid_bytes(0, 3, 4, 1, 2, false)).ok());  // no counts
}

TEST(GridIndexTest, ForgedPackedListHeaderIsRejectedAtLoad) {
  // A finalized grid's lists go through ReadPackedList, the parser the
  // CompressedIdListIoTest forgeries pin: a count beyond bit_count, or a
  // bit_count whose bytes are not there (one near UINT32_MAX once wrapped
  // the byte length to 0), is rejected at load.
  const auto grid_bytes = [](uint32_t count, uint32_t bit_count) {
    ByteWriter out;
    for (double v : {0.0, 0.0, 1.0, 1.0, 0.1}) out.WriteF64(v);
    out.WriteU8(1);   // finalized
    out.WriteU32(0);  // empty huffman table
    out.WriteU64(1);  // one count, at tick 0
    out.WriteI32(0);
    out.WriteU64(count);
    out.WriteU64(1);  // one cell with one packed list
    out.WriteU64(3);
    out.WriteU64(0);
    out.WriteU64(1);
    out.WriteI32(0);
    out.WriteU32(count);
    out.WriteU32(bit_count);
    out.WriteU8(0xFF);  // one payload byte
    return out.buffer();
  };
  const auto load = [](const std::vector<uint8_t>& bytes) {
    ByteReader in(bytes);
    return GridIndex::LoadFrom(&in);
  };
  EXPECT_TRUE(load(grid_bytes(1, 8)).ok());
  for (const auto& [count, bit_count] :
       {std::pair<uint32_t, uint32_t>{2, 1}, {1, 9}, {0xFFFFFFFAu, 0xFFFFFFFAu}}) {
    const auto grid = load(grid_bytes(count, bit_count));
    ASSERT_FALSE(grid.ok()) << count << " ids in " << bit_count << " bits";
    EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GridIndexTest, SizeBytesGrowsWithContent) {
  GridIndex g = MakeUnitGrid();
  const size_t empty = g.SizeBytes();
  InsertPoint(&g, 0, 1, {0.5, 0.5});
  EXPECT_GT(g.SizeBytes(), empty);
}

TEST(GridIndexTest, ForgedCellProductIsRejectedAtLoad) {
  // Regression: each axis below passes the per-axis 2^30 bound, but the
  // grid would hold ~10^18 cells — enough for QueryCircle's scan to hang
  // a serving thread. The load-time validator bounds the product too.
  ByteWriter out;
  out.WriteF64(0.0);
  out.WriteF64(0.0);
  out.WriteF64(1e6);   // 1e9 cells wide at gc = 1e-3
  out.WriteF64(1e6);   // 1e9 cells high
  out.WriteF64(1e-3);
  out.WriteU8(0);      // not finalized
  out.WriteU32(0);     // empty huffman table
  out.WriteU64(0);     // no per-tick counts
  out.WriteU64(0);     // no cells
  ByteReader in(out.buffer());
  const auto grid = GridIndex::LoadFrom(&in);
  ASSERT_FALSE(grid.ok());
  EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument);
}

TEST(GridIndexTest, ExtremeCoordinatesDoNotOverflowCellMath) {
  // Regression: a grid whose region sits at astronomical coordinates (as
  // a forged-but-checksummed snapshot can produce), queried at normal
  // coordinates — or vice versa — used to push the float-to-int cell
  // cast out of int range, which is UB (UBSan trap). The cell coordinate
  // is now clamped in the double domain before any cast.
  GridIndex far(Rect{-1e300, -1e300, -1e300 + 1.0, -1e300 + 1.0}, 1e-3);
  EXPECT_TRUE(far.Query({0.0, 0.0}, 0).empty());
  std::vector<TrajId> out;
  far.QueryCircle({0.0, 0.0}, 1.0, 0, &out);
  EXPECT_TRUE(out.empty());

  // The far-away probe clamps into the edge cell; surviving the calls
  // (especially under UBSan) is the point, whatever they return.
  GridIndex unit = MakeUnitGrid();
  InsertPoint(&unit, 0, 7, {0.5, 0.5});
  (void)unit.Query({1e300, 1e300}, 0);
  out.clear();
  unit.QueryCircle({-1e300, 1e300}, 1e280, 0, &out);
}

}  // namespace
}  // namespace ppq::index
