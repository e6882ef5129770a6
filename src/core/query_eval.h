#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/simd.h"
#include "core/compressor.h"
#include "core/query_types.h"
#include "core/snapshot.h"
#include "index/temporal_index.h"
#include "obs/trace.h"

/// \file query_eval.h
/// The spatio-temporal query algorithms of Section 5.2 (STRQ local search,
/// window queries, best-first k-NN), written once as templates over a
/// minimal Reader concept so that the serial QueryEngine and every
/// per-shard leg of the async QueryService evaluate *the same code* —
/// results are byte-identical by construction, whichever path (and
/// whichever thread count) served them.
///
/// A Reader provides:
///   Result<Point> Reconstruct(TrajId id, Tick t) const;
///   size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
///                          Point* out) const;
///   const index::TemporalPartitionIndex* index() const;
///   double LocalSearchRadius() const;
/// ReconstructSpan writes the decodable prefix of [tick_begin,
/// tick_begin + n) and returns how many points it wrote — the batched form
/// the evaluation loops below prefer: candidates are decoded into compact
/// arrays and the geometry (containment, rectangle distance, kNN scoring)
/// runs through the simd.h kernels, whose scalar references keep answers
/// bit-identical to the historical per-point loops.
///
/// It is the Reader that decides where decode scratch lives: the serial
/// engine uses the compressor's internal memo, the executor hands every
/// worker thread its own DecodeMemo.

namespace ppq::core::eval {

/// Reader over a live compressor: decode goes through the method's own
/// (internal, single-threaded) memo.
struct CompressorReader {
  const Compressor* method;

  Result<Point> Reconstruct(TrajId id, Tick t) const {
    return method->Reconstruct(id, t);
  }
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const {
    return method->ReconstructSpan(id, tick_begin, n, out);
  }
  const index::TemporalPartitionIndex* index() const {
    return method->index();
  }
  double LocalSearchRadius() const { return method->LocalSearchRadius(); }
};

/// Reader over a sealed snapshot with caller-owned scratch — the
/// concurrent-safe path.
struct SnapshotReader {
  const SummarySnapshot* snapshot;
  DecodeMemo* scratch;

  Result<Point> Reconstruct(TrajId id, Tick t) const {
    return snapshot->Reconstruct(id, t, scratch);
  }
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const {
    return snapshot->ReconstructSpan(id, tick_begin, n, out, scratch);
  }
  const index::TemporalPartitionIndex* index() const {
    return snapshot->index();
  }
  double LocalSearchRadius() const { return snapshot->LocalSearchRadius(); }
};

/// Per-evaluation stage accumulator: nanoseconds per ServeStage (nanos
/// because individual samples — one span decode, one kernel pass — are
/// often sub-microsecond; the services convert to micros once at the end).
/// Carried by CountingReader so the evaluation templates can attribute
/// wall time to stages without taking new parameters: readers that carry
/// no sink (the serial engine's CompressorReader) get a null sink and the
/// timers compile down to a pointer test — results stay bit-identical and
/// the untimed path stays clock-free.
struct StageNanos {
  std::array<uint64_t, kNumServeStages> v{};
};

/// StagesOf(reader): the reader's stage sink, or nullptr for readers that
/// don't carry one. Detection is on a member named `stages` of type
/// StageNanos*, so only readers that opt in are ever timed.
template <typename Reader>
inline auto StagesOfImpl(const Reader& reader, int) -> decltype(reader.stages) {
  return reader.stages;
}
template <typename Reader>
inline StageNanos* StagesOfImpl(const Reader&, long) {
  return nullptr;
}
template <typename Reader>
inline StageNanos* StagesOf(const Reader& reader) {
  return StagesOfImpl(reader, 0);
}

/// Add \p cells decoded cell lists to the reader's QueryStats, for readers
/// that carry one (a member `stats` of type QueryStats*); a no-op for the
/// rest. The scan's own work counter, beside the stage timers.
template <typename Reader>
inline auto CountCellsImpl(const Reader& reader, size_t cells, int)
    -> decltype(void(reader.stats->cells_decoded)) {
  reader.stats->cells_decoded += cells;
}
template <typename Reader>
inline void CountCellsImpl(const Reader&, size_t, long) {}
template <typename Reader>
inline void CountCellsDecoded(const Reader& reader, size_t cells) {
  CountCellsImpl(reader, cells, 0);
}

/// \brief RAII stage interval: adds [construction, destruction) to one
/// stage of a StageNanos sink. A null sink skips the clock entirely.
class StageTimer {
 public:
  StageTimer(StageNanos* sink, ServeStage stage) : sink_(sink), stage_(stage) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (sink_ == nullptr) return;
    sink_->v[static_cast<size_t>(stage_)] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageNanos* sink_;
  ServeStage stage_;
  std::chrono::steady_clock::time_point start_{};
};

/// Convert an evaluation's accumulated stage nanos into the response's
/// stage_micros (truncating division, matching the historical
/// decode_micros semantics) and fill decode_micros from the decode stage.
/// The queue stage is stamped later, by the dispatcher.
inline void FillStageMicros(const StageNanos& stages, QueryStats* stats) {
  for (size_t i = 0; i < kNumServeStages; ++i) {
    stats->stage_micros[i] = stages.v[i] / 1000;
  }
  stats->decode_micros =
      stages.v[static_cast<size_t>(ServeStage::kDecode)] / 1000;
}

/// Wraps any Reader and accounts every Reconstruct call into a QueryStats
/// (points decoded + wall time spent decoding, attributed to the decode
/// stage of the carried StageNanos sink). This is how QueryService fills
/// per-query cost stats without the algorithms knowing: the counting is a
/// reader concern, so the evaluation templates — and therefore the
/// results — are bit-for-bit the same with or without it.
template <typename Inner>
struct CountingReader {
  Inner inner;
  QueryStats* stats;
  /// Per-stage wall-time sink; decode samples accumulate into
  /// stages->v[kDecode]. Must be non-null.
  StageNanos* stages;

  Result<Point> Reconstruct(TrajId id, Tick t) const {
    const auto start = std::chrono::steady_clock::now();
    Result<Point> r = inner.Reconstruct(id, t);
    stages->v[static_cast<size_t>(ServeStage::kDecode)] +=
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    ++stats->points_decoded;
    return r;
  }
  /// One timing sample per span (not per point), so decode_micros stays
  /// comparable with the pre-batching numbers. points_decoded counts what
  /// an equivalent per-point loop would have: every written point, plus
  /// the one failed attempt that would have ended a cut-short span.
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const {
    const auto start = std::chrono::steady_clock::now();
    const size_t m = inner.ReconstructSpan(id, tick_begin, n, out);
    stages->v[static_cast<size_t>(ServeStage::kDecode)] +=
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    stats->points_decoded += (m == n) ? n : m + 1;
    return m;
  }
  const index::TemporalPartitionIndex* index() const { return inner.index(); }
  double LocalSearchRadius() const { return inner.LocalSearchRadius(); }
};

/// \brief The global grid cell containing a point, as [min, max) bounds.
struct GridCell {
  double min_x, min_y, max_x, max_y;

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x < max_x && p.y >= min_y && p.y < max_y;
  }
  Point Center() const {
    return {(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }
};

inline GridCell CellOf(const Point& p, double cell_size) {
  const double cx = std::floor(p.x / cell_size);
  const double cy = std::floor(p.y / cell_size);
  return GridCell{cx * cell_size, cy * cell_size, (cx + 1) * cell_size,
                  (cy + 1) * cell_size};
}

/// \brief Decoded candidate set at one tick: parallel id/position arrays,
/// compact so the geometry kernels can run over the positions directly.
struct DecodedCandidates {
  std::vector<TrajId> ids;
  std::vector<Point> positions;
};

/// Decode every candidate's position at tick \p t into \p out, replacing
/// what it held (its buffers are reused). Candidates that fail to decode
/// (expired id, tick outside the record) are dropped, exactly like the
/// historical `if (!recon.ok()) continue;`. Goes through the span API
/// (n = 1) so CountingReader attributes cost identically either way.
template <typename Reader>
void DecodeAt(const Reader& reader, const std::vector<TrajId>& candidates,
              Tick t, DecodedCandidates* out) {
  PPQ_ZONE("eval.decode");
  out->ids.clear();
  out->positions.clear();
  out->ids.reserve(candidates.size());
  out->positions.reserve(candidates.size());
  Point p;
  for (TrajId id : candidates) {
    if (reader.ReconstructSpan(id, t, 1, &p) == 1) {
      out->ids.push_back(id);
      out->positions.push_back(p);
    }
  }
}

/// Spatio-temporal range query at (q.position, q.tick).
template <typename Reader>
StrqResult Strq(const Reader& reader, const TrajectoryDataset* raw,
                double cell_size, const QuerySpec& q, StrqMode mode) {
  StrqResult result;
  const index::TemporalPartitionIndex* tpi = reader.index();
  if (tpi == nullptr) return result;

  const GridCell cell = CellOf(q.position, cell_size);
  const double radius =
      (mode == StrqMode::kApproximate) ? 0.0 : reader.LocalSearchRadius();

  // Candidate sweep: every indexed point within `radius` of the query cell
  // lies inside the disc around the cell centre with radius
  // (cell half-diagonal + radius).
  StageNanos* const stages = StagesOf(reader);
  const double sweep = std::sqrt(2.0) / 2.0 * cell_size + radius + 1e-12;
  std::vector<TrajId> coarse;
  {
    PPQ_ZONE("eval.scan");
    StageTimer timer(stages, ServeStage::kScan);
    CountCellsDecoded(reader,
                      tpi->QueryCircle(cell.Center(), sweep, q.tick, &coarse));
    std::sort(coarse.begin(), coarse.end());
    coarse.erase(std::unique(coarse.begin(), coarse.end()), coarse.end());
  }

  DecodedCandidates decoded;
  DecodeAt(reader, coarse, q.tick, &decoded);
  const size_t n = decoded.positions.size();

  PPQ_ZONE("eval.kernel");
  StageTimer kernel_timer(stages, ServeStage::kKernel);
  if (mode == StrqMode::kApproximate) {
    std::vector<uint8_t> mask(n);
    simd::ContainsMask(decoded.positions.data(), n, cell.min_x, cell.min_y,
                       cell.max_x, cell.max_y, mask.data());
    for (size_t i = 0; i < n; ++i) {
      if (mask[i]) result.ids.push_back(decoded.ids[i]);
    }
    return result;
  }

  std::vector<double> dist(n);
  simd::RegionDistances(decoded.positions.data(), n, cell.min_x, cell.min_y,
                        cell.max_x, cell.max_y, dist.data());
  for (size_t i = 0; i < n; ++i) {
    if (dist[i] > radius) continue;  // cannot be in the cell by Lemma 3
    const TrajId id = decoded.ids[i];
    if (mode == StrqMode::kLocalSearch) {
      result.ids.push_back(id);
      continue;
    }
    // kExact: verify against the raw trajectory. Ids beyond the dataset
    // (a mismatched verification set) cannot be verified and are dropped.
    ++result.candidates_visited;
    if (raw != nullptr && static_cast<size_t>(id) < raw->size()) {
      const Trajectory& traj = (*raw)[static_cast<size_t>(id)];
      if (traj.ActiveAt(q.tick) && cell.Contains(traj.At(q.tick))) {
        result.ids.push_back(id);
      }
    }
  }
  return result;
}

/// Window query: trajectories inside an arbitrary rectangle at tick t.
template <typename Reader>
StrqResult WindowQuery(const Reader& reader, const TrajectoryDataset* raw,
                       const Window& window, Tick t, StrqMode mode) {
  StrqResult result;
  const index::TemporalPartitionIndex* tpi = reader.index();
  if (tpi == nullptr) return result;
  if (window.max_x <= window.min_x || window.max_y <= window.min_y) {
    return result;
  }

  StageNanos* const stages = StagesOf(reader);
  const double radius =
      (mode == StrqMode::kApproximate) ? 0.0 : reader.LocalSearchRadius();
  const Point center{(window.min_x + window.max_x) / 2.0,
                     (window.min_y + window.max_y) / 2.0};
  const double half_diag =
      std::sqrt((window.max_x - window.min_x) * (window.max_x - window.min_x) +
                (window.max_y - window.min_y) * (window.max_y - window.min_y)) /
      2.0;
  std::vector<TrajId> coarse;
  {
    PPQ_ZONE("eval.scan");
    StageTimer timer(stages, ServeStage::kScan);
    CountCellsDecoded(
        reader, tpi->QueryCircle(center, half_diag + radius + 1e-12, t, &coarse));
    std::sort(coarse.begin(), coarse.end());
    coarse.erase(std::unique(coarse.begin(), coarse.end()), coarse.end());
  }

  DecodedCandidates decoded;
  DecodeAt(reader, coarse, t, &decoded);
  const size_t n = decoded.positions.size();

  PPQ_ZONE("eval.kernel");
  StageTimer kernel_timer(stages, ServeStage::kKernel);
  if (mode == StrqMode::kApproximate) {
    std::vector<uint8_t> mask(n);
    simd::ContainsMask(decoded.positions.data(), n, window.min_x,
                       window.min_y, window.max_x, window.max_y, mask.data());
    for (size_t i = 0; i < n; ++i) {
      if (mask[i]) result.ids.push_back(decoded.ids[i]);
    }
    return result;
  }

  std::vector<double> dist(n);
  simd::RegionDistances(decoded.positions.data(), n, window.min_x,
                        window.min_y, window.max_x, window.max_y, dist.data());
  for (size_t i = 0; i < n; ++i) {
    if (dist[i] > radius) continue;
    const TrajId id = decoded.ids[i];
    if (mode == StrqMode::kLocalSearch) {
      result.ids.push_back(id);
      continue;
    }
    ++result.candidates_visited;
    if (raw != nullptr && static_cast<size_t>(id) < raw->size()) {
      const Trajectory& traj = (*raw)[static_cast<size_t>(id)];
      if (traj.ActiveAt(t) && window.Contains(traj.At(t))) {
        result.ids.push_back(id);
      }
    }
  }
  return result;
}

/// k-nearest-trajectory query, answered entirely from the summary by a
/// best-first search over the index: the cells occupied at q.tick, across
/// the covering period's subregions, are visited in ascending distance
/// from q, and every id in a visited cell is ranked by the distance of its
/// reconstruction. The search stops once the next cell lies farther than
/// min(k-th distance so far, \p bound) plus the local-search radius.
/// Indexed positions lie within that radius of their reconstructions
/// (Lemma 3), so no unvisited id can rank ahead of the k-th: the answer is
/// exactly the first k reconstructions under NeighborOrder. \p bound lets
/// a caller merging several legs prune with the k-th distance it already
/// holds; the leg then still returns every neighbour that ranks within the
/// bound. A query position that is not finite has no nearest trajectories.
template <typename Reader>
std::vector<Neighbor> NearestTrajectories(
    const Reader& reader, const QuerySpec& q, size_t k,
    double bound = std::numeric_limits<double>::infinity()) {
  std::vector<Neighbor> best;  // max-heap under NeighborOrder: k-th on top
  const index::TemporalPartitionIndex* tpi = reader.index();
  if (tpi == nullptr || k == 0 || !std::isfinite(q.position.x) ||
      !std::isfinite(q.position.y)) {
    return best;
  }
  const index::Period* period = tpi->FindPeriod(q.tick);
  if (period == nullptr) return best;
  const std::vector<index::SubRegion>& regions = period->pi.regions();

  StageNanos* const stages = StagesOf(reader);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double radius = reader.LocalSearchRadius();
  // Entries farther than min(k-th, bound) + radius cannot hold an answer;
  // the margin absorbs rounding in the cell geometry.
  const double margin =
      1e-9 * (1.0 + std::abs(q.position.x) + std::abs(q.position.y));
  const auto farther = [](const index::CellHit& a, const index::CellHit& b) {
    return a.distance > b.distance;
  };

  std::vector<index::CellHit> frontier;  // a heap, nearest on top
  {
    PPQ_ZONE("eval.scan");
    StageTimer timer(stages, ServeStage::kScan);
    for (size_t r = 0; r < regions.size(); ++r) {
      regions[r].grid.CellsAt(q.position, q.tick, static_cast<uint32_t>(r),
                              &frontier);
    }
    std::make_heap(frontier.begin(), frontier.end(), farther);
  }

  std::vector<TrajId> ids;
  DecodedCandidates decoded;
  std::vector<double> dist;
  size_t cells = 0;
  while (!frontier.empty()) {
    const double kth = best.size() == k ? best.front().distance : kInf;
    const double stop = std::min(kth, bound) + radius;
    const double limit = stop + margin * (1.0 + stop);
    if (frontier.front().distance > limit) break;
    std::pop_heap(frontier.begin(), frontier.end(), farther);
    const index::CellHit next = frontier.back();
    frontier.pop_back();
    const index::GridIndex& grid = regions[next.region].grid;
    {
      PPQ_ZONE("eval.scan");
      StageTimer timer(stages, ServeStage::kScan);
      ids.clear();
      grid.AppendIds(next.list, &ids);
      ++cells;
    }

    DecodeAt(reader, ids, q.tick, &decoded);
    const size_t n = decoded.ids.size();

    PPQ_ZONE("eval.kernel");
    StageTimer timer(stages, ServeStage::kKernel);
    dist.resize(n);
    simd::Distances(decoded.positions.data(), n, q.position, dist.data());
    for (size_t i = 0; i < n; ++i) {
      const Neighbor candidate{decoded.ids[i], dist[i]};
      if (best.size() == k && !NeighborOrder(candidate, best.front())) continue;
      // An id indexed twice at the tick (a batch that repeated it) has one
      // reconstruction, so it is ranked once.
      if (std::any_of(best.begin(), best.end(), [&](const Neighbor& b) {
            return b.id == candidate.id;
          })) {
        continue;
      }
      if (best.size() == k) {
        std::pop_heap(best.begin(), best.end(), NeighborOrder);
        best.pop_back();
      }
      best.push_back(candidate);
      std::push_heap(best.begin(), best.end(), NeighborOrder);
    }
  }
  std::sort_heap(best.begin(), best.end(), NeighborOrder);
  CountCellsDecoded(reader, cells);
  return best;
}

/// Trajectory path query: STRQ then reconstruct the next \p length
/// positions of every matching trajectory.
template <typename Reader>
TpqResult Tpq(const Reader& reader, const TrajectoryDataset* raw,
              double cell_size, const QuerySpec& q, int length,
              StrqMode mode) {
  TpqResult result;
  const StrqResult strq = Strq(reader, raw, cell_size, q, mode);
  result.candidates_visited = strq.candidates_visited;
  const size_t want = length > 0 ? static_cast<size_t>(length) : 0;
  for (TrajId id : strq.ids) {
    // One span decode per matching trajectory; the decodable prefix is the
    // path (shorter than `length` when the trajectory ends first).
    std::vector<Point> path(want);
    const size_t got = reader.ReconstructSpan(id, q.tick, want, path.data());
    path.resize(got);
    result.ids.push_back(id);
    result.paths.push_back(std::move(path));
  }
  return result;
}

}  // namespace ppq::core::eval
