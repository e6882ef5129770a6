#pragma once

#include <vector>

#include "common/types.h"
#include "core/compressor.h"
#include "core/query_types.h"
#include "core/snapshot.h"

/// \file query_engine.h
/// Spatio-temporal query processing over a compressed summary
/// (Section 5.2): STRQ (Definition 5.2) and TPQ (Definition 5.3), with the
/// CQC-motivated local-search strategy that makes STRQ recall 1 and, after
/// verification against the raw data, precision 1.
///
/// QueryEngine is the thin SINGLE-QUERY adapter over the shared evaluation
/// code in query_eval.h — convenient for tests, examples, and one-off
/// queries against either a live compressor or a sealed snapshot. It is
/// not thread-safe (the live-compressor path decodes through the method's
/// internal memo); concurrent serving goes through QueryService, which
/// runs the exact same algorithms and therefore returns byte-identical
/// results.
///
/// Queries are evaluated against a *global* grid of gc-sized cells anchored
/// at the origin, shared by every method, so precision/recall are
/// comparable across methods regardless of each index's internal subregion
/// geometry (the paper's "grid cell that (x,y) is in").

namespace ppq::core {

/// \brief Single-query processor bound to one compressed method.
class QueryEngine {
 public:
  // Pre-split spellings of the shared query vocabulary (query_types.h)
  // kept as nested aliases for source compatibility.
  using Window = core::Window;
  using Neighbor = core::Neighbor;
  using TpqResult = core::TpqResult;

  /// \param method     the compressor whose summary/index answer queries.
  /// \param raw        the raw dataset, used only for kExact verification
  ///                   and allowed to be nullptr otherwise.
  /// \param cell_size  the evaluation grid cell size gc.
  QueryEngine(const Compressor* method, const TrajectoryDataset* raw,
              double cell_size)
      : method_(method), raw_(raw), cell_size_(cell_size) {}

  /// Serve single queries off a sealed snapshot instead of a live
  /// compressor (the engine keeps its own decode scratch).
  QueryEngine(SnapshotPtr snapshot, const TrajectoryDataset* raw,
              double cell_size)
      : snapshot_(std::move(snapshot)), raw_(raw), cell_size_(cell_size) {}

  /// Spatio-temporal range query at (q.position, q.tick).
  StrqResult Strq(const QuerySpec& q, StrqMode mode) const;

  /// Trajectory path query: STRQ then reconstruct the next \p length
  /// positions of every matching trajectory.
  TpqResult Tpq(const QuerySpec& q, int length, StrqMode mode) const;

  /// \brief Window query: trajectories inside an arbitrary rectangle at
  /// tick \p t. Generalises STRQ from one grid cell to a region; the same
  /// local-search argument applies with the rectangle in place of the
  /// cell, so kLocalSearch has recall 1 and kExact verifies to precision 1.
  StrqResult WindowQuery(const Window& window, Tick t, StrqMode mode) const;

  /// Ground truth for WindowQuery from the raw data.
  static std::vector<TrajId> WindowGroundTruth(const TrajectoryDataset& raw,
                                               const Window& window, Tick t);

  /// \brief k-nearest-trajectory query at (q.position, q.tick), answered
  /// entirely from the summary: a best-first search visits the index's
  /// occupied cells nearest first and stops once no unvisited cell can
  /// hold a reconstruction nearer than the k-th found, so the result is
  /// exactly the k nearest refined reconstructions (ties by id). By the
  /// method's deviation bound, every returned trajectory's true distance
  /// is within 2x that bound of the true k-NN set.
  std::vector<Neighbor> NearestTrajectories(const QuerySpec& q,
                                            size_t k) const;

  /// Ground truth for STRQ: ids whose *raw* position at q.tick shares the
  /// query's global grid cell.
  static std::vector<TrajId> GroundTruth(const TrajectoryDataset& raw,
                                         const QuerySpec& q,
                                         double cell_size);

  double cell_size() const { return cell_size_; }

 private:
  const Compressor* method_ = nullptr;
  SnapshotPtr snapshot_;
  /// Decode scratch for the snapshot path (single-threaded by contract).
  mutable DecodeMemo memo_;
  const TrajectoryDataset* raw_;
  double cell_size_;
};

}  // namespace ppq::core
