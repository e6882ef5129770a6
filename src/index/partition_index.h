#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "index/grid_index.h"
#include "index/rectangle.h"

/// \file partition_index.h
/// The partition-based index PI of Algorithm 3: the points of one time
/// slice are clustered with the eps_s threshold (Equation 7 applied in
/// index space), each cluster gets its minimum bounding rectangle, overlap
/// between rectangles is removed (polygon-to-rectangle decomposition), and
/// every final rectangle carries a grid index of gc-sized cells with
/// compressed trajectory-id lists.

namespace ppq::index {

/// \brief Construction parameters for PI.
struct PartitionIndexOptions {
  /// The index partition threshold eps_s.
  double epsilon_s = 0.1;
  /// Grid cell size gc, in coordinate units.
  double cell_size = 0.001;
  /// Growth step of the threshold clustering.
  int growth_step = 1;
  int kmeans_iterations = 10;
};

/// \brief One indexed subregion: a rectangle plus its grid, with the
/// baseline occupancy used by the TRD drop-rate test (Definition 5.1).
struct SubRegion {
  GridIndex grid;
  /// Number of points indexed at the tick this subregion was built
  /// (N_{R_i, ts}); the denominator |R_i| cancels in the drop rate h1.
  size_t baseline_count = 0;
  /// Tick at which this subregion was created.
  Tick built_at = 0;
};

/// \brief Partition-based index over one (or, after Append, several)
/// time-slice decompositions.
class PartitionIndex {
 public:
  PartitionIndex() = default;

  /// Algorithm 3: build the spatial decomposition from \p slice and index
  /// its points at slice.tick.
  static PartitionIndex Build(const TimeSlice& slice,
                              const PartitionIndexOptions& options, Rng* rng);

  /// Insert every point of \p slice that falls inside an existing
  /// subregion; returns the row indices of uncovered points (the paper's
  /// T^t_uc).
  std::vector<size_t> InsertCovered(const TimeSlice& slice);

  /// Adopt the subregions of \p other (the TPI "Insertion" case).
  void Append(PartitionIndex other);

  /// Average dropping rate of TRD (Equations 12-14): the fraction of
  /// subregions whose occupancy dropped by more than eps_c relative to
  /// their baseline, measured against the point counts of \p slice.
  double AverageDropRate(const TimeSlice& slice, double epsilon_c) const;

  /// STRQ primitive: ids in the grid cell containing \p p at tick \p t.
  std::vector<TrajId> Query(const Point& p, Tick t) const;

  /// Local-search primitive: append the ids in all cells intersecting the
  /// disc, skipping subregions that lie wholly outside it. Returns the
  /// number of cell lists decoded.
  size_t QueryCircle(const Point& center, double radius, Tick t,
                     std::vector<TrajId>* out) const;

  /// Compress all grids.
  void Finalize();

  size_t NumRegions() const { return regions_.size(); }
  const std::vector<SubRegion>& regions() const { return regions_; }
  size_t SizeBytes() const;

  /// Append all subregions (grid + baseline bookkeeping) to \p out;
  /// byte-deterministic for equal indexes.
  void SaveTo(ByteWriter* out) const;
  /// Inverse of SaveTo; malformed input yields a Status error.
  static Result<PartitionIndex> LoadFrom(ByteReader* in);

 private:
  std::vector<SubRegion> regions_;
};

}  // namespace ppq::index
