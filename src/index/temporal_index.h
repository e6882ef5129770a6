#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "index/partition_index.h"

/// \file temporal_index.h
/// The temporal partition-based index TPI of Algorithm 4: the tick axis is
/// cut into periods, each served by one PI. At every incoming timestamp the
/// average dropping rate (ADR) of the subregion densities decides between
/// reusing the current PI ("Insertion": only uncovered points get a fresh
/// sub-decomposition appended) and closing the period ("Re-build": a new PI
/// from scratch). Larger eps_d / eps_c tolerate more drift and therefore
/// produce fewer, longer periods (Tables 7-8).

namespace ppq::index {

/// \brief One time period and the PI that indexes it.
struct Period {
  Tick start = 0;
  Tick end = 0;  ///< inclusive
  PartitionIndex pi;

  bool ContainsTick(Tick t) const { return t >= start && t <= end; }
};

/// \brief Construction counters reported by Tables 7 and 8.
struct TpiStats {
  size_t num_periods = 0;
  size_t num_insertions = 0;
  size_t num_rebuilds = 0;
  size_t points_indexed = 0;
};

/// \brief Online temporal partition-based index.
class TemporalPartitionIndex {
 public:
  struct Options {
    PartitionIndexOptions pi;
    /// ADR threshold eps_d: rebuild when ADR exceeds it.
    double epsilon_d = 0.5;
    /// TRD dropping-rate threshold eps_c inside the ADR computation.
    double epsilon_c = 0.5;
    uint64_t seed = 42;
  };

  explicit TemporalPartitionIndex(Options options)
      : options_(options), rng_(options.seed) {}

  /// Feed the next timestamp (Algorithm 4 main loop body). Slices must
  /// arrive in increasing tick order.
  void Observe(const TimeSlice& slice);

  /// Ids in the grid cell containing \p p at tick \p t, or empty when no
  /// period covers \p t.
  std::vector<TrajId> Query(const Point& p, Tick t) const;

  /// Append the ids in every cell intersecting the disc around \p center
  /// at tick \p t (local search, Section 5.2) to \p out. Returns the
  /// number of cell lists decoded.
  size_t QueryCircle(const Point& center, double radius, Tick t,
                     std::vector<TrajId>* out) const;

  /// Compress all periods' grids.
  void Finalize();

  const std::vector<Period>& periods() const { return periods_; }
  const TpiStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// Find the period covering \p t, or nullptr.
  const Period* FindPeriod(Tick t) const;

  size_t SizeBytes() const;

  /// Append the full index state (options, stats, every period's PI) to
  /// \p out; byte-deterministic for equal indexes.
  void SaveTo(ByteWriter* out) const;

  /// Inverse of SaveTo. The RNG is re-seeded from the stored options
  /// seed, NOT from the live engine state, so a loaded index serves
  /// queries identically but is read-only by contract: feeding further
  /// Observe() calls to it is unsupported.
  static Result<TemporalPartitionIndex> LoadFrom(ByteReader* in);

 private:
  Options options_;
  Rng rng_;
  std::vector<Period> periods_;
  TpiStats stats_;
  bool has_open_period_ = false;
};

}  // namespace ppq::index
