#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "common/types.h"
#include "core/snapshot.h"

/// \file shard_view.h
/// What the serving backend (core::QueryService) reads of one shard: the
/// shard's last sealed snapshot, the cut it covers, and the raw queryable
/// tail past that cut. A sealed snapshot is a shard whose tail is empty
/// and whose cut is the end of time; a live repository (repo::
/// LiveRepository) publishes one such view per shard on every append and
/// every seal, through the LiveSource interface below.

namespace ppq::core {

/// \brief One immutable link of a shard's queryable tail: the points of
/// one Append (one tick, one shard), chained newest-first. Chains are
/// persistent — publishing a new chunk never mutates older ones — so a
/// reader that pinned a view scans a frozen tail while appends continue.
struct TailChunk {
  TimeSlice slice;
  std::shared_ptr<const TailChunk> prev;
};
using TailPtr = std::shared_ptr<const TailChunk>;

/// \brief A shard's serving view: the summary seal for ticks <=
/// sealed_through, the raw tail for ticks > sealed_through (disjoint by
/// construction — the seal cut moves, points do not), and the seal
/// generation. Immutable; swapped wholesale, so readers can never observe
/// a half-rolled shard.
struct ShardView {
  /// Never null.
  SnapshotPtr sealed;
  /// Inclusive: every tick <= sealed_through is answered by `sealed`.
  Tick sealed_through = std::numeric_limits<Tick>::min();
  /// Newest-first chunk chain; ticks non-increasing along the chain and
  /// all > sealed_through. Null when the shard has no tail.
  TailPtr tail;
  size_t tail_points = 0;
  /// Freshness stamp reported through QueryStats::seal_epoch: the swap
  /// count for a sealed source, the seal generation for a live shard.
  uint64_t seal_epoch = 0;
};
using ShardViewPtr = std::shared_ptr<const ShardView>;

/// \brief A source whose shards roll independently: the backend pins one
/// view per shard, per request (each one atomic load).
class LiveSource {
 public:
  virtual ~LiveSource() = default;
  virtual uint32_t num_shards() const = 0;
  /// The shard's current view; never null.
  virtual ShardViewPtr ShardView(size_t shard) const = 0;
};

}  // namespace ppq::core
