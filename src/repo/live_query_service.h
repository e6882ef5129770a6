#pragma once

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/query_service.h"
#include "repo/live_repository.h"

/// \file live_query_service.h
/// The named constructor of core::QueryService over a live, concurrently
/// ingesting repository: every request is answered from the UNION of
/// each shard's last sealed snapshot and its raw queryable tail.
///
/// The union is exact because the two sides are disjoint by construction:
/// a shard's seal answers ticks <= sealed_through, its tail holds every
/// appended point with tick > sealed_through, and the cut only ever moves
/// forward — so a point is counted exactly once whichever side of a
/// watermark roll the evaluating worker observes. Tail points are RAW
/// (never quantized), so for them approximate / local-search / exact
/// modes coincide. Consequence — the freshness guarantee: an exact-mode
/// response equals the ground truth over every point appended before its
/// evaluation began, and is never served from quantized state older than
/// ONE watermark (QueryStats::seal_epoch reports the oldest shard seal
/// generation the response drew on).
///
/// Each request pins every shard's view with one atomic load per shard
/// (shards roll independently under live ingest). UpdateView takes a
/// LiveRepository: appends and seals surface through the shard views
/// without any swap, so the verb only re-points the service at a
/// DIFFERENT repository (e.g. a blue/green stream cutover).

namespace ppq::repo {

class LiveQueryService : public core::QueryService {
 public:
  /// \throws std::invalid_argument when \p repository is null.
  LiveQueryService(std::shared_ptr<const LiveRepository> repository,
                   Options options)
      : QueryService(std::move(repository), std::move(options), &Resolve) {}

 private:
  static Resolved Resolve(const core::ServingView& view) {
    std::shared_ptr<const LiveRepository> repository =
        view.As<LiveRepository>();
    if (repository == nullptr) {
      throw std::invalid_argument(
          "LiveQueryService: expected a non-null LiveRepository view");
    }
    return {{}, std::move(repository)};
  }
};

}  // namespace ppq::repo
