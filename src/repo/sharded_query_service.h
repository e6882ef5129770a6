#pragma once

#include <stdexcept>
#include <utility>

#include "core/query_service.h"
#include "repo/repository_snapshot.h"

/// \file sharded_query_service.h
/// The named constructor of core::QueryService over a sealed sharded
/// repository: one leg per shard, scatter-gathered through
/// core/result_merge.h, so callers cannot tell one snapshot from N shards
/// apart except by throughput. Every response is byte-identical to
/// evaluating the request per shard with the serial QueryEngine and
/// merging serially (tests/sharded_query_service_test.cc, N in {1, 2,
/// 4}), and a 1-shard repository answers byte-identically to one
/// snapshot. The whole repository is pinned with one atomic load, so a
/// response never mixes shards of two UpdateView swaps; seal_epoch is the
/// swap count. UpdateView takes a RepositorySnapshot.

namespace ppq::repo {

class ShardedQueryService : public core::QueryService {
 public:
  /// \throws std::invalid_argument when \p repository is null or
  /// options.raw holds fewer trajectories than it serves across shards.
  ShardedQueryService(RepositorySnapshotPtr repository, Options options)
      : QueryService(std::move(repository), std::move(options), &Resolve) {}

  /// The currently served repository seal.
  RepositorySnapshotPtr repository() const {
    return view().As<RepositorySnapshot>();
  }

 private:
  static Resolved Resolve(const core::ServingView& view) {
    const RepositorySnapshotPtr repository = view.As<RepositorySnapshot>();
    if (repository == nullptr) {
      throw std::invalid_argument(
          "ShardedQueryService: expected a non-null RepositorySnapshot view");
    }
    return {repository->shards(), nullptr};
  }
};

}  // namespace ppq::repo
