#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/query_types.h"

/// \file result_merge.h
/// The deterministic merges of the serving backend's per-shard legs
/// (QueryService): per-shard sealed parts plus, where a shard has a
/// live tail, its tail parts. The parts handed in must be id-disjoint —
/// shards partition trajectory ids, and within a shard a point at tick t
/// lives on exactly one side of the seal cut — and each STRQ/TPQ part's
/// ids must arrive ascending (the evaluation templates sort their
/// candidate sweep). The merges then reproduce exactly the ordering the
/// unsharded engine emits: ascending id for STRQ, window and TPQ,
/// (distance, id) for k-NN. A lone STRQ/TPQ part is already in that
/// order and passes through untouched.

namespace ppq::core {

/// Union-merge of disjoint STRQ/window results: ids ascending,
/// verification candidates summed.
inline StrqResult MergeStrq(std::vector<StrqResult> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  StrqResult merged;
  for (StrqResult& part : parts) {
    merged.candidates_visited += part.candidates_visited;
    merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
  }
  std::sort(merged.ids.begin(), merged.ids.end());
  return merged;
}

/// Re-merge of per-part top-k lists: the shared NeighborOrder
/// ranking — the SAME function the unsharded ranking sorts with, so
/// equal distances straddling a part boundary resolve identically by
/// construction — then the first k distinct ids. A tail part lists every
/// raw point of its tick, so an id a retried batch appended twice there
/// keeps only its nearest entry.
inline std::vector<Neighbor> MergeKnn(
    std::vector<std::vector<Neighbor>> parts, size_t k) {
  std::vector<Neighbor> merged;
  for (std::vector<Neighbor>& part : parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), NeighborOrder);
  size_t kept = 0;
  for (size_t i = 0; i < merged.size() && kept < k; ++i) {
    const bool seen =
        std::any_of(merged.begin(), merged.begin() + static_cast<ptrdiff_t>(kept),
                    [&](const Neighbor& n) { return n.id == merged[i].id; });
    if (!seen) merged[kept++] = merged[i];
  }
  merged.resize(kept);
  return merged;
}

/// Re-merge of disjoint TPQ results by id, keeping each id's path
/// (reconstructed by its owning part) aligned with it.
inline TpqResult MergeTpq(std::vector<TpqResult> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  std::vector<std::pair<TrajId, std::vector<Point>>> order;
  TpqResult merged;
  for (TpqResult& part : parts) {
    merged.candidates_visited += part.candidates_visited;
    for (size_t i = 0; i < part.ids.size(); ++i) {
      order.emplace_back(part.ids[i], std::move(part.paths[i]));
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, path] : order) {
    merged.ids.push_back(id);
    merged.paths.push_back(std::move(path));
  }
  return merged;
}

}  // namespace ppq::core
