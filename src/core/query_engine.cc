#include "core/query_engine.h"

#include <cmath>

#include "core/query_eval.h"

namespace ppq::core {

using eval::CompressorReader;
using eval::SnapshotReader;

StrqResult QueryEngine::Strq(const QuerySpec& q, StrqMode mode) const {
  if (snapshot_ != nullptr) {
    return eval::Strq(SnapshotReader{snapshot_.get(), &memo_}, raw_,
                      cell_size_, q, mode);
  }
  return eval::Strq(CompressorReader{method_}, raw_, cell_size_, q, mode);
}

QueryEngine::TpqResult QueryEngine::Tpq(const QuerySpec& q, int length,
                                        StrqMode mode) const {
  if (snapshot_ != nullptr) {
    return eval::Tpq(SnapshotReader{snapshot_.get(), &memo_}, raw_,
                     cell_size_, q, length, mode);
  }
  return eval::Tpq(CompressorReader{method_}, raw_, cell_size_, q, length,
                   mode);
}

StrqResult QueryEngine::WindowQuery(const Window& window, Tick t,
                                    StrqMode mode) const {
  if (snapshot_ != nullptr) {
    return eval::WindowQuery(SnapshotReader{snapshot_.get(), &memo_}, raw_,
                             window, t, mode);
  }
  return eval::WindowQuery(CompressorReader{method_}, raw_, window, t, mode);
}

std::vector<QueryEngine::Neighbor> QueryEngine::NearestTrajectories(
    const QuerySpec& q, size_t k) const {
  if (snapshot_ != nullptr) {
    return eval::NearestTrajectories(SnapshotReader{snapshot_.get(), &memo_},
                                     q, k);
  }
  return eval::NearestTrajectories(CompressorReader{method_}, q, k);
}

std::vector<TrajId> QueryEngine::WindowGroundTruth(
    const TrajectoryDataset& raw, const Window& window, Tick t) {
  std::vector<TrajId> ids;
  for (TrajId id : raw.ActiveIdsAt(t)) {
    const Trajectory& traj = raw[static_cast<size_t>(id)];
    if (window.Contains(traj.At(t))) ids.push_back(id);
  }
  return ids;
}

std::vector<TrajId> QueryEngine::GroundTruth(const TrajectoryDataset& raw,
                                             const QuerySpec& q,
                                             double cell_size) {
  const double cx = std::floor(q.position.x / cell_size);
  const double cy = std::floor(q.position.y / cell_size);
  std::vector<TrajId> ids;
  for (TrajId id : raw.ActiveIdsAt(q.tick)) {
    const Point& p = raw[static_cast<size_t>(id)].At(q.tick);
    if (std::floor(p.x / cell_size) == cx &&
        std::floor(p.y / cell_size) == cy) {
      ids.push_back(id);
    }
  }
  return ids;
}

}  // namespace ppq::core
