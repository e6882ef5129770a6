#include "index/partition_index.h"

#include "quantizer/kmeans.h"

namespace ppq::index {

PartitionIndex PartitionIndex::Build(const TimeSlice& slice,
                                     const PartitionIndexOptions& options,
                                     Rng* rng) {
  PartitionIndex index;
  if (slice.empty()) return index;

  // Line 1: eps_s-threshold partitioning of the slice positions.
  quantizer::ThresholdClusterOptions cluster_options;
  cluster_options.initial_clusters = 1;
  cluster_options.step = options.growth_step;
  cluster_options.kmeans.max_iterations = options.kmeans_iterations;
  const auto clustered = quantizer::ThresholdCluster(
      quantizer::FlattenPoints(slice.positions),
      static_cast<int>(slice.positions.size()), /*dim=*/2, options.epsilon_s,
      cluster_options, *rng);

  // Lines 3-10: per-cluster MBR, overlap removal against the accumulated
  // region list.
  std::vector<std::vector<Point>> cluster_points(
      static_cast<size_t>(clustered.kmeans.k));
  for (size_t i = 0; i < slice.positions.size(); ++i) {
    cluster_points[static_cast<size_t>(clustered.kmeans.assignments[i])]
        .push_back(slice.positions[i]);
  }
  std::vector<Rect> region_list;
  for (const auto& points : cluster_points) {
    if (points.empty()) continue;
    Rect mbr = BoundingRect(points);
    // A singleton (or collinear) cluster has a degenerate MBR; inflate it
    // minimally so the region survives overlap removal and can be indexed.
    const double tiny = options.cell_size * 1e-6;
    if (mbr.width() <= 0.0) mbr.max_x = mbr.min_x + tiny;
    if (mbr.height() <= 0.0) mbr.max_y = mbr.min_y + tiny;
    for (Rect piece : RemoveOverlap(mbr, region_list)) {
      region_list.push_back(piece);
    }
  }

  // Line 11: grid-index every rectangle.
  index.regions_.reserve(region_list.size());
  for (const Rect& rect : region_list) {
    index.regions_.push_back(
        SubRegion{GridIndex(rect, options.cell_size), 0, slice.tick});
  }

  index.InsertCovered(slice);
  for (SubRegion& region : index.regions_) {
    region.baseline_count = region.grid.CountAt(slice.tick);
  }
  return index;
}

std::vector<size_t> PartitionIndex::InsertCovered(const TimeSlice& slice) {
  // Each point lies in exactly one rectangle (the decomposition is
  // disjoint), boundary ties resolved first-match. The points are grouped
  // by rectangle (a counting sort), so each grid takes the tick in one
  // Insert.
  const size_t none = regions_.size();
  std::vector<size_t> region_of(slice.positions.size(), none);
  std::vector<size_t> start(regions_.size() + 1, 0);
  std::vector<size_t> uncovered;
  for (size_t i = 0; i < slice.positions.size(); ++i) {
    for (size_t r = 0; r < regions_.size(); ++r) {
      if (regions_[r].grid.Contains(slice.positions[i])) {
        region_of[i] = r;
        ++start[r + 1];
        break;
      }
    }
    if (region_of[i] == none) uncovered.push_back(i);
  }
  for (size_t r = 0; r < regions_.size(); ++r) start[r + 1] += start[r];
  std::vector<TrajId> ids(start.back());
  std::vector<Point> positions(start.back());
  std::vector<size_t> next(start.begin(), start.end() - 1);
  for (size_t i = 0; i < region_of.size(); ++i) {
    if (region_of[i] == none) continue;
    const size_t slot = next[region_of[i]]++;
    ids[slot] = slice.ids[i];
    positions[slot] = slice.positions[i];
  }
  for (size_t r = 0; r < regions_.size(); ++r) {
    regions_[r].grid.Insert(slice.tick, ids.data() + start[r],
                            positions.data() + start[r],
                            start[r + 1] - start[r]);
  }
  return uncovered;
}

void PartitionIndex::Append(PartitionIndex other) {
  for (SubRegion& region : other.regions_) {
    regions_.push_back(std::move(region));
  }
}

double PartitionIndex::AverageDropRate(const TimeSlice& slice,
                                       double epsilon_c) const {
  if (regions_.empty()) return 0.0;
  size_t dropped = 0;
  for (const SubRegion& region : regions_) {
    size_t current = 0;
    for (const Point& p : slice.positions) {
      if (region.grid.Contains(p)) ++current;
    }
    const double baseline = static_cast<double>(region.baseline_count);
    if (baseline == 0.0) continue;
    // Equation 13; |R_i| cancels between numerator and denominator.
    const double h1 =
        (static_cast<double>(current) - baseline) / baseline;
    // Equation 14: only drops beyond eps_c count.
    if (h1 < 0.0 && -h1 > epsilon_c) ++dropped;
  }
  return static_cast<double>(dropped) / static_cast<double>(regions_.size());
}

std::vector<TrajId> PartitionIndex::Query(const Point& p, Tick t) const {
  for (const SubRegion& region : regions_) {
    if (region.grid.Contains(p)) {
      std::vector<TrajId> ids = region.grid.Query(p, t);
      if (!ids.empty()) return ids;
      // The decomposition is disjoint, so no other region can hold p
      // strictly inside; boundary points may sit in a neighbour, keep
      // scanning only if this cell was empty.
      continue;
    }
  }
  return {};
}

size_t PartitionIndex::QueryCircle(const Point& center, double radius, Tick t,
                                   std::vector<TrajId>* out) const {
  size_t decoded = 0;
  for (const SubRegion& region : regions_) {
    // Every id of a subregion lies inside its rectangle.
    if (region.grid.region().DistanceTo(center) > radius) continue;
    decoded += region.grid.QueryCircle(center, radius, t, out);
  }
  return decoded;
}

void PartitionIndex::Finalize() {
  for (SubRegion& region : regions_) region.grid.Finalize();
}

void PartitionIndex::SaveTo(ByteWriter* out) const {
  out->WriteU64(regions_.size());
  for (const SubRegion& region : regions_) {
    region.grid.SaveTo(out);
    out->WriteU64(region.baseline_count);
    out->WriteI32(region.built_at);
  }
}

Result<PartitionIndex> PartitionIndex::LoadFrom(ByteReader* in) {
  // A serialized grid is at least its fixed header (region + cell size +
  // flag + empty table/maps).
  auto region_count = in->ReadCount(8 * 5 + 1 + 4 + 8 * 2 + 8 + 4);
  if (!region_count.ok()) return region_count.status();
  PartitionIndex index;
  index.regions_.reserve(*region_count);
  for (uint64_t i = 0; i < *region_count; ++i) {
    auto grid = GridIndex::LoadFrom(in);
    if (!grid.ok()) return grid.status();
    auto baseline = in->ReadU64();
    if (!baseline.ok()) return baseline.status();
    auto built_at = in->ReadI32();
    if (!built_at.ok()) return built_at.status();
    index.regions_.push_back(
        SubRegion{std::move(*grid), static_cast<size_t>(*baseline),
                  *built_at});
  }
  return index;
}

size_t PartitionIndex::SizeBytes() const {
  size_t total = 0;
  for (const SubRegion& region : regions_) {
    total += region.grid.SizeBytes() + sizeof(size_t) + sizeof(Tick);
  }
  return total;
}

}  // namespace ppq::index
