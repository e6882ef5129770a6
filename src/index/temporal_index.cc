#include "index/temporal_index.h"

namespace ppq::index {

void TemporalPartitionIndex::Observe(const TimeSlice& slice) {
  stats_.points_indexed += slice.size();

  if (!has_open_period_) {
    // Lines 1-2: initial PI.
    Period period;
    period.start = slice.tick;
    period.end = slice.tick;
    period.pi = PartitionIndex::Build(slice, options_.pi, &rng_);
    periods_.push_back(std::move(period));
    has_open_period_ = true;
    ++stats_.num_periods;
    return;
  }

  Period& current = periods_.back();

  // Line 6: compare the slice's subregion occupancy against the period's
  // baselines before touching the index.
  const double adr = current.pi.AverageDropRate(slice, options_.epsilon_c);
  if (adr > options_.epsilon_d) {
    // Lines 7-9: close the period, rebuild from scratch.
    Period period;
    period.start = slice.tick;
    period.end = slice.tick;
    period.pi = PartitionIndex::Build(slice, options_.pi, &rng_);
    periods_.push_back(std::move(period));
    ++stats_.num_periods;
    ++stats_.num_rebuilds;
    return;
  }

  // Lines 10-11: reuse the current PI; only uncovered points need a fresh
  // sub-decomposition.
  const std::vector<size_t> uncovered = current.pi.InsertCovered(slice);
  if (!uncovered.empty()) {
    TimeSlice uncovered_slice;
    uncovered_slice.tick = slice.tick;
    uncovered_slice.ids.reserve(uncovered.size());
    uncovered_slice.positions.reserve(uncovered.size());
    for (size_t row : uncovered) {
      uncovered_slice.ids.push_back(slice.ids[row]);
      uncovered_slice.positions.push_back(slice.positions[row]);
    }
    current.pi.Append(
        PartitionIndex::Build(uncovered_slice, options_.pi, &rng_));
    ++stats_.num_insertions;
  }
  current.end = slice.tick;
}

const Period* TemporalPartitionIndex::FindPeriod(Tick t) const {
  // Periods are ordered by start tick; binary search the last period whose
  // start <= t, then confirm coverage.
  if (periods_.empty()) return nullptr;
  size_t lo = 0;
  size_t hi = periods_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (periods_[mid].start <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return nullptr;
  const Period& candidate = periods_[lo - 1];
  return candidate.ContainsTick(t) ? &candidate : nullptr;
}

std::vector<TrajId> TemporalPartitionIndex::Query(const Point& p,
                                                  Tick t) const {
  const Period* period = FindPeriod(t);
  if (period == nullptr) return {};
  return period->pi.Query(p, t);
}

size_t TemporalPartitionIndex::QueryCircle(const Point& center, double radius,
                                           Tick t,
                                           std::vector<TrajId>* out) const {
  const Period* period = FindPeriod(t);
  return period == nullptr ? 0 : period->pi.QueryCircle(center, radius, t, out);
}

void TemporalPartitionIndex::Finalize() {
  for (Period& period : periods_) period.pi.Finalize();
}

void TemporalPartitionIndex::SaveTo(ByteWriter* out) const {
  out->WriteF64(options_.pi.epsilon_s);
  out->WriteF64(options_.pi.cell_size);
  out->WriteI32(options_.pi.growth_step);
  out->WriteI32(options_.pi.kmeans_iterations);
  out->WriteF64(options_.epsilon_d);
  out->WriteF64(options_.epsilon_c);
  out->WriteU64(options_.seed);
  out->WriteU8(has_open_period_ ? 1 : 0);
  out->WriteU64(stats_.num_periods);
  out->WriteU64(stats_.num_insertions);
  out->WriteU64(stats_.num_rebuilds);
  out->WriteU64(stats_.points_indexed);
  out->WriteU64(periods_.size());
  for (const Period& period : periods_) {
    out->WriteI32(period.start);
    out->WriteI32(period.end);
    period.pi.SaveTo(out);
  }
}

Result<TemporalPartitionIndex> TemporalPartitionIndex::LoadFrom(
    ByteReader* in) {
  Options options;
  auto eps_s = in->ReadF64();
  auto cell_size = in->ReadF64();
  auto growth_step = in->ReadI32();
  auto kmeans_iterations = in->ReadI32();
  auto eps_d = in->ReadF64();
  auto eps_c = in->ReadF64();
  auto seed = in->ReadU64();
  auto has_open = in->ReadU8();
  if (!eps_s.ok() || !cell_size.ok() || !growth_step.ok() ||
      !kmeans_iterations.ok() || !eps_d.ok() || !eps_c.ok() || !seed.ok() ||
      !has_open.ok()) {
    return Status::IOError("TemporalPartitionIndex: truncated options");
  }
  options.pi.epsilon_s = *eps_s;
  options.pi.cell_size = *cell_size;
  options.pi.growth_step = *growth_step;
  options.pi.kmeans_iterations = *kmeans_iterations;
  options.epsilon_d = *eps_d;
  options.epsilon_c = *eps_c;
  options.seed = *seed;

  TemporalPartitionIndex index(options);
  index.has_open_period_ = *has_open != 0;
  auto num_periods = in->ReadU64();
  auto num_insertions = in->ReadU64();
  auto num_rebuilds = in->ReadU64();
  auto points_indexed = in->ReadU64();
  if (!num_periods.ok() || !num_insertions.ok() || !num_rebuilds.ok() ||
      !points_indexed.ok()) {
    return Status::IOError("TemporalPartitionIndex: truncated stats");
  }
  index.stats_.num_periods = *num_periods;
  index.stats_.num_insertions = *num_insertions;
  index.stats_.num_rebuilds = *num_rebuilds;
  index.stats_.points_indexed = *points_indexed;

  auto period_count = in->ReadCount(4 + 4 + 8);  // ticks + PI region count
  if (!period_count.ok()) return period_count.status();
  index.periods_.reserve(*period_count);
  for (uint64_t i = 0; i < *period_count; ++i) {
    auto start = in->ReadI32();
    if (!start.ok()) return start.status();
    auto end = in->ReadI32();
    if (!end.ok()) return end.status();
    auto pi = PartitionIndex::LoadFrom(in);
    if (!pi.ok()) return pi.status();
    Period period;
    period.start = *start;
    period.end = *end;
    period.pi = std::move(*pi);
    index.periods_.push_back(std::move(period));
  }
  return index;
}

size_t TemporalPartitionIndex::SizeBytes() const {
  size_t total = sizeof(Options) + sizeof(TpiStats);
  for (const Period& period : periods_) {
    total += 2 * sizeof(Tick) + period.pi.SizeBytes();
  }
  return total;
}

}  // namespace ppq::index
