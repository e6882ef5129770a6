#include "index/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace ppq::index {
namespace {

/// Clamp a fractional cell coordinate to [0, max_index] in the DOUBLE
/// domain, before any int cast: float-to-int conversion of an
/// out-of-range value is UB, so the old cast-then-clamp pattern could
/// trap on extreme coordinates (a far-away query point, or a grid whose
/// region a forged-but-checksummed snapshot placed at 1e300). NaN maps
/// to 0. Equals floor+clamp for every in-range value.
int ClampCellIndex(double cell, int max_index) {
  if (!(cell > 0.0)) return 0;
  if (cell >= static_cast<double>(max_index)) return max_index;
  return static_cast<int>(cell);
}

}  // namespace

GridIndex::GridIndex(Rect region, double cell_size)
    : region_(region), cell_size_(cell_size) {
  cells_x_ = std::max(1, static_cast<int>(std::ceil(region.width() / cell_size)));
  cells_y_ = std::max(1, static_cast<int>(std::ceil(region.height() / cell_size)));
}

int64_t GridIndex::CellKey(const Point& p) const {
  const int cx =
      ClampCellIndex((p.x - region_.min_x) / cell_size_, cells_x_ - 1);
  const int cy =
      ClampCellIndex((p.y - region_.min_y) / cell_size_, cells_y_ - 1);
  return static_cast<int64_t>(cy) * cells_x_ + cx;
}

std::pair<size_t, size_t> GridIndex::RunAt(Tick t) const {
  const auto it = std::lower_bound(ticks_.begin(), ticks_.end(), t);
  if (it == ticks_.end() || *it != t) return {0, 0};
  const auto slot = static_cast<size_t>(it - ticks_.begin());
  return {run_begin_[slot], RunEnd(slot)};
}

void GridIndex::Insert(Tick t, const TrajId* ids, const Point* positions,
                       size_t n) {
  if (finalized_ || n == 0) return;  // the raw lists are gone

  // The tick's run; a new tick gets an empty run where it sorts.
  const auto it = std::lower_bound(ticks_.begin(), ticks_.end(), t);
  const auto slot = static_cast<size_t>(it - ticks_.begin());
  if (it == ticks_.end() || *it != t) {
    run_begin_.insert(run_begin_.begin() + static_cast<ptrdiff_t>(slot),
                      slot < run_begin_.size() ? run_begin_[slot]
                                               : lists_.size());
    ticks_.insert(it, t);
  }
  const size_t begin = run_begin_[slot];
  const size_t end = RunEnd(slot);
  const uint64_t ids_begin =
      begin < lists_.size() ? lists_[begin].offset : raw_ids_.size();

  // The run's (key, id) entries, held and new, sorted: each cell's list
  // comes out ascending, as delta encoding needs.
  std::vector<std::pair<int64_t, TrajId>> entries;
  for (size_t li = begin; li < end; ++li) {
    for (uint32_t j = 0; j < lists_[li].count; ++j) {
      entries.emplace_back(lists_[li].key, raw_ids_[lists_[li].offset + j]);
    }
  }
  const size_t held = entries.size();
  for (size_t i = 0; i < n; ++i) {
    entries.emplace_back(CellKey(positions[i]), ids[i]);
  }
  std::sort(entries.begin() + static_cast<ptrdiff_t>(held), entries.end());
  std::inplace_merge(entries.begin(),
                     entries.begin() + static_cast<ptrdiff_t>(held),
                     entries.end());

  // Lay the run out again in place; what follows it moves back by the
  // lists and ids it gained.
  std::vector<CellList> run;
  for (size_t e = 0; e < entries.size(); ++e) {
    if (run.empty() || run.back().key != entries[e].first) {
      run.push_back(CellList{entries[e].first, ids_begin + e, 0, 0});
    }
    ++run.back().count;
  }
  raw_ids_.insert(raw_ids_.begin() + static_cast<ptrdiff_t>(ids_begin + held),
                  n, TrajId{0});
  for (size_t e = 0; e < entries.size(); ++e) {
    raw_ids_[ids_begin + e] = entries[e].second;
  }
  const size_t grown = run.size() - (end - begin);
  lists_.insert(lists_.begin() + static_cast<ptrdiff_t>(end), grown,
                CellList{});
  std::copy(run.begin(), run.end(),
            lists_.begin() + static_cast<ptrdiff_t>(begin));
  for (size_t li = begin + run.size(); li < lists_.size(); ++li) {
    lists_[li].offset += n;
  }
  for (size_t s = slot + 1; s < run_begin_.size(); ++s) {
    run_begin_[s] += grown;
  }

  const auto count = std::lower_bound(
      counts_.begin(), counts_.end(), t,
      [](const std::pair<Tick, uint64_t>& c, Tick k) { return c.first < k; });
  if (count != counts_.end() && count->first == t) {
    count->second += n;
  } else {
    counts_.insert(count, {t, n});
  }
}

size_t GridIndex::CountAt(Tick t) const {
  const auto it = std::lower_bound(
      counts_.begin(), counts_.end(), t,
      [](const std::pair<Tick, uint64_t>& c, Tick k) { return c.first < k; });
  return it == counts_.end() || it->first != t
             ? 0
             : static_cast<size_t>(it->second);
}

void GridIndex::AppendIds(size_t list_index, std::vector<TrajId>* out) const {
  const CellList& list = lists_[list_index];
  if (!finalized_) {
    const auto begin = raw_ids_.begin() + static_cast<ptrdiff_t>(list.offset);
    out->insert(out->end(), begin, begin + list.count);
    return;
  }
  // The table was built from exactly these lists, so decoding cannot
  // fail; a corrupt list appends nothing.
  (void)AppendDecompressedIds(arena_.data() + list.offset, list.bit_count,
                              list.count, table_, out);
}

std::vector<TrajId> GridIndex::Query(const Point& p, Tick t) const {
  std::vector<TrajId> ids;
  const auto [begin, end] = RunAt(t);
  const int64_t key = CellKey(p);
  const auto run_end = lists_.begin() + static_cast<ptrdiff_t>(end);
  const auto cell = std::lower_bound(
      lists_.begin() + static_cast<ptrdiff_t>(begin), run_end, key,
      [](const CellList& list, int64_t k) { return list.key < k; });
  if (cell != run_end && cell->key == key) {
    AppendIds(static_cast<size_t>(cell - lists_.begin()), &ids);
  }
  return ids;
}

size_t GridIndex::QueryCircle(const Point& center, double radius, Tick t,
                              std::vector<TrajId>* out) const {
  const auto [begin, end] = RunAt(t);
  if (begin == end) return 0;
  const int cx_lo = ClampCellIndex(
      (center.x - radius - region_.min_x) / cell_size_, cells_x_ - 1);
  const int cx_hi = ClampCellIndex(
      (center.x + radius - region_.min_x) / cell_size_, cells_x_ - 1);
  const int cy_lo = ClampCellIndex(
      (center.y - radius - region_.min_y) / cell_size_, cells_y_ - 1);
  const int cy_hi = ClampCellIndex(
      (center.y + radius - region_.min_y) / cell_size_, cells_y_ - 1);
  size_t decoded = 0;
  const auto visit = [&](size_t li, int64_t cx, int64_t cy) {
    // Reject cells whose closest point to the centre is outside the disc.
    if (CellRect(cx, cy).DistanceTo(center) > radius) return;
    AppendIds(li, out);
    ++decoded;
  };

  // A box with fewer cells than the run is probed by a binary search per
  // row; otherwise the run is read once.
  const uint64_t box = static_cast<uint64_t>(cx_hi - cx_lo + 1) *
                       static_cast<uint64_t>(cy_hi - cy_lo + 1);
  if (box < end - begin) {
    size_t li = begin;
    for (int cy = cy_lo; cy <= cy_hi; ++cy) {
      const int64_t row = static_cast<int64_t>(cy) * cells_x_;
      li = static_cast<size_t>(
          std::lower_bound(
              lists_.begin() + static_cast<ptrdiff_t>(li),
              lists_.begin() + static_cast<ptrdiff_t>(end), row + cx_lo,
              [](const CellList& list, int64_t k) { return list.key < k; }) -
          lists_.begin());
      for (; li < end && lists_[li].key <= row + cx_hi; ++li) {
        visit(li, lists_[li].key - row, cy);
      }
    }
    return decoded;
  }
  // Keys outside the grid (only a forged file has them) fall outside
  // every box.
  for (size_t li = begin; li < end; ++li) {
    const int64_t cy = lists_[li].key / cells_x_;
    const int64_t cx = lists_[li].key % cells_x_;
    if (cx < cx_lo || cx > cx_hi || cy < cy_lo || cy > cy_hi) continue;
    visit(li, cx, cy);
  }
  return decoded;
}

void GridIndex::CellsAt(const Point& p, Tick t, uint32_t region,
                        std::vector<CellHit>* out) const {
  const auto [begin, end] = RunAt(t);
  for (size_t li = begin; li < end; ++li) {
    const int64_t cy = lists_[li].key / cells_x_;
    const int64_t cx = lists_[li].key - cy * cells_x_;
    out->push_back({CellRect(cx, cy).DistanceTo(p), li, region});
  }
}

void GridIndex::Finalize() {
  if (finalized_) return;
  std::unordered_map<uint32_t, uint64_t> frequencies;
  for (const CellList& list : lists_) {
    AccumulateDeltaFrequencies(raw_ids_.data() + list.offset, list.count,
                               &frequencies);
  }
  table_ = HuffmanTable::Build(frequencies);
  arena_.clear();
  for (CellList& list : lists_) {
    auto packed = CompressIds(raw_ids_.data() + list.offset, list.count, table_);
    list.offset = arena_.size();
    // Cannot fail: the table covers every delta by construction.
    if (!packed.ok()) {
      list.count = 0;
      list.bit_count = 0;
      continue;
    }
    list.bit_count = packed->bit_count;
    arena_.insert(arena_.end(), packed->bytes.begin(), packed->bytes.end());
  }
  std::vector<TrajId>().swap(raw_ids_);
  finalized_ = true;
}

void GridIndex::SaveTo(ByteWriter* out) const {
  out->WriteF64(region_.min_x);
  out->WriteF64(region_.min_y);
  out->WriteF64(region_.max_x);
  out->WriteF64(region_.max_y);
  out->WriteF64(cell_size_);
  out->WriteU8(finalized_ ? 1 : 0);
  table_.SaveTo(out);

  out->WriteU64(counts_.size());
  for (const auto& [tick, count] : counts_) {
    out->WriteI32(tick);
    out->WriteU64(count);
  }

  // The format is cell-major: lists by (key, tick). A stable sort by key
  // of the tick-major lists gives exactly that order.
  std::vector<Tick> tick_of(lists_.size());
  for (size_t s = 0; s < ticks_.size(); ++s) {
    std::fill(tick_of.begin() + static_cast<ptrdiff_t>(run_begin_[s]),
              tick_of.begin() + static_cast<ptrdiff_t>(RunEnd(s)), ticks_[s]);
  }
  std::vector<size_t> order(lists_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lists_[a].key < lists_[b].key;
  });
  size_t num_cells = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    num_cells += i == 0 || lists_[order[i]].key != lists_[order[i - 1]].key;
  }
  out->WriteU64(num_cells);
  for (size_t i = 0; i < order.size();) {
    const int64_t key = lists_[order[i]].key;
    size_t j = i;
    while (j < order.size() && lists_[order[j]].key == key) ++j;
    out->WriteU64(static_cast<uint64_t>(key));
    out->WriteU64(finalized_ ? 0 : j - i);
    for (size_t r = i; !finalized_ && r < j; ++r) {
      const CellList& list = lists_[order[r]];
      out->WriteI32(tick_of[order[r]]);
      out->WriteU64(list.count);
      for (uint32_t n = 0; n < list.count; ++n) {
        out->WriteI32(raw_ids_[list.offset + n]);
      }
    }
    out->WriteU64(finalized_ ? j - i : 0);
    for (size_t r = i; finalized_ && r < j; ++r) {
      const CellList& list = lists_[order[r]];
      out->WriteI32(tick_of[order[r]]);
      WritePackedList({list.count, list.bit_count}, arena_.data() + list.offset,
                      out);
    }
    i = j;
  }
}

Result<GridIndex> GridIndex::LoadFrom(ByteReader* in) {
  Rect region;
  auto min_x = in->ReadF64();
  auto min_y = in->ReadF64();
  auto max_x = in->ReadF64();
  auto max_y = in->ReadF64();
  auto cell_size = in->ReadF64();
  auto finalized = in->ReadU8();
  if (!min_x.ok() || !min_y.ok() || !max_x.ok() || !max_y.ok() ||
      !cell_size.ok() || !finalized.ok()) {
    return Status::IOError("GridIndex: truncated header");
  }
  region = Rect{*min_x, *min_y, *max_x, *max_y};
  // Validate geometry before the constructor computes cell counts: a
  // forged region/cell_size combination must not overflow the int cast.
  if (!std::isfinite(region.min_x) || !std::isfinite(region.min_y) ||
      !std::isfinite(region.max_x) || !std::isfinite(region.max_y) ||
      !std::isfinite(*cell_size) || *cell_size <= 0.0 ||
      region.max_x < region.min_x || region.max_y < region.min_y) {
    return Status::Invalid("GridIndex: malformed region geometry");
  }
  // Bound each axis (the int cast in the constructor) AND the product:
  // two individually-representable axes can still multiply into a grid
  // whose QueryCircle scan would spin for ~2^60 iterations — a forged
  // file must not buy a CPU-bound hang on the first local-search query.
  constexpr double kMaxCellsPerAxis = 1 << 30;
  constexpr double kMaxTotalCells = 4e9;
  const double cells_wide = region.width() / *cell_size;
  const double cells_high = region.height() / *cell_size;
  if (cells_wide > kMaxCellsPerAxis || cells_high > kMaxCellsPerAxis ||
      std::max(cells_wide, 1.0) * std::max(cells_high, 1.0) >
          kMaxTotalCells) {
    return Status::Invalid("GridIndex: cell count out of range");
  }
  GridIndex grid(region, *cell_size);
  grid.finalized_ = *finalized != 0;

  auto table = HuffmanTable::LoadFrom(in);
  if (!table.ok()) return table.status();
  grid.table_ = std::move(*table);

  auto tick_count = in->ReadCount(12);  // i32 tick + u64 count
  if (!tick_count.ok()) return tick_count.status();
  grid.counts_.reserve(*tick_count);
  for (uint64_t i = 0; i < *tick_count; ++i) {
    auto tick = in->ReadI32();
    if (!tick.ok()) return tick.status();
    auto count = in->ReadU64();
    if (!count.ok()) return count.status();
    grid.counts_.emplace_back(*tick, *count);
  }
  std::sort(grid.counts_.begin(), grid.counts_.end());
  for (size_t i = 1; i < grid.counts_.size(); ++i) {
    if (grid.counts_[i].first == grid.counts_[i - 1].first) {
      return Status::Invalid("GridIndex: duplicate count tick");
    }
  }

  // Read the cell-major lists. Writers emit strictly ascending keys, and
  // ticks within a cell, and only the list kind the finalized flag names;
  // anything else is a forgery (a duplicate would silently merge lists).
  struct Loaded {
    Tick tick;
    CellList list;
    /// The tick's position in counts_, set by the transpose below.
    size_t slot = 0;
  };
  std::vector<Loaded> loaded;
  auto cell_count = in->ReadCount(24);  // key + two map sizes
  if (!cell_count.ok()) return cell_count.status();
  for (uint64_t i = 0; i < *cell_count; ++i) {
    auto key = in->ReadU64();
    if (!key.ok()) return key.status();
    const auto cell_key = static_cast<int64_t>(*key);
    if (!loaded.empty() && cell_key <= loaded.back().list.key) {
      return Status::Invalid("GridIndex: cell keys not ascending");
    }
    const size_t first = loaded.size();
    const auto add = [&](Tick tick, CellList list) -> Status {
      if (loaded.size() > first && tick <= loaded.back().tick) {
        return Status::Invalid("GridIndex: cell ticks not ascending");
      }
      loaded.push_back({tick, list, 0});
      return Status::OK();
    };
    auto raw_ticks = in->ReadCount(12);  // i32 tick + u64 id count
    if (!raw_ticks.ok()) return raw_ticks.status();
    if (*raw_ticks > 0 && grid.finalized_) {
      return Status::Invalid("GridIndex: raw list in a finalized grid");
    }
    for (uint64_t r = 0; r < *raw_ticks; ++r) {
      auto tick = in->ReadI32();
      if (!tick.ok()) return tick.status();
      auto id_count = in->ReadCount(4);  // i32 per id
      if (!id_count.ok()) return id_count.status();
      if (*id_count > std::numeric_limits<uint32_t>::max()) {
        return Status::Invalid("GridIndex: raw list too long");
      }
      const uint64_t offset = grid.raw_ids_.size();
      for (uint64_t j = 0; j < *id_count; ++j) {
        auto id = in->ReadI32();
        if (!id.ok()) return id.status();
        grid.raw_ids_.push_back(*id);
      }
      PPQ_RETURN_NOT_OK(add(*tick, CellList{cell_key, offset,
                                            static_cast<uint32_t>(*id_count),
                                            0}));
    }
    auto packed_ticks = in->ReadCount(12);  // i32 tick + 8-byte list header
    if (!packed_ticks.ok()) return packed_ticks.status();
    if (*packed_ticks > 0 && !grid.finalized_) {
      return Status::Invalid("GridIndex: packed list in a raw grid");
    }
    for (uint64_t p = 0; p < *packed_ticks; ++p) {
      auto tick = in->ReadI32();
      if (!tick.ok()) return tick.status();
      const uint64_t offset = grid.arena_.size();
      auto header = ReadPackedList(in, &grid.arena_);
      if (!header.ok()) return header.status();
      const CellList list{cell_key, offset, header->count, header->bit_count};
      PPQ_RETURN_NOT_OK(add(*tick, list));
    }
    if (loaded.size() == first) {
      return Status::Invalid("GridIndex: cell without lists");
    }
  }
  if (loaded.empty()) return grid;

  // Transpose to tick-major: each list goes to its tick's slot among the
  // counted ticks (counts_, ascending, one per tick a writer inserted at),
  // then one counting pass over the slots lays out the runs. Within a
  // tick the lists keep their file order, which is ascending by key. The
  // cost scales with the lists, never with the span of their ticks.
  std::vector<size_t> next(grid.counts_.size() + 1, 0);
  for (Loaded& e : loaded) {
    const auto it = std::lower_bound(
        grid.counts_.begin(), grid.counts_.end(), e.tick,
        [](const std::pair<Tick, uint64_t>& c, Tick k) { return c.first < k; });
    if (it == grid.counts_.end() || it->first != e.tick) {
      return Status::Invalid("GridIndex: list at a tick without a count");
    }
    e.slot = static_cast<size_t>(it - grid.counts_.begin());
    ++next[e.slot + 1];
  }
  for (size_t s = 0; s < grid.counts_.size(); ++s) {
    if (next[s + 1] > 0) {
      grid.ticks_.push_back(grid.counts_[s].first);
      grid.run_begin_.push_back(next[s]);
    }
    next[s + 1] += next[s];
  }
  grid.lists_.resize(loaded.size());
  for (const Loaded& e : loaded) grid.lists_[next[e.slot]++] = e.list;
  // Raw ids stay in file order; re-lay them out in lists_ order.
  if (!grid.finalized_) {
    std::vector<TrajId> ids;
    ids.reserve(grid.raw_ids_.size());
    for (CellList& list : grid.lists_) {
      const auto begin = grid.raw_ids_.begin() + static_cast<ptrdiff_t>(list.offset);
      list.offset = ids.size();
      ids.insert(ids.end(), begin, begin + list.count);
    }
    grid.raw_ids_ = std::move(ids);
  }
  return grid;
}

size_t GridIndex::SizeBytes() const {
  size_t total = sizeof(Rect) + sizeof(double) + 2 * sizeof(int);
  total += table_.SizeBytes();
  std::vector<int64_t> keys;
  keys.reserve(lists_.size());
  for (const CellList& list : lists_) keys.push_back(list.key);
  std::sort(keys.begin(), keys.end());
  total += sizeof(int64_t) *  // one key per occupied cell
           static_cast<size_t>(std::unique(keys.begin(), keys.end()) -
                               keys.begin());
  for (const CellList& list : lists_) {
    // Packed lists are charged as CompressedIdList: bytes + two u32s.
    total += sizeof(Tick) + (finalized_ ? PackedBytes(list) + 2 * sizeof(uint32_t)
                                        : list.count * sizeof(TrajId));
  }
  return total;
}

}  // namespace ppq::index
