#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "index/huffman.h"
#include "index/rectangle.h"

/// \file grid_index.h
/// The per-subregion grid index of Algorithm 3 (after [41, 42]): a
/// rectangle partitioned into gc-sized cells, each cell holding the ids of
/// the trajectories located there, keyed by tick. Finalize() compresses
/// every id list with delta encoding plus a Huffman table shared across
/// the grid (Section 5.1).
///
/// Storage is tick-major and keeps only occupied cells (the skip-empty-
/// space idea of compact grid representations): the indexed ticks
/// ascending, each pointing at a key-sorted run of (cell key, id list)
/// entries. The lists themselves live in one flat buffer per grid — raw
/// ids before Finalize, one byte arena of packed lists after — so "the
/// cells occupied at t" is one binary search, and a grid costs a handful
/// of heap blocks however many (cell, tick) lists it holds.

namespace ppq::index {

/// \brief A cell holding ids at some tick, as GridIndex::CellsAt lists it.
struct CellHit {
  /// Distance from the probe point to the cell's rectangle.
  double distance = 0.0;
  /// The cell's list, for GridIndex::AppendIds.
  size_t list = 0;
  /// Caller tag (the k-NN search stores the subregion's position).
  uint32_t region = 0;
};

/// \brief Grid over one rectangle; maps (cell, tick) -> trajectory ids.
class GridIndex {
 public:
  /// \param region     the rectangle covered by this grid.
  /// \param cell_size  gc, in coordinate units.
  GridIndex(Rect region, double cell_size);

  const Rect& region() const { return region_; }
  double cell_size() const { return cell_size_; }
  int cells_x() const { return cells_x_; }
  int cells_y() const { return cells_y_; }

  bool Contains(const Point& p) const { return region_.Contains(p); }

  /// Index ids[i] at positions[i] for tick \p t, for every i < \p n; the
  /// caller guarantees Contains(positions[i]). Must not be called after
  /// Finalize. Each call rebuilds the tick's run once, so a tick's points
  /// inserted together cost O(n log n), and inserting them one call at a
  /// time costs quadratic in the tick's size. Ticks may arrive in any
  /// order; a new newest tick moves nothing else.
  void Insert(Tick t, const TrajId* ids, const Point* positions, size_t n);

  /// Number of ids indexed at tick \p t (the N_{R_i,t} of Definition 5.1).
  size_t CountAt(Tick t) const;

  /// Ids in the cell containing \p p at tick \p t (STRQ primitive).
  std::vector<TrajId> Query(const Point& p, Tick t) const;

  /// Append ids at tick \p t from every cell intersecting the disc around
  /// \p center (the local-search scan of Section 5.2), in ascending cell
  /// key order. Returns the number of cell lists decoded.
  size_t QueryCircle(const Point& center, double radius, Tick t,
                     std::vector<TrajId>* out) const;

  /// The best-first k-NN scan's source: append a CellHit, tagged with
  /// \p region, for every cell holding ids at tick \p t, with its
  /// distance to \p p. Reads only the tick's run.
  void CellsAt(const Point& p, Tick t, uint32_t region,
               std::vector<CellHit>* out) const;

  /// Append the ids of \p list (a CellHit::list of this grid).
  void AppendIds(size_t list, std::vector<TrajId>* out) const;

  /// Compress all id lists (delta + shared Huffman) into the byte arena.
  /// Insert must not be called after finalizing.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Exact storage footprint: region + one key per occupied cell + id
  /// lists (compressed when finalized, 4 bytes/id otherwise) + the shared
  /// Huffman table.
  size_t SizeBytes() const;

  /// Append the full grid state (region, cell lists — raw or packed — and
  /// the shared Huffman table) to \p out. Cells are written in key order,
  /// each with its lists in tick order, so equal grids serialize to equal
  /// bytes.
  void SaveTo(ByteWriter* out) const;

  /// Inverse of SaveTo. Geometry is validated (finite region, positive
  /// cell size, bounded cell counts) before any allocation; malformed
  /// input yields a Status error. The cell-major bytes are transposed to
  /// the tick-major layout by a counting pass over the grid's counted
  /// ticks, so no allocation scales with the span of a forged tick range.
  static Result<GridIndex> LoadFrom(ByteReader* in);

 private:
  /// One (tick, cell) id list.
  struct CellList {
    int64_t key = 0;
    /// Start of the list in raw_ids_ (ids) or arena_ (bytes).
    uint64_t offset = 0;
    uint32_t count = 0;
    /// Packed lists only: bits used in the arena.
    uint32_t bit_count = 0;
  };

  int64_t CellKey(const Point& p) const;
  /// The rectangle of the cell at column \p cx, row \p cy.
  Rect CellRect(int64_t cx, int64_t cy) const {
    const double min_x = region_.min_x + static_cast<double>(cx) * cell_size_;
    const double min_y = region_.min_y + static_cast<double>(cy) * cell_size_;
    return Rect{min_x, min_y, min_x + cell_size_, min_y + cell_size_};
  }
  /// [begin, end) of tick \p t's run in lists_ (empty when absent).
  std::pair<size_t, size_t> RunAt(Tick t) const;
  size_t RunEnd(size_t slot) const {
    return slot + 1 < run_begin_.size() ? run_begin_[slot + 1] : lists_.size();
  }
  /// Packed byte length of \p list.
  size_t PackedBytes(const CellList& list) const {
    return static_cast<size_t>((uint64_t{list.bit_count} + 7) / 8);
  }

  Rect region_;
  double cell_size_;
  int cells_x_;
  int cells_y_;
  bool finalized_ = false;
  /// Indexed ticks, ascending; ticks_[s]'s run is
  /// lists_[run_begin_[s], RunEnd(s)), ascending by key.
  std::vector<Tick> ticks_;
  std::vector<size_t> run_begin_;
  std::vector<CellList> lists_;
  /// Raw lists (before Finalize), laid out in lists_ order.
  std::vector<TrajId> raw_ids_;
  /// Packed lists (after Finalize).
  std::vector<uint8_t> arena_;
  /// (tick, ids indexed at tick), ascending by tick.
  std::vector<std::pair<Tick, uint64_t>> counts_;
  HuffmanTable table_;
};

}  // namespace ppq::index
