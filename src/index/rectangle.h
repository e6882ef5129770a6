#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/types.h"

/// \file rectangle.h
/// Axis-aligned rectangle geometry for the partition-based index
/// (Algorithm 3): minimum bounding rectangles, overlap tests, and the
/// remove_overlap step that subtracts already-indexed regions from a new
/// MBR and decomposes the rectilinear remainder into disjoint rectangles
/// (after Gourley & Green [17]).

namespace ppq::index {

/// \brief Closed axis-aligned rectangle.
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
  double Area() const { return width() * height(); }
  bool Empty() const { return max_x <= min_x || max_y <= min_y; }

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// Euclidean distance from \p p to the rectangle (0 inside).
  double DistanceTo(const Point& p) const {
    const double dx = std::max({min_x - p.x, 0.0, p.x - max_x});
    const double dy = std::max({min_y - p.y, 0.0, p.y - max_y});
    return std::sqrt(dx * dx + dy * dy);
  }

  /// Interior overlap (touching edges do not count).
  bool Intersects(const Rect& o) const {
    return min_x < o.max_x && o.min_x < max_x && min_y < o.max_y &&
           o.min_y < max_y;
  }

  Rect Intersection(const Rect& o) const {
    return Rect{std::max(min_x, o.min_x), std::max(min_y, o.min_y),
                std::min(max_x, o.max_x), std::min(max_y, o.max_y)};
  }

  bool operator==(const Rect& o) const {
    return min_x == o.min_x && min_y == o.min_y && max_x == o.max_x &&
           max_y == o.max_y;
  }
};

/// Minimum bounding rectangle of \p points (empty input yields an Empty
/// rect at the origin).
Rect BoundingRect(const std::vector<Point>& points);

/// \brief Subtract every rectangle of \p existing from \p rect and
/// decompose what remains into non-overlapping rectangles.
///
/// Implementation: a vertical-slab sweep over the x-breakpoints induced by
/// \p rect and the clipped holes, computing free y-intervals per slab, then
/// coalescing x-adjacent slabs whose interval sets match. Output rectangles
/// are pairwise disjoint, disjoint from \p existing, and their union is
/// exactly rect minus the holes.
std::vector<Rect> RemoveOverlap(const Rect& rect,
                                const std::vector<Rect>& existing);

}  // namespace ppq::index
