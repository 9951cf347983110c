// Uniform 2-D grid index over points.
//
// The paper (Section VII-A) partitions the city into an n x n cell grid and
// uses it to (a) speed up nearest-worker and nearby-order search and (b)
// quantize locations for the RL state features. This index serves both
// purposes: it supports insert/remove of identified points (re-inserting
// relocates), ring-expansion k-nearest queries, and exposes per-cell
// occupancy counts.
//
// Each cell is one contiguous vector of {id, point} slots, so a k-nearest
// scan reads points without a hash lookup; the id -> point map answers
// Contains/PointOf and names the cell a removal swap-pops from.
#ifndef WATTER_GEO_GRID_INDEX_H_
#define WATTER_GEO_GRID_INDEX_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/geo/point.h"

namespace watter {

/// Grid spatial index with integer element ids.
class GridIndex {
 public:
  /// Covers [min_corner, max_corner] with cells_per_side^2 cells. Points
  /// outside the box are clamped into the border cells.
  GridIndex(Point min_corner, Point max_corner, int cells_per_side);

  /// Inserts `id` at `p`; re-inserting an existing id relocates it.
  void Insert(int64_t id, Point p);

  /// Removes `id`; NotFound if absent.
  Status Remove(int64_t id);

  /// Drops all elements (grid geometry is retained).
  void Clear();

  bool Contains(int64_t id) const { return points_.count(id) > 0; }
  size_t size() const { return points_.size(); }
  int cells_per_side() const { return cells_per_side_; }

  /// Flat cell index (row-major) containing `p`.
  int CellOf(Point p) const;

  /// Location of a stored element; kInvalid point if absent.
  Point PointOf(int64_t id) const;

  /// Up to `k` stored ids nearest to `p` by Euclidean distance, optionally
  /// filtered by `accept`: exactly the first k accepted ids in ascending
  /// (distance, id) order, ties on distance going to the smaller id.
  std::vector<int64_t> KNearest(
      int64_t k, Point p,
      const std::function<bool(int64_t)>& accept = nullptr) const;

  /// Occupancy count per cell (row-major, cells_per_side^2 entries).
  std::vector<int> CellCounts() const;

  /// All stored ids (unspecified order).
  std::vector<int64_t> AllIds() const;

 private:
  struct Slot {
    int64_t id;
    Point point;
  };

  int RowOf(double y) const;
  int ColOf(double x) const;
  // Swap-pops `id` out of the cell that holds `p`.
  void EraseFromCell(int64_t id, Point p);

  Point min_corner_;
  Point max_corner_;
  int cells_per_side_;
  double cell_width_;
  double cell_height_;
  std::vector<std::vector<Slot>> cells_;
  std::unordered_map<int64_t, Point> points_;
};

}  // namespace watter

#endif  // WATTER_GEO_GRID_INDEX_H_
