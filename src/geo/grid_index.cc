#include "src/geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace watter {

GridIndex::GridIndex(Point min_corner, Point max_corner, int cells_per_side)
    : min_corner_(min_corner),
      max_corner_(max_corner),
      cells_per_side_(std::max(1, cells_per_side)) {
  double width = std::max(1e-9, max_corner_.x - min_corner_.x);
  double height = std::max(1e-9, max_corner_.y - min_corner_.y);
  cell_width_ = width / cells_per_side_;
  cell_height_ = height / cells_per_side_;
  cells_.resize(static_cast<size_t>(cells_per_side_) * cells_per_side_);
}

int GridIndex::ColOf(double x) const {
  int col = static_cast<int>((x - min_corner_.x) / cell_width_);
  return std::clamp(col, 0, cells_per_side_ - 1);
}

int GridIndex::RowOf(double y) const {
  int row = static_cast<int>((y - min_corner_.y) / cell_height_);
  return std::clamp(row, 0, cells_per_side_ - 1);
}

int GridIndex::CellOf(Point p) const {
  return RowOf(p.y) * cells_per_side_ + ColOf(p.x);
}

void GridIndex::Insert(int64_t id, Point p) {
  auto it = points_.find(id);
  if (it != points_.end()) {
    cells_[CellOf(it->second)].erase(id);
    it->second = p;
  } else {
    points_.emplace(id, p);
  }
  cells_[CellOf(p)].insert(id);
}

Status GridIndex::Remove(int64_t id) {
  auto it = points_.find(id);
  if (it == points_.end()) {
    return Status::NotFound("grid element " + std::to_string(id));
  }
  cells_[CellOf(it->second)].erase(id);
  points_.erase(it);
  return Status::Ok();
}

void GridIndex::Clear() {
  for (auto& cell : cells_) cell.clear();
  points_.clear();
}

Point GridIndex::PointOf(int64_t id) const {
  auto it = points_.find(id);
  if (it == points_.end()) {
    return Point{std::numeric_limits<double>::quiet_NaN(),
                 std::numeric_limits<double>::quiet_NaN()};
  }
  return it->second;
}

std::vector<int64_t> GridIndex::KNearest(
    int64_t k, Point p, const std::function<bool(int64_t)>& accept) const {
  std::vector<std::pair<double, int64_t>> found;
  if (k <= 0 || points_.empty()) return {};
  const int center_row = RowOf(p.y);
  const int center_col = ColOf(p.x);
  const int max_ring = cells_per_side_;  // Worst case scans everything.
  double safe_radius = -1.0;  // Distance below which results are final.
  for (int ring = 0; ring <= max_ring; ++ring) {
    // Once we hold k candidates, we may stop as soon as the closest possible
    // point in the next unexplored ring cannot beat the current k-th best.
    if (static_cast<int64_t>(found.size()) >= k) {
      std::nth_element(
          found.begin(), found.begin() + (k - 1), found.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      double kth = found[k - 1].first;
      safe_radius = (ring - 1) * std::min(cell_width_, cell_height_);
      if (kth <= safe_radius) break;
    }
    bool any_cell = false;
    for (int row = center_row - ring; row <= center_row + ring; ++row) {
      if (row < 0 || row >= cells_per_side_) continue;
      for (int col = center_col - ring; col <= center_col + ring; ++col) {
        if (col < 0 || col >= cells_per_side_) continue;
        // Only the ring boundary (interior was handled by earlier rings).
        if (ring > 0 && std::max(std::abs(row - center_row),
                                 std::abs(col - center_col)) != ring) {
          continue;
        }
        any_cell = true;
        for (int64_t id : cells_[static_cast<size_t>(row) * cells_per_side_ +
                                 col]) {
          if (accept != nullptr && !accept(id)) continue;
          found.emplace_back(EuclideanDistance(points_.at(id), p), id);
        }
      }
    }
    if (!any_cell && ring > 0) break;  // Left the grid on all sides.
  }
  std::sort(found.begin(), found.end());
  if (static_cast<int64_t>(found.size()) > k) found.resize(k);
  std::vector<int64_t> ids;
  ids.reserve(found.size());
  for (const auto& [dist, id] : found) ids.push_back(id);
  return ids;
}

std::vector<int64_t> GridIndex::AllIds() const {
  std::vector<int64_t> ids;
  ids.reserve(points_.size());
  for (const auto& [id, point] : points_) ids.push_back(id);
  return ids;
}

std::vector<int> GridIndex::CellCounts() const {
  std::vector<int> counts(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    counts[i] = static_cast<int>(cells_[i].size());
  }
  return counts;
}

}  // namespace watter
