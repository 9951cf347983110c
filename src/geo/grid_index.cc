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

void GridIndex::EraseFromCell(int64_t id, Point p) {
  std::vector<Slot>& cell = cells_[CellOf(p)];
  auto it = std::find_if(cell.begin(), cell.end(),
                         [id](const Slot& slot) { return slot.id == id; });
  WATTER_CHECK(it != cell.end(), "grid cell lost an indexed element");
  *it = cell.back();
  cell.pop_back();
}

void GridIndex::Insert(int64_t id, Point p) {
  auto [it, inserted] = points_.try_emplace(id, p);
  if (!inserted) {
    EraseFromCell(id, it->second);
    it->second = p;
  }
  cells_[CellOf(p)].push_back({id, p});
}

Status GridIndex::Remove(int64_t id) {
  auto it = points_.find(id);
  if (it == points_.end()) {
    return Status::NotFound("grid element " + std::to_string(id));
  }
  EraseFromCell(id, it->second);
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
  if (k <= 0 || points_.empty()) return {};
  const size_t want = static_cast<size_t>(k);
  // Max-heap of the best (distance, id) pairs so far, at most `want` of
  // them: its front is the current k-th best.
  std::vector<std::pair<double, int64_t>> best;
  best.reserve(std::min(want, points_.size()));
  const int center_row = RowOf(p.y);
  const int center_col = ColOf(p.x);
  const double ring_step = std::min(cell_width_, cell_height_);
  for (int ring = 0; ring <= cells_per_side_; ++ring) {
    // No point of ring `ring` lies closer than (ring - 1) * ring_step. The
    // stop is strict: an unscanned point at exactly the k-th distance may
    // still win the tie on its smaller id.
    if (best.size() == want && best.front().first < (ring - 1) * ring_step) {
      break;
    }
    bool any_cell = false;
    const int first_row = std::max(0, center_row - ring);
    const int last_row = std::min(cells_per_side_ - 1, center_row + ring);
    for (int row = first_row; row <= last_row; ++row) {
      // Only the ring boundary (interior was handled by earlier rings): a
      // whole top or bottom row, else its two side cells.
      const int step = std::abs(row - center_row) == ring ? 1 : 2 * ring;
      for (int col = center_col - ring; col <= center_col + ring;
           col += step) {
        if (col < 0 || col >= cells_per_side_) continue;
        any_cell = true;
        for (const Slot& slot :
             cells_[static_cast<size_t>(row) * cells_per_side_ + col]) {
          const std::pair<double, int64_t> candidate(
              EuclideanDistance(slot.point, p), slot.id);
          const bool full = best.size() == want;
          if (full && !(candidate < best.front())) continue;
          if (accept != nullptr && !accept(slot.id)) continue;
          if (full) {
            std::pop_heap(best.begin(), best.end());
            best.back() = candidate;
          } else {
            best.push_back(candidate);
          }
          std::push_heap(best.begin(), best.end());
        }
      }
    }
    if (!any_cell && ring > 0) break;  // Left the grid on all sides.
  }
  std::sort_heap(best.begin(), best.end());
  std::vector<int64_t> ids;
  ids.reserve(best.size());
  for (const auto& [dist, id] : best) ids.push_back(id);
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
