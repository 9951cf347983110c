#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/geo/grid_index.h"

namespace watter {
namespace {

GridIndex MakeIndex(int cells = 10) {
  return GridIndex(Point{0, 0}, Point{100, 100}, cells);
}

using Element = std::pair<int64_t, Point>;

// The first k accepted ids in ascending (distance, id) order: KNearest's
// contract, by brute force.
std::vector<int64_t> BruteForceKNearest(
    const std::vector<Element>& all, int64_t k, Point q,
    const std::function<bool(int64_t)>& accept = nullptr) {
  std::vector<std::pair<double, int64_t>> ranked;
  for (const auto& [id, p] : all) {
    if (accept == nullptr || accept(id)) {
      ranked.emplace_back(EuclideanDistance(p, q), id);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int64_t> ids;
  for (const auto& [dist, id] : ranked) {
    if (static_cast<int64_t>(ids.size()) == k) break;
    ids.push_back(id);
  }
  return ids;
}

// An 11 x 11 lattice at spacing 0.1 over [0, 1]^2, ids descending in
// reading order, so every distance tie has a smaller id further along.
// With 10 cells per side every lattice line is a cell boundary, and
// (x - min) / width puts some boundary points in the lower cell.
std::vector<Element> UnitLattice() {
  std::vector<Element> all;
  for (int row = 0; row <= 10; ++row) {
    for (int col = 0; col <= 10; ++col) {
      all.emplace_back(120 - (row * 11 + col), Point{col / 10.0, row / 10.0});
    }
  }
  return all;
}

TEST(GridIndexTest, InsertRemoveContains) {
  GridIndex index = MakeIndex();
  index.Insert(1, {10, 10});
  index.Insert(2, {90, 90});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.Contains(1));
  ASSERT_TRUE(index.Remove(1).ok());
  EXPECT_FALSE(index.Contains(1));
  EXPECT_EQ(index.Remove(1).code(), StatusCode::kNotFound);
}

TEST(GridIndexTest, ReinsertRelocates) {
  GridIndex index = MakeIndex();
  index.Insert(7, {5, 5});
  index.Insert(7, {95, 95});
  EXPECT_EQ(index.size(), 1u);
  auto nearest = index.KNearest(1, {99, 99});
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0], 7);
}

TEST(GridIndexTest, CellOfClampsOutOfBox) {
  GridIndex index = MakeIndex();
  EXPECT_EQ(index.CellOf({-50, -50}), index.CellOf({0, 0}));
  EXPECT_EQ(index.CellOf({500, 500}), index.CellOf({99.999, 99.999}));
}

TEST(GridIndexTest, KNearestMatchesBruteForce) {
  GridIndex index = MakeIndex(8);
  Rng rng(42);
  std::vector<Element> all;
  for (int64_t id = 0; id < 200; ++id) {
    Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    index.Insert(id, p);
    all.emplace_back(id, p);
  }
  for (int trial = 0; trial < 25; ++trial) {
    Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    EXPECT_EQ(index.KNearest(5, q), BruteForceKNearest(all, 5, q));
  }
}

TEST(GridIndexTest, KNearestMatchesBruteForceAfterChurn) {
  // Removals swap-pop within a cell and re-inserts relocate; neither may
  // leave a stale slot behind.
  GridIndex index = MakeIndex(6);
  Rng rng(9);
  std::vector<Element> all;
  for (int64_t id = 0; id < 300; ++id) {
    Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    index.Insert(id, p);
    all.emplace_back(id, p);
  }
  std::vector<Element> kept;
  for (auto& [id, p] : all) {
    if (id % 3 == 0) {
      ASSERT_TRUE(index.Remove(id).ok());
      continue;
    }
    if (id % 3 == 1) {
      p = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      index.Insert(id, p);
    }
    kept.push_back({id, p});
  }
  ASSERT_EQ(index.size(), kept.size());
  int total = 0;
  for (int count : index.CellCounts()) total += count;
  EXPECT_EQ(total, static_cast<int>(kept.size()));
  for (int trial = 0; trial < 25; ++trial) {
    Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    EXPECT_EQ(index.KNearest(7, q), BruteForceKNearest(kept, 7, q));
  }
}

TEST(GridIndexTest, KNearestBreaksLatticeTiesBySmallerId) {
  // A tie at exactly the unexplored radius must not end the ring scan: the
  // unscanned point may hold the smaller id. 10 cells per side put a cell
  // boundary on every lattice line; the other resolutions on few or none.
  const std::vector<Element> all = UnitLattice();
  const std::function<bool(int64_t)> odd = [](int64_t id) {
    return id % 2 == 1;
  };
  for (int cells : {10, 3, 7, 13, 32}) {
    GridIndex index(Point{0, 0}, Point{1, 1}, cells);
    for (const auto& [id, p] : all) index.Insert(id, p);
    for (const auto& [query_id, q] : all) {
      for (int64_t k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200}) {
        SCOPED_TRACE(testing::Message()
                     << cells << " cells, query (" << q.x << ", " << q.y
                     << "), k = " << k);
        EXPECT_EQ(index.KNearest(k, q), BruteForceKNearest(all, k, q));
        EXPECT_EQ(index.KNearest(k, q, odd),
                  BruteForceKNearest(all, k, q, odd));
      }
    }
  }
}

TEST(GridIndexTest, KNearestHonorsFilter) {
  GridIndex index = MakeIndex();
  index.Insert(1, {50, 50});
  index.Insert(2, {51, 50});
  index.Insert(3, {52, 50});
  auto got = index.KNearest(2, {50, 50},
                            [](int64_t id) { return id % 2 == 1; });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 3);
}

TEST(GridIndexTest, KNearestWithFewerElementsReturnsAll) {
  GridIndex index = MakeIndex();
  index.Insert(1, {10, 10});
  auto got = index.KNearest(5, {0, 0});
  EXPECT_EQ(got.size(), 1u);
  EXPECT_TRUE(index.KNearest(0, {0, 0}).empty());
}

TEST(GridIndexTest, CellCountsSumToSize) {
  GridIndex index = MakeIndex(4);
  Rng rng(3);
  for (int64_t id = 0; id < 60; ++id) {
    index.Insert(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  auto counts = index.CellCounts();
  EXPECT_EQ(counts.size(), 16u);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 60);
}

TEST(GridIndexTest, ClearEmptiesEverything) {
  GridIndex index = MakeIndex();
  index.Insert(1, {1, 1});
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.KNearest(3, {1, 1}).empty());
}

TEST(GridIndexTest, PointOfMissingIsNaN) {
  GridIndex index = MakeIndex();
  Point p = index.PointOf(404);
  EXPECT_TRUE(std::isnan(p.x));
}

}  // namespace
}  // namespace watter
