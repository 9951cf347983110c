#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/geo/grid_index.h"

namespace watter {
namespace {

GridIndex MakeIndex(int cells = 10) {
  return GridIndex(Point{0, 0}, Point{100, 100}, cells);
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
  std::vector<std::pair<int64_t, Point>> all;
  for (int64_t id = 0; id < 200; ++id) {
    Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    index.Insert(id, p);
    all.emplace_back(id, p);
  }
  for (int trial = 0; trial < 25; ++trial) {
    Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const int k = 5;
    auto got = index.KNearest(k, q);
    ASSERT_EQ(got.size(), static_cast<size_t>(k));
    auto brute = all;
    std::sort(brute.begin(), brute.end(),
              [&q](const auto& a, const auto& b) {
                return EuclideanDistance(a.second, q) <
                       EuclideanDistance(b.second, q);
              });
    // Compare by distance: ties may reorder ids.
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(EuclideanDistance(index.PointOf(got[i]), q),
                  EuclideanDistance(brute[i].second, q), 1e-9);
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
