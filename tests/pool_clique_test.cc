#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "src/pool/clique_enumerator.h"
#include "src/pool/shareability_graph.h"
#include "tests/test_util.h"

namespace watter {
namespace {

constexpr double kMin = 60.0;

// A pool where many orders share the same corridor so the graph grows dense
// cliques: all orders go d -> e -> f-ish with wide deadlines.
class CliqueTest : public testing::Test {
 protected:
  CliqueTest()
      : graph_(testutil::MakeExample1Graph()),
        oracle_(&graph_),
        planner_(&oracle_),
        share_(&planner_, ShareabilityOptions{5, true}) {}

  Order CorridorOrder(OrderId id, NodeId pickup, NodeId dropoff) {
    Order order;
    order.id = id;
    order.pickup = pickup;
    order.dropoff = dropoff;
    order.riders = 1;
    order.release = 0.0;
    order.deadline = 60 * kMin;
    order.wait_limit = 10 * kMin;
    order.shortest_cost = oracle_.Cost(pickup, dropoff);
    return order;
  }

  Graph graph_;
  DijkstraOracle oracle_;
  RoutePlanner planner_;
  ShareabilityGraph share_;
  CliqueEnumerator enumerator_;
};

TEST_F(CliqueTest, TriangleYieldsPairsAndTriple) {
  // Three orders along d -> e -> f: all pairwise shareable (orders 1 and 2
  // are identical trips; order 3 covers the trailing leg).
  ASSERT_TRUE(share_.Insert(CorridorOrder(1, testutil::kD, testutil::kF), 0)
                  .ok());
  ASSERT_TRUE(share_.Insert(CorridorOrder(2, testutil::kD, testutil::kF), 0)
                  .ok());
  ASSERT_TRUE(share_.Insert(CorridorOrder(3, testutil::kE, testutil::kF), 0)
                  .ok());
  ASSERT_EQ(share_.edge_count(), 3);

  std::set<std::vector<OrderId>> cliques;
  int visited = enumerator_.Enumerate(
      share_, 1, CliqueOptions{5, 1000},
      [&](std::span<const OrderId> members) {
        cliques.emplace(members.begin(), members.end());
      });
  EXPECT_EQ(visited, 3);
  EXPECT_TRUE(cliques.count({1, 2}));
  EXPECT_TRUE(cliques.count({1, 3}));
  EXPECT_TRUE(cliques.count({1, 2, 3}));
  EXPECT_FALSE(cliques.count({2, 3}));  // Doesn't contain the anchor.
}

TEST_F(CliqueTest, MaxSizeBoundsCliqueDepth) {
  ASSERT_TRUE(share_.Insert(CorridorOrder(1, testutil::kD, testutil::kF), 0)
                  .ok());
  ASSERT_TRUE(share_.Insert(CorridorOrder(2, testutil::kD, testutil::kE), 0)
                  .ok());
  ASSERT_TRUE(share_.Insert(CorridorOrder(3, testutil::kE, testutil::kF), 0)
                  .ok());
  std::set<std::vector<OrderId>> cliques;
  enumerator_.Enumerate(
      share_, 1, CliqueOptions{2, 1000},
      [&](std::span<const OrderId> members) {
        cliques.emplace(members.begin(), members.end());
      });
  EXPECT_EQ(cliques.size(), 2u);  // Only the two pairs.
  for (const auto& clique : cliques) EXPECT_LE(clique.size(), 2u);
}

TEST_F(CliqueTest, VisitBudgetStopsEnumeration) {
  for (OrderId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(
        share_.Insert(CorridorOrder(id, testutil::kD, testutil::kF), 0).ok());
  }
  int visited = enumerator_.Enumerate(
      share_, 1, CliqueOptions{5, 3},
      [](std::span<const OrderId>) {});
  EXPECT_EQ(visited, 3);
}

TEST_F(CliqueTest, EveryEmittedCliqueIsActuallyAClique) {
  for (OrderId id = 1; id <= 4; ++id) {
    NodeId pickup = id % 2 == 0 ? testutil::kD : testutil::kE;
    ASSERT_TRUE(
        share_.Insert(CorridorOrder(id, pickup, testutil::kF), 0).ok());
  }
  int checked = 0;
  enumerator_.Enumerate(
      share_, 2, CliqueOptions{4, 1000},
      [&](std::span<const OrderId> members) {
        ++checked;
        EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
        EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                       OrderId{2}));
        for (size_t i = 0; i < members.size(); ++i) {
          for (size_t j = i + 1; j < members.size(); ++j) {
            EXPECT_TRUE(share_.HasEdge(members[i], members[j]))
                << members[i] << "-" << members[j];
          }
        }
      });
  EXPECT_GT(checked, 0);
}

TEST_F(CliqueTest, NoDuplicateCliques) {
  for (OrderId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(
        share_.Insert(CorridorOrder(id, testutil::kD, testutil::kF), 0).ok());
  }
  std::vector<std::vector<OrderId>> seen;
  enumerator_.Enumerate(
      share_, 1, CliqueOptions{5, 100000},
      [&](std::span<const OrderId> members) {
        seen.emplace_back(members.begin(), members.end());
      });
  std::set<std::vector<OrderId>> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), seen.size());
  // 4 neighbors, all mutually adjacent: cliques containing the anchor are
  // all non-empty subsets of the 4 neighbors: 2^4 - 1 = 15.
  EXPECT_EQ(seen.size(), 15u);
}

TEST_F(CliqueTest, UnknownAnchorOrTinyMaxSizeYieldsNothing) {
  EXPECT_EQ(enumerator_.Enumerate(share_, 404, CliqueOptions{5, 100},
                                  [](std::span<const OrderId>) {}),
            0);
  ASSERT_TRUE(share_.Insert(CorridorOrder(1, testutil::kD, testutil::kF), 0)
                  .ok());
  EXPECT_EQ(enumerator_.Enumerate(share_, 1, CliqueOptions{1, 100},
                                  [](std::span<const OrderId>) {}),
            0);
}

}  // namespace
}  // namespace watter
