#include <gtest/gtest.h>

#include <algorithm>

#include "src/pool/shareability_graph.h"
#include "tests/test_util.h"

namespace watter {
namespace {

constexpr double kMin = 60.0;

class ShareabilityGraphTest : public testing::Test {
 protected:
  ShareabilityGraphTest()
      : graph_(testutil::MakeExample1Graph()),
        oracle_(&graph_),
        planner_(&oracle_),
        share_(&planner_, ShareabilityOptions{4, true}),
        orders_(testutil::MakeExample1Orders()) {}

  Graph graph_;
  DijkstraOracle oracle_;
  RoutePlanner planner_;
  ShareabilityGraph share_;
  std::vector<Order> orders_;
};

TEST_F(ShareabilityGraphTest, InsertCreatesEdgesForShareablePairs) {
  ASSERT_TRUE(share_.Insert(orders_[0], orders_[0].release).ok());
  auto gained = share_.Insert(orders_[2], orders_[2].release);
  ASSERT_TRUE(gained.ok());
  // o1 (a->c) and o3 (d->c) share route d->a->c: edge expected.
  ASSERT_EQ(gained.edges.size(), 1u);
  EXPECT_EQ(gained.edges[0].other, orders_[0].id);
  EXPECT_TRUE(share_.HasEdge(orders_[0].id, orders_[2].id));
  EXPECT_TRUE(share_.HasEdge(orders_[2].id, orders_[0].id));
  EXPECT_EQ(share_.edge_count(), 1);
}

TEST_F(ShareabilityGraphTest, EdgeCarriesPairCostAndExpiry) {
  ASSERT_TRUE(share_.Insert(orders_[1], orders_[1].release).ok());
  ASSERT_TRUE(share_.Insert(orders_[3], orders_[3].release).ok());
  const auto& edges = share_.Neighbors(orders_[1].id);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_DOUBLE_EQ(edges[0].pair_cost, 2 * kMin);  // d -> e -> f.
  // Expiry = min over members of (deadline - completion): o2 completes at
  // 2 min, o4 at 2 min on that route.
  double expected_expiry = std::min(orders_[1].deadline - 2 * kMin,
                                    orders_[3].deadline - 2 * kMin);
  EXPECT_DOUBLE_EQ(edges[0].expiry, expected_expiry);
}

TEST_F(ShareabilityGraphTest, DuplicateInsertFails) {
  ASSERT_TRUE(share_.Insert(orders_[0], 5).ok());
  EXPECT_EQ(share_.Insert(orders_[0], 6).status.code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ShareabilityGraphTest, RemoveDropsBothDirections) {
  ASSERT_TRUE(share_.Insert(orders_[0], 5).ok());
  ASSERT_TRUE(share_.Insert(orders_[2], 10).ok());
  auto neighbors = share_.Remove(orders_[0].id);
  ASSERT_TRUE(neighbors.ok());
  ASSERT_EQ(neighbors->size(), 1u);
  EXPECT_EQ((*neighbors)[0], orders_[2].id);
  EXPECT_FALSE(share_.Contains(orders_[0].id));
  EXPECT_TRUE(share_.Neighbors(orders_[2].id).empty());
  EXPECT_EQ(share_.edge_count(), 0);
  EXPECT_EQ(share_.Remove(orders_[0].id).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ShareabilityGraphTest, NonShareablePairGetsNoEdge) {
  // o1 (a->c) and o4 (e->f): overlapping route would be a huge detour, and
  // with tight deadlines it is infeasible.
  Order o1 = orders_[0];
  Order o4 = orders_[3];
  o1.deadline = o1.release + 2.2 * kMin;  // Barely above its 2-min ride.
  o4.deadline = o4.release + 1.2 * kMin;
  ASSERT_TRUE(share_.Insert(o1, o1.release).ok());
  auto gained = share_.Insert(o4, o4.release);
  ASSERT_TRUE(gained.ok());
  EXPECT_TRUE(gained.edges.empty());
  EXPECT_FALSE(share_.HasEdge(o1.id, o4.id));
}

TEST_F(ShareabilityGraphTest, OverlapRequirementFiltersSequentialChains) {
  // On a path a-b-c-d-e, order X (a->b) and order Y (d->e) point the same
  // way but are disjoint: the cheapest joint route is the sequential chain
  // a,b,d,e (cost 4), and any interleaved route costs more. The strict graph
  // must reject the pair; a permissive graph accepts the chain.
  Graph line;
  for (int i = 0; i < 5; ++i) {
    line.AddNode({static_cast<double>(i), 0.0});
  }
  for (int i = 0; i + 1 < 5; ++i) {
    line.AddBidirectionalEdge(i, i + 1, kMin);
  }
  ASSERT_TRUE(line.Finalize().ok());
  DijkstraOracle oracle(&line);
  RoutePlanner planner(&oracle);

  Order x{.id = 10, .pickup = 0, .dropoff = 1, .riders = 1, .release = 0,
          .deadline = 60 * kMin, .wait_limit = 10 * kMin,
          .shortest_cost = kMin};
  Order y{.id = 11, .pickup = 3, .dropoff = 4, .riders = 1, .release = 0,
          .deadline = 60 * kMin, .wait_limit = 10 * kMin,
          .shortest_cost = kMin};

  ShareabilityGraph strict(&planner, ShareabilityOptions{4, true});
  ASSERT_TRUE(strict.Insert(x, 0).ok());
  ASSERT_TRUE(strict.Insert(y, 0).ok());
  EXPECT_FALSE(strict.HasEdge(x.id, y.id));

  ShareabilityGraph loose(&planner, ShareabilityOptions{4, false});
  ASSERT_TRUE(loose.Insert(x, 0).ok());
  ASSERT_TRUE(loose.Insert(y, 0).ok());
  EXPECT_TRUE(loose.HasEdge(x.id, y.id));
  // The chained route costs 4 minutes (a->b->d->e with the b->d connection).
  EXPECT_DOUBLE_EQ(loose.Neighbors(x.id)[0].pair_cost, 4 * kMin);
}

TEST_F(ShareabilityGraphTest, ExpireEdgesDropsStaleOnes) {
  ASSERT_TRUE(share_.Insert(orders_[1], orders_[1].release).ok());
  ASSERT_TRUE(share_.Insert(orders_[3], orders_[3].release).ok());
  ASSERT_EQ(share_.edge_count(), 1);
  double expiry = share_.Neighbors(orders_[1].id)[0].expiry;
  // Just before expiry: edge stays.
  EXPECT_TRUE(share_.ExpireEdges(expiry - 1.0).empty());
  EXPECT_EQ(share_.edge_count(), 1);
  // After expiry: both endpoints affected.
  auto affected = share_.ExpireEdges(expiry + 1.0);
  std::sort(affected.begin(), affected.end());
  EXPECT_EQ(affected,
            (std::vector<OrderId>{orders_[1].id, orders_[3].id}));
  EXPECT_EQ(share_.edge_count(), 0);
}

TEST_F(ShareabilityGraphTest, LateInsertSkipsExpiredCandidates) {
  Order stale = orders_[0];
  ASSERT_TRUE(share_.Insert(stale, stale.release).ok());
  // Insert a partner after o1's latest dispatch: no pair test can succeed.
  Time too_late = stale.LatestDispatch() + 1.0;
  int64_t tests_before = share_.pair_tests();
  auto gained = share_.Insert(orders_[2], too_late);
  ASSERT_TRUE(gained.ok());
  EXPECT_TRUE(gained.edges.empty());
  EXPECT_EQ(share_.pair_tests(), tests_before);  // Quick-reject, no plan.
}

// Batched insertion: each arrival sees the residents and the earlier
// admitted arrivals of its batch, under the same quick-reject rules as one
// Insert call per arrival.

TEST_F(ShareabilityGraphTest, BatchKeepsTheFirstCopyOfADuplicateId) {
  Order second_copy = orders_[0];
  second_copy.pickup = testutil::kE;
  const std::vector<Arrival> batch = {
      {orders_[0], 5}, {orders_[2], 10}, {second_copy, 12}};
  std::vector<InsertOutcome> outcomes = share_.Insert(batch);
  ASSERT_EQ(outcomes.size(), 3u);
  ASSERT_TRUE(outcomes[0].ok());
  ASSERT_TRUE(outcomes[1].ok());
  ASSERT_EQ(outcomes[1].edges.size(), 1u);
  EXPECT_EQ(outcomes[1].edges[0].other, orders_[0].id);
  EXPECT_EQ(outcomes[2].status.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(outcomes[2].edges.empty());
  EXPECT_EQ(share_.size(), 2u);
  EXPECT_EQ(share_.GetOrder(orders_[0].id)->pickup, testutil::kA);
  EXPECT_EQ(share_.pair_tests(), 1);  // The duplicate planned nothing.
  EXPECT_EQ(share_.edge_count(), 1);
}

TEST_F(ShareabilityGraphTest, BatchArrivalPastItsLatestDispatchGetsNoTests) {
  ASSERT_TRUE(share_.Insert(orders_[1], orders_[1].release).ok());
  const Time too_late = orders_[2].LatestDispatch() + 1.0;
  const std::vector<Arrival> batch = {{orders_[0], orders_[0].release},
                                      {orders_[2], too_late}};
  std::vector<InsertOutcome> outcomes = share_.Insert(batch);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[1].ok());
  EXPECT_TRUE(outcomes[1].edges.empty());
  EXPECT_TRUE(share_.Contains(orders_[2].id));
  EXPECT_TRUE(share_.Neighbors(orders_[2].id).empty());
  // Order 1 tested its one resident; the late arrival tested no one.
  EXPECT_EQ(share_.pair_tests(), 1);
}

TEST_F(ShareabilityGraphTest, BatchSkipsAnEarlierArrivalThatExpiredMeanwhile) {
  const Order& stale = orders_[0];
  const Time later = stale.LatestDispatch() + 1.0;
  Order fresh = orders_[2];  // Shares with `stale` at its own release.
  fresh.deadline = later + 20 * kMin;
  const std::vector<Arrival> batch = {{stale, stale.release},
                                      {fresh, later}};
  std::vector<InsertOutcome> outcomes = share_.Insert(batch);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok());
  ASSERT_TRUE(outcomes[1].ok());
  EXPECT_TRUE(outcomes[1].edges.empty());
  EXPECT_EQ(share_.size(), 2u);
  EXPECT_EQ(share_.pair_tests(), 0);  // Quick-rejected, never planned.
  EXPECT_FALSE(share_.HasEdge(stale.id, fresh.id));
}

TEST_F(ShareabilityGraphTest, AccessorsOnUnknownIds) {
  EXPECT_EQ(share_.GetOrder(404), nullptr);
  EXPECT_TRUE(share_.Neighbors(404).empty());
  EXPECT_FALSE(share_.HasEdge(404, 405));
}

TEST_F(ShareabilityGraphTest, OrderIdsListsResidents) {
  ASSERT_TRUE(share_.Insert(orders_[0], 5).ok());
  ASSERT_TRUE(share_.Insert(orders_[1], 8).ok());
  auto ids = share_.OrderIds();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<OrderId>{1, 2}));
}

}  // namespace
}  // namespace watter
