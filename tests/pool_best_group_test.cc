#include <gtest/gtest.h>

#include <vector>

#include "src/common/thread_pool.h"
#include "src/pool/order_pool.h"
#include "tests/test_util.h"

namespace watter {
namespace {

constexpr double kMin = 60.0;

PoolOptions PermissiveOptions() {
  PoolOptions options;
  options.include_singletons = true;
  return options;
}

class OrderPoolTest : public testing::Test {
 protected:
  OrderPoolTest()
      : graph_(testutil::MakeExample1Graph()),
        oracle_(&graph_),
        pool_(&oracle_, PermissiveOptions()),
        paper_pool_(&oracle_, PoolOptions{}),
        orders_(testutil::MakeExample1Orders()) {}

  Graph graph_;
  DijkstraOracle oracle_;
  // `pool_` includes singleton groups (permissive mode) so the tests can
  // compare shared groups against solo service directly; `paper_pool_` uses
  // the paper semantics (shared groups only).
  OrderPool pool_;
  OrderPool paper_pool_;
  std::vector<Order> orders_;
};

TEST_F(OrderPoolTest, SingletonBestGroupForLoneOrder) {
  ASSERT_TRUE(pool_.Insert(orders_[0], orders_[0].release).ok());
  const BestGroup* best = pool_.BestFor(orders_[0].id, orders_[0].release);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->members, (std::vector<OrderId>{orders_[0].id}));
  EXPECT_DOUBLE_EQ(best->plan.total_cost, 2 * kMin);
  EXPECT_DOUBLE_EQ(best->sum_detour, 0.0);  // Direct route: no detour.
}

TEST_F(OrderPoolTest, PaperSemanticsLoneOrderHasNoGroup) {
  // With shared-only semantics a lone order has no group arrangement to
  // rate, so Gb holds nothing for it (Algorithm 1 line 10: "if g exists").
  ASSERT_TRUE(paper_pool_.Insert(orders_[0], orders_[0].release).ok());
  EXPECT_EQ(paper_pool_.BestFor(orders_[0].id, orders_[0].release), nullptr);
}

TEST_F(OrderPoolTest, PaperSemanticsPairBecomesGroup) {
  Order a{.id = 71, .pickup = testutil::kD, .dropoff = testutil::kF,
          .riders = 1, .release = 0, .deadline = 30 * kMin,
          .wait_limit = 5 * kMin, .shortest_cost = 2 * kMin};
  Order b = a;
  b.id = 72;
  b.release = 5;
  b.deadline = 5 + 30 * kMin;
  ASSERT_TRUE(paper_pool_.Insert(a, 0).ok());
  EXPECT_EQ(paper_pool_.BestFor(a.id, 0), nullptr);
  ASSERT_TRUE(paper_pool_.Insert(b, 5).ok());
  const BestGroup* best = paper_pool_.BestFor(a.id, 5);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->members, (std::vector<OrderId>{71, 72}));
}

Order IdenticalTrip(OrderId id, Time release, NodeId pickup, NodeId dropoff,
                    double shortest, Time deadline_slack = 60 * kMin) {
  return Order{.id = id, .pickup = pickup, .dropoff = dropoff, .riders = 1,
               .release = release, .deadline = release + deadline_slack,
               .wait_limit = 10 * kMin, .shortest_cost = shortest};
}

TEST_F(OrderPoolTest, PairedGroupBeatsSingletonWhenDetourFree) {
  // Two identical d->f trips: the shared route d->e->f serves both with
  // zero detour under Definition 5 (their completions equal the shortest
  // cost). The pair's average response is lower than the earlier order's
  // own response, so the pair strictly beats the singleton.
  Order a = IdenticalTrip(21, 8, testutil::kD, testutil::kF, 2 * kMin);
  Order b = IdenticalTrip(22, 12, testutil::kD, testutil::kF, 2 * kMin);
  ASSERT_TRUE(pool_.Insert(a, a.release).ok());
  ASSERT_TRUE(pool_.Insert(b, b.release).ok());
  Time now = b.release;
  const BestGroup* best = pool_.BestFor(a.id, now);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->members, (std::vector<OrderId>{21, 22}));
  EXPECT_DOUBLE_EQ(best->sum_detour, 0.0);
  EXPECT_DOUBLE_EQ(best->plan.total_cost, 2 * kMin);
  // Average extra: responses (12-8) and (12-12) average to 2 seconds; the
  // singleton would cost 4.
  ExtraTimeWeights weights;
  EXPECT_DOUBLE_EQ(best->AverageExtraTime(now, weights), 2.0);
}

TEST_F(OrderPoolTest, Definition5CountsPrePickupRidingAsDetour) {
  // o2 (d->f) and o4 (e->f) share route d->e->f. o4 boards at offset 1 min
  // and alights at 2 min, but Definition 5 measures T(L^(i)) from the
  // route's first stop, so o4's "detour" is 2 min - 1 min = 1 min even
  // though it rides the shortest path. This makes the singleton better for
  // o2 at o4's release, which is exactly what the pool must conclude.
  ASSERT_TRUE(pool_.Insert(orders_[1], orders_[1].release).ok());
  ASSERT_TRUE(pool_.Insert(orders_[3], orders_[3].release).ok());
  Time now = orders_[3].release;
  ASSERT_TRUE(pool_.graph().HasEdge(orders_[1].id, orders_[3].id));
  const BestGroup* best = pool_.BestFor(orders_[1].id, now);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->members, (std::vector<OrderId>{orders_[1].id}));
}

TEST_F(OrderPoolTest, AverageExtraTimeGrowsWithWaiting) {
  ASSERT_TRUE(pool_.Insert(orders_[0], orders_[0].release).ok());
  const BestGroup* best = pool_.BestFor(orders_[0].id, orders_[0].release);
  ASSERT_NE(best, nullptr);
  ExtraTimeWeights weights;
  double at_release = best->AverageExtraTime(orders_[0].release, weights);
  double later = best->AverageExtraTime(orders_[0].release + 30, weights);
  EXPECT_DOUBLE_EQ(at_release, 0.0);
  EXPECT_DOUBLE_EQ(later, 30.0);
}

TEST_F(OrderPoolTest, BestGroupUpdatesWhenBetterPartnerArrives) {
  Order a = IdenticalTrip(31, 5, testutil::kA, testutil::kC, 2 * kMin);
  ASSERT_TRUE(pool_.Insert(a, a.release).ok());
  const BestGroup* before = pool_.BestFor(a.id, a.release);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->size(), 1);
  // An identical trip arrives: the pair is detour-free and halves the
  // average response, so it must displace the singleton as best group.
  Order b = IdenticalTrip(32, 10, testutil::kA, testutil::kC, 2 * kMin);
  ASSERT_TRUE(pool_.Insert(b, b.release).ok());
  Time now = b.release;
  const BestGroup* after = pool_.BestFor(a.id, now);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->members, (std::vector<OrderId>{31, 32}));
  ExtraTimeWeights weights;
  // Pair: avg response (5 + 0)/2 = 2.5 vs singleton response 5.
  EXPECT_DOUBLE_EQ(after->AverageExtraTime(now, weights), 2.5);
}

TEST_F(OrderPoolTest, RemovalOfPartnerInvalidatesBestGroup) {
  Order a = IdenticalTrip(41, 8, testutil::kD, testutil::kF, 2 * kMin);
  Order b = IdenticalTrip(42, 12, testutil::kD, testutil::kF, 2 * kMin);
  ASSERT_TRUE(pool_.Insert(a, a.release).ok());
  ASSERT_TRUE(pool_.Insert(b, b.release).ok());
  Time now = b.release;
  const BestGroup* best = pool_.BestFor(a.id, now);
  ASSERT_NE(best, nullptr);
  ASSERT_EQ(best->size(), 2);
  ASSERT_TRUE(pool_.Remove(b.id).ok());
  const BestGroup* after = pool_.BestFor(a.id, now + 1);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->members, (std::vector<OrderId>{41}));
}

TEST_F(OrderPoolTest, ExpiredGroupFallsBackOrDisappears) {
  Order o = orders_[0];
  o.deadline = o.release + 3 * kMin;  // 1 min of slack over the 2-min ride.
  ASSERT_TRUE(pool_.Insert(o, o.release).ok());
  // Within slack: singleton group exists.
  EXPECT_NE(pool_.BestFor(o.id, o.release + 30), nullptr);
  // Past latest dispatch: no feasible group remains.
  EXPECT_EQ(pool_.BestFor(o.id, o.release + 61), nullptr);
}

TEST_F(OrderPoolTest, CapacityLimitsGroupRiders) {
  PoolOptions options;
  options.capacity = 2;
  options.include_singletons = true;
  OrderPool small_pool(&oracle_, options);
  Order o2 = orders_[1];
  o2.riders = 2;
  Order o4 = orders_[3];
  o4.riders = 1;
  ASSERT_TRUE(small_pool.Insert(o2, o2.release).ok());
  ASSERT_TRUE(small_pool.Insert(o4, o4.release).ok());
  // Combined riders (3) exceed capacity 2: no shared group possible.
  const BestGroup* best = small_pool.BestFor(o2.id, o4.release);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->size(), 1);
}

TEST_F(OrderPoolTest, ExpireEdgesMarksAffectedOrdersDirty) {
  // Partner b has a much tighter deadline: the pair edge expires while a's
  // own singleton stays feasible, so the best group must fall back.
  Order a = IdenticalTrip(51, 0, testutil::kD, testutil::kF, 2 * kMin,
                          /*deadline_slack=*/10 * kMin);
  Order b = IdenticalTrip(52, 10, testutil::kD, testutil::kF, 2 * kMin,
                          /*deadline_slack=*/5 * kMin);
  ASSERT_TRUE(pool_.Insert(a, 0).ok());
  ASSERT_TRUE(pool_.Insert(b, 10).ok());
  ASSERT_EQ(pool_.BestFor(a.id, 10)->size(), 2);
  // Pair expiry: b.deadline - 2 min ride = 310 - 120 = 190 s.
  double expiry = pool_.graph().Neighbors(a.id)[0].expiry;
  EXPECT_DOUBLE_EQ(expiry, 190.0);
  pool_.ExpireEdges(expiry + 1);
  const BestGroup* after = pool_.BestFor(a.id, expiry + 1);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->members, (std::vector<OrderId>{51}));
}

TEST_F(OrderPoolTest, BestForUnknownOrderIsNull) {
  EXPECT_EQ(pool_.BestFor(404, 0.0), nullptr);
}

TEST_F(OrderPoolTest, RecomputeCountsAreTracked) {
  ASSERT_TRUE(pool_.Insert(orders_[0], orders_[0].release).ok());
  pool_.BestFor(orders_[0].id, orders_[0].release);
  EXPECT_GE(pool_.best_groups().recompute_count(), 1);
  EXPECT_GE(pool_.best_groups().groups_evaluated(), 1);
}

TEST_F(OrderPoolTest, OversizedCliqueOptionsStaySafe) {
  // CliqueOptions::max_size above kMaxGroupSize emits cliques the planner
  // can never serve. They must be skipped as inadmissible *before* touching
  // the fixed-width plan-cache key (ASan regression: the key holds at most
  // kMaxGroupSize member ids), while every plannable sub-clique still
  // competes normally.
  PoolOptions options;
  options.capacity = 8;
  options.cliques = CliqueOptions{/*max_size=*/7, /*max_visits=*/4096};
  OrderPool pool(&oracle_, options);
  for (OrderId id = 81; id <= 86; ++id) {
    Order order = IdenticalTrip(id, static_cast<Time>(id - 81),
                                testutil::kD, testutil::kF, 2 * kMin);
    ASSERT_TRUE(pool.Insert(order, order.release).ok());
  }
  const BestGroup* best = pool.BestFor(81, 6.0);
  ASSERT_NE(best, nullptr);
  EXPECT_GE(best->size(), 2);
  EXPECT_LE(best->size(), kMaxGroupSize);
}

TEST_F(OrderPoolTest, DepartureDirtiesOwnersThroughReverseIndex) {
  // Three identical trips: every order's best group is a shared group
  // containing partner orders. Removing one partner must dirty exactly the
  // owners whose cached group contained it — via the reverse-membership
  // index, observable through its fan-out counter — and evict its plans.
  Order a = IdenticalTrip(61, 0, testutil::kD, testutil::kF, 2 * kMin);
  Order b = IdenticalTrip(62, 4, testutil::kD, testutil::kF, 2 * kMin);
  Order c = IdenticalTrip(63, 8, testutil::kD, testutil::kF, 2 * kMin);
  ASSERT_TRUE(paper_pool_.Insert(a, a.release).ok());
  ASSERT_TRUE(paper_pool_.Insert(b, b.release).ok());
  ASSERT_TRUE(paper_pool_.Insert(c, c.release).ok());
  Time now = c.release;
  for (OrderId id : {a.id, b.id, c.id}) {
    ASSERT_NE(paper_pool_.BestFor(id, now), nullptr);
  }
  BestGroupMap& map = paper_pool_.best_groups();
  EXPECT_EQ(map.reverse_index_fanout(), 0);
  EXPECT_GT(map.plan_cache_size(), 0u);
  int64_t evictions = map.plan_cache_evictions();

  ASSERT_TRUE(paper_pool_.Remove(b.id).ok());
  // a and c owned groups containing b (identical trips always group).
  EXPECT_EQ(map.reverse_index_fanout(), 2);
  EXPECT_GT(map.plan_cache_evictions(), evictions);

  // The dirtied owners regroup without the departed member.
  const BestGroup* best = paper_pool_.BestFor(a.id, now + 1);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->members, (std::vector<OrderId>{a.id, c.id}));
}

// The ranking's tie rule: among groups with bit-equal average extra time,
// the one enumerated first wins, whether it is a plan-cache hit or a member
// set planned in the same refresh. Six anchors (ids 1-6, released at 0-5 s)
// and two partners, P = 7 and Q = 8, both released at 10 s, all ride
// identical d->f trips, and only pairs compete. Each anchor's best pairs
// are then {anchor, P} and {anchor, Q}: both detour-free, with bit-equal
// averages, and P is enumerated first (ascending ids). Recomputing
// `cached_partner` beforehand caches its pairs, so the batched refresh of
// the anchors finds that pair as a hit and plans the other.
void ExpectFirstEnumeratedPairWins(OrderId cached_partner,
                                   ThreadPool* executor) {
  constexpr OrderId kP = 7;
  constexpr OrderId kQ = 8;
  constexpr Time kNow = 10.0;
  Graph graph = testutil::MakeExample1Graph();
  DijkstraOracle oracle(&graph);
  RoutePlanner planner(&oracle);
  ShareabilityGraph share(&planner, ShareabilityOptions{});
  BestGroupMap map(&share, &planner, ExtraTimeWeights{}, /*capacity=*/4,
                   CliqueOptions{/*max_size=*/2, /*max_visits=*/4096});
  map.set_executor(executor);
  std::vector<OrderId> anchors;
  for (OrderId id = 1; id <= 6; ++id) {
    Order order = IdenticalTrip(id, static_cast<Time>(id - 1), testutil::kD,
                                testutil::kF, 2 * kMin);
    ASSERT_TRUE(share.Insert(order, order.release).ok());
    anchors.push_back(id);
  }
  for (OrderId id : {kP, kQ}) {
    Order order = IdenticalTrip(id, kNow, testutil::kD, testutil::kF,
                                2 * kMin);
    ASSERT_TRUE(share.Insert(order, kNow).ok());
  }
  map.Recompute(cached_partner, kNow);
  int64_t hits = map.plan_cache_hits();
  map.RefreshMany(anchors, kNow);
  // One hit per anchor: its pair with the cached partner.
  EXPECT_EQ(map.plan_cache_hits() - hits, 6);

  std::vector<double> averages;
  for (OrderId anchor : anchors) {
    const BestGroup* best = map.PeekBest(anchor, kNow);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->members, (std::vector<OrderId>{anchor, kP}));
    averages.push_back(best->AverageExtraTime(kNow, ExtraTimeWeights{}));
  }
  // The premise: without P, each anchor falls back to its pair with Q at
  // a bit-equal average.
  ASSERT_TRUE(share.Remove(kP).ok());
  map.OnOrderRemoved(kP);
  map.RefreshMany(anchors, kNow);
  for (size_t i = 0; i < anchors.size(); ++i) {
    const BestGroup* best = map.PeekBest(anchors[i], kNow);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->members, (std::vector<OrderId>{anchors[i], kQ}));
    EXPECT_EQ(best->AverageExtraTime(kNow, ExtraTimeWeights{}), averages[i]);
  }
}

TEST(BestGroupTieTest, FirstEnumeratedWinsWhenTheHitComesFirst) {
  ThreadPool four(4);
  for (ThreadPool* executor : {static_cast<ThreadPool*>(nullptr), &four}) {
    SCOPED_TRACE(executor == nullptr ? "no executor" : "4 threads");
    ExpectFirstEnumeratedPairWins(/*cached_partner=*/7, executor);
  }
}

TEST(BestGroupTieTest, FirstEnumeratedWinsWhenTheMissComesFirst) {
  ThreadPool four(4);
  for (ThreadPool* executor : {static_cast<ThreadPool*>(nullptr), &four}) {
    SCOPED_TRACE(executor == nullptr ? "no executor" : "4 threads");
    ExpectFirstEnumeratedPairWins(/*cached_partner=*/8, executor);
  }
}

}  // namespace
}  // namespace watter
