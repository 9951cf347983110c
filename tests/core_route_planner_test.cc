#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/route_planner.h"
#include "src/geo/city_generator.h"
#include "src/geo/travel_time_oracle.h"
#include "tests/test_util.h"

namespace watter {
namespace {

using testutil::kA;
using testutil::kC;
using testutil::kD;
using testutil::kE;
using testutil::kF;

constexpr double kMin = 60.0;

class RoutePlannerExample1Test : public testing::Test {
 protected:
  RoutePlannerExample1Test()
      : graph_(testutil::MakeExample1Graph()),
        oracle_(&graph_),
        planner_(&oracle_),
        orders_(testutil::MakeExample1Orders()) {}

  Graph graph_;
  DijkstraOracle oracle_;
  RoutePlanner planner_;
  std::vector<Order> orders_;
};

TEST(PlanCountTest, ExactAcrossPoolThreads) {
  // plan_count() sums per-thread slots. PlanBest calls fanned out over a
  // 4-thread pool must still add up to exactly one count per call: the
  // benchmark compares the count across replays of a day.
  Graph graph = testutil::MakeExample1Graph();
  DijkstraOracle oracle(&graph);
  RoutePlanner planner(&oracle);
  const std::vector<Order> orders = testutil::MakeExample1Orders();
  constexpr size_t kCalls = 4000;
  std::vector<int> feasible;
  ThreadPool pool(4);
  pool.ParallelMap(kCalls, 8, &feasible, [&](size_t i) {
    const Order& a = orders[i % orders.size()];
    const Order& b = orders[(i + 1) % orders.size()];
    return planner.PlanBest({&a, &b}, 10.0, 4).ok() ? 1 : 0;
  });
  EXPECT_EQ(planner.plan_count(), static_cast<int64_t>(kCalls));
  EXPECT_GT(std::count(feasible.begin(), feasible.end(), 1), 0);
}

TEST_F(RoutePlannerExample1Test, SingleOrderIsDirectRoute) {
  auto plan = planner_.PlanBest({&orders_[0]}, /*depart_time=*/10.0, 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->total_cost, 2 * kMin);  // a -> c.
  ASSERT_EQ(plan->route.stops.size(), 2u);
  EXPECT_TRUE(plan->route.stops[0].is_pickup);
  EXPECT_FALSE(plan->route.stops[1].is_pickup);
  EXPECT_DOUBLE_EQ(plan->completion[0], 2 * kMin);
  EXPECT_DOUBLE_EQ(plan->latest_departure,
                   orders_[0].deadline - 2 * kMin);
}

TEST_F(RoutePlannerExample1Test, BestMatchForO1IsO3) {
  // Group {o1: a->c, o3: d->c} has optimal route d -> a -> c of 3 minutes.
  auto plan = planner_.PlanBest({&orders_[0], &orders_[2]}, 12.0, 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->total_cost, 3 * kMin);
  ASSERT_EQ(plan->route.stops.size(), 4u);
  EXPECT_EQ(plan->route.stops[0].node, kD);
  EXPECT_EQ(plan->route.stops[1].node, kA);
  EXPECT_EQ(plan->route.stops[2].node, kC);
}

TEST_F(RoutePlannerExample1Test, BestMatchForO2IsO4) {
  // Group {o2: d->f, o4: e->f} has optimal route d -> e -> f of 2 minutes.
  auto plan = planner_.PlanBest({&orders_[1], &orders_[3]}, 12.0, 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->total_cost, 2 * kMin);
  EXPECT_EQ(plan->route.stops[0].node, kD);
  EXPECT_EQ(plan->route.stops[1].node, kE);
  EXPECT_EQ(plan->route.stops[2].node, kF);
}

TEST_F(RoutePlannerExample1Test, PoolingBeatsAllOtherModesFromExample1) {
  // The headline of Example 1: optimal pooling achieves 3 + 2 = 5 minutes,
  // vs 7 (batch), 9 (online insertion) and 12 (non-sharing).
  auto g13 = planner_.PlanBest({&orders_[0], &orders_[2]}, 12.0, 4);
  auto g24 = planner_.PlanBest({&orders_[1], &orders_[3]}, 12.0, 4);
  ASSERT_TRUE(g13.ok());
  ASSERT_TRUE(g24.ok());
  EXPECT_DOUBLE_EQ(g13->total_cost + g24->total_cost, 5 * kMin);
}

TEST_F(RoutePlannerExample1Test, CompletionOffsetsMatchRouteLegs) {
  auto plan = planner_.PlanBest({&orders_[0], &orders_[2]}, 12.0, 4);
  ASSERT_TRUE(plan.ok());
  // Route d -> a -> c: o3 (index 1) completes at 3 min, o1 at 3 min too
  // (same drop node), but o1's completion is where its own drop stop sits.
  EXPECT_DOUBLE_EQ(plan->completion[1],
                   plan->route.CompletionOffset(orders_[2].id));
  EXPECT_DOUBLE_EQ(plan->completion[0],
                   plan->route.CompletionOffset(orders_[0].id));
}

TEST_F(RoutePlannerExample1Test, CapacityOneForcesInfeasibleSharing) {
  // With capacity 1 both riders can never be on board together; the only
  // routes are sequential. d->e->f requires both on board, so the best
  // feasible is d->f (drop o2) then ... o4 pickup e: d->f->e->f = 4 min.
  auto plan = planner_.PlanBest({&orders_[1], &orders_[3]}, 12.0, 1);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->total_cost, 4 * kMin);
}

TEST_F(RoutePlannerExample1Test, DeadlineMakesPlanInfeasible) {
  Order tight = orders_[0];
  tight.deadline = tight.release + 1.0;  // Cannot possibly arrive.
  auto plan = planner_.PlanBest({&tight}, tight.release, 4);
  EXPECT_EQ(plan.status().code(), StatusCode::kInfeasible);
}

TEST_F(RoutePlannerExample1Test, DeadlineForcesWorseButFeasibleRoute) {
  // o2 (d->f) must arrive within 2 minutes of departure: the shared route
  // d->e->f serves it in exactly 2 min, so sharing stays feasible; but if
  // the limit is 1.9 min the pair becomes infeasible while o2 alone is too
  // (shortest d->f is 2 min).
  Order o2 = orders_[1];
  Order o4 = orders_[3];
  Time depart = 20.0;
  o2.deadline = depart + 2 * kMin;
  auto plan = planner_.PlanBest({&o2, &o4}, depart, 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->latest_departure, depart);
  o2.deadline = depart + 1.9 * kMin;
  EXPECT_FALSE(planner_.PlanBest({&o2, &o4}, depart, 4).ok());
  EXPECT_FALSE(planner_.PlanBest({&o2}, depart, 4).ok());
}

TEST_F(RoutePlannerExample1Test, PairWithAnExpiredMemberIsInfeasible) {
  EXPECT_TRUE(planner_.PlanBest({&orders_[1], &orders_[3]}, 12.0, 4).ok());
  Order hopeless = orders_[1];
  hopeless.deadline = hopeless.release;  // Expired immediately.
  EXPECT_EQ(planner_.PlanBest({&hopeless, &orders_[3]}, 12.0, 4)
                .status()
                .code(),
            StatusCode::kInfeasible);
}

TEST_F(RoutePlannerExample1Test, RejectsEmptyAndOversizedGroups) {
  EXPECT_EQ(planner_.PlanBest({}, 0.0, 4).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<const Order*> too_many(kMaxGroupSize + 1, &orders_[0]);
  EXPECT_EQ(planner_.PlanBest(too_many, 0.0, 4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RoutePlannerExample1Test, SingleRiderOverCapacityInfeasible) {
  Order bus = orders_[0];
  bus.riders = 5;
  EXPECT_EQ(planner_.PlanBest({&bus}, 0.0, 4).status().code(),
            StatusCode::kInfeasible);
}

// ---------------------------------------------------------------------------
// Property test: the DP must match a brute-force enumeration of all valid
// stop interleavings on random instances.
// ---------------------------------------------------------------------------

double BruteForceBest(const std::vector<const Order*>& orders,
                      TravelTimeOracle* oracle, Time depart, int capacity) {
  const int k = static_cast<int>(orders.size());
  std::vector<int> stops(2 * k);  // i < k pickup, else dropoff of i - k.
  for (int i = 0; i < 2 * k; ++i) stops[i] = i;
  std::sort(stops.begin(), stops.end());
  double best = kInfCost;
  do {
    // Precedence check.
    std::vector<int> seen(k, 0);
    bool valid = true;
    int onboard = 0;
    for (int s : stops) {
      if (s < k) {
        seen[s] = 1;
        onboard += orders[s]->riders;
        if (onboard > capacity) valid = false;
      } else {
        if (!seen[s - k]) valid = false;
        onboard -= orders[s - k]->riders;
      }
      if (!valid) break;
    }
    if (!valid) continue;
    // Cost + deadline check.
    double cost = 0.0;
    bool feasible = true;
    for (int i = 1; i < 2 * k && feasible; ++i) {
      NodeId from = stops[i - 1] < k ? orders[stops[i - 1]]->pickup
                                     : orders[stops[i - 1] - k]->dropoff;
      NodeId to = stops[i] < k ? orders[stops[i]]->pickup
                               : orders[stops[i] - k]->dropoff;
      cost += oracle->Cost(from, to);
    }
    double along = 0.0;
    for (int i = 0; i < 2 * k && feasible; ++i) {
      if (i > 0) {
        NodeId from = stops[i - 1] < k ? orders[stops[i - 1]]->pickup
                                       : orders[stops[i - 1] - k]->dropoff;
        NodeId to = stops[i] < k ? orders[stops[i]]->pickup
                                 : orders[stops[i] - k]->dropoff;
        along += oracle->Cost(from, to);
      }
      if (stops[i] >= k &&
          depart + along > orders[stops[i] - k]->deadline) {
        feasible = false;
      }
    }
    if (feasible) best = std::min(best, cost);
  } while (std::next_permutation(stops.begin(), stops.end()));
  return best;
}

class PlannerVsBruteForceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PlannerVsBruteForceTest, DpMatchesBruteForce) {
  auto city = GenerateCity({.width = 10, .height = 10, .jitter = 0.3,
                            .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  DijkstraOracle oracle(&city->graph);
  RoutePlanner planner(&oracle);
  Rng rng(GetParam() * 1000 + 17);
  for (int trial = 0; trial < 15; ++trial) {
    int k = static_cast<int>(rng.UniformInt(1, 3));
    int capacity = static_cast<int>(rng.UniformInt(1, 4));
    Time depart = rng.Uniform(0, 100);
    std::vector<Order> orders(k);
    for (int i = 0; i < k; ++i) {
      orders[i].id = i + 1;
      orders[i].pickup = city->RandomNode(&rng);
      do {
        orders[i].dropoff = city->RandomNode(&rng);
      } while (orders[i].dropoff == orders[i].pickup);
      orders[i].riders = static_cast<int>(rng.UniformInt(1, 2));
      orders[i].shortest_cost =
          oracle.Cost(orders[i].pickup, orders[i].dropoff);
      orders[i].release = depart - rng.Uniform(0, 30);
      // Deadlines tight enough to sometimes bind.
      orders[i].deadline =
          depart + orders[i].shortest_cost * rng.Uniform(1.0, 2.2);
    }
    std::vector<const Order*> ptrs;
    for (const Order& o : orders) ptrs.push_back(&o);
    double brute = BruteForceBest(ptrs, &oracle, depart, capacity);
    auto plan = planner.PlanBest(ptrs, depart, capacity);
    if (brute == kInfCost) {
      EXPECT_FALSE(plan.ok()) << "trial " << trial;
    } else {
      ASSERT_TRUE(plan.ok()) << "trial " << trial << " expected " << brute;
      EXPECT_NEAR(plan->total_cost, brute, 1e-9) << "trial " << trial;
      // The returned route must itself be valid.
      EXPECT_TRUE(plan->route.SatisfiesPrecedenceAndCapacity(ptrs, capacity));
      // And every completion offset must respect its order's deadline.
      for (int i = 0; i < k; ++i) {
        EXPECT_LE(depart + plan->completion[i], orders[i].deadline + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerVsBruteForceTest,
                         testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace watter
