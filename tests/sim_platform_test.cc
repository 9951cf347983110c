#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/sim/fleet.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace watter {
namespace {

WorkloadOptions SmallOptions(uint64_t seed = 9) {
  WorkloadOptions options;
  options.dataset = DatasetKind::kCdc;
  options.num_orders = 400;
  options.num_workers = 50;
  options.city_width = 16;
  options.city_height = 16;
  options.duration = 3600.0;
  options.seed = seed;
  return options;
}

TEST(FleetTest, ReleaseAndDispatchLifecycle) {
  Graph g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  g.AddBidirectionalEdge(0, 1, 10.0);
  ASSERT_TRUE(g.Finalize().ok());
  DijkstraOracle oracle(&g);
  std::vector<Worker> workers = {{1, 0, 4, false, 0.0},
                                 {2, 1, 2, false, 0.0}};
  Fleet fleet(workers, &g, 4);
  EXPECT_EQ(fleet.idle_count(), 2);
  // Dispatch worker 1 until t=100, landing on node 1.
  fleet.Dispatch(1, 100.0, 1);
  EXPECT_EQ(fleet.idle_count(), 1);
  EXPECT_TRUE(fleet.worker(1).busy);
  fleet.ReleaseUntil(99.0);
  EXPECT_EQ(fleet.idle_count(), 1);
  fleet.ReleaseUntil(100.0);
  EXPECT_EQ(fleet.idle_count(), 2);
  EXPECT_FALSE(fleet.worker(1).busy);
  EXPECT_EQ(fleet.worker(1).location, 1);
}

TEST(FleetTest, ClosestIdleRespectsCapacity) {
  Graph g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  g.AddNode({2, 0});
  g.AddBidirectionalEdge(0, 1, 5.0);
  g.AddBidirectionalEdge(1, 2, 5.0);
  ASSERT_TRUE(g.Finalize().ok());
  DijkstraOracle oracle(&g);
  // Worker 1 close but small; worker 2 far but big.
  std::vector<Worker> workers = {{1, 0, 2, false, 0.0},
                                 {2, 2, 4, false, 0.0}};
  Fleet fleet(workers, &g, 4);
  // The probe returns the winner's travel time to the target: the exact
  // value a Cost() call gives, which the platform uses as the pickup delay.
  IdleMatch small = fleet.FindClosestIdle(0, 2, &oracle);
  EXPECT_EQ(small.worker, 1);
  EXPECT_EQ(small.cost, 0.0);
  IdleMatch big = fleet.FindClosestIdle(0, 3, &oracle);
  EXPECT_EQ(big.worker, 2);
  EXPECT_EQ(big.cost, 10.0);
  EXPECT_EQ(big.cost, oracle.Cost(2, 0));
  IdleMatch none = fleet.FindClosestIdle(0, 5, &oracle);
  EXPECT_EQ(none.worker, kInvalidWorker);
  EXPECT_EQ(none.cost, kInfCost);
  auto idle = fleet.IdleWorkerIds();
  EXPECT_EQ(idle, (std::vector<WorkerId>{1, 2}));
}

TEST(PlatformTest, EveryOrderIsAccountedExactlyOnce) {
  auto scenario = GenerateScenario(SmallOptions());
  ASSERT_TRUE(scenario.ok());
  OnlineThresholdProvider provider;
  MetricsReport report = RunWatter(&*scenario, &provider);
  EXPECT_EQ(report.served + report.rejected,
            static_cast<int64_t>(scenario->orders.size()));
  EXPECT_GT(report.service_rate, 0.3);
  EXPECT_GT(report.served, 0);
}

TEST(PlatformTest, DeterministicAcrossRuns) {
  auto a = GenerateScenario(SmallOptions());
  auto b = GenerateScenario(SmallOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  OnlineThresholdProvider provider;
  MetricsReport ra = RunWatter(&*a, &provider);
  MetricsReport rb = RunWatter(&*b, &provider);
  EXPECT_EQ(ra.served, rb.served);
  EXPECT_DOUBLE_EQ(ra.total_extra_time, rb.total_extra_time);
  EXPECT_DOUBLE_EQ(ra.unified_cost, rb.unified_cost);
}

TEST(PlatformTest, TimeoutWaitsLongerThanOnline) {
  auto a = GenerateScenario(SmallOptions());
  auto b = GenerateScenario(SmallOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  OnlineThresholdProvider online;
  TimeoutThresholdProvider timeout;
  MetricsReport ro = RunWatter(&*a, &online);
  MetricsReport rt = RunWatter(&*b, &timeout);
  EXPECT_GT(rt.avg_response, ro.avg_response);
}

TEST(PlatformTest, ServedOrdersMeetDefinitionalInvariants) {
  auto scenario = GenerateScenario(SmallOptions());
  ASSERT_TRUE(scenario.ok());
  std::unordered_map<OrderId, Order> by_id;
  for (const Order& order : scenario->orders) by_id[order.id] = order;
  OnlineThresholdProvider provider;
  WatterPlatform platform(&*scenario, &provider, SimOptions{});
  (void)platform.Run();
  for (const ServedRecord& record : platform.metrics().served_records()) {
    const Order& order = by_id.at(record.id);
    EXPECT_GE(record.response, 0.0) << record.id;
    EXPECT_GE(record.detour, -1e-6) << record.id;
    // Dispatch happened no later than the latest feasible time.
    EXPECT_LE(record.response, order.MaxResponse() + 1e-6) << record.id;
    EXPECT_GE(record.group_size, 1);
    EXPECT_LE(record.group_size, kMaxGroupSize);
  }
}

TEST(PlatformTest, ObserverSeesEveryOrderTerminally) {
  auto scenario = GenerateScenario(SmallOptions());
  ASSERT_TRUE(scenario.ok());
  OnlineThresholdProvider provider;
  WatterPlatform platform(&*scenario, &provider, SimOptions{});
  std::set<OrderId> dispatched, expired;
  int waits = 0;
  platform.set_observer([&](const DecisionObservation& obs) {
    ASSERT_NE(obs.order_ref, nullptr);
    if (obs.action == 1) {
      dispatched.insert(obs.order);
    } else if (obs.expired) {
      expired.insert(obs.order);
    } else {
      ++waits;
    }
    ASSERT_NE(obs.demand_pickup, nullptr);
    ASSERT_NE(obs.supply, nullptr);
  });
  MetricsReport report = platform.Run();
  EXPECT_EQ(static_cast<int64_t>(dispatched.size()), report.served);
  EXPECT_EQ(static_cast<int64_t>(expired.size()), report.rejected);
  EXPECT_GT(waits, 0);
  // No order both dispatched and expired.
  for (OrderId id : dispatched) EXPECT_EQ(expired.count(id), 0u);
}

TEST(PlatformTest, MoreWorkersNeverHurtServiceRate) {
  WorkloadOptions few = SmallOptions(21);
  few.num_workers = 12;
  WorkloadOptions many = SmallOptions(21);
  many.num_workers = 120;
  auto a = GenerateScenario(few);
  auto b = GenerateScenario(many);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  OnlineThresholdProvider provider;
  MetricsReport scarce = RunWatter(&*a, &provider);
  MetricsReport plentiful = RunWatter(&*b, &provider);
  EXPECT_GE(plentiful.service_rate, scarce.service_rate);
}

TEST(PlatformTest, SoloFallbackLiftsServiceRate) {
  auto with = GenerateScenario(SmallOptions(33));
  auto without = GenerateScenario(SmallOptions(33));
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  OnlineThresholdProvider provider;
  SimOptions opts_with;
  SimOptions opts_without;
  opts_without.solo_fallback = false;
  MetricsReport yes = RunWatter(&*with, &provider, opts_with);
  MetricsReport no = RunWatter(&*without, &provider, opts_without);
  EXPECT_GT(yes.service_rate, no.service_rate);
}

TEST(PlatformTest, CheckPeriodAffectsResponsiveness) {
  auto fast = GenerateScenario(SmallOptions(44));
  auto slow = GenerateScenario(SmallOptions(44));
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  OnlineThresholdProvider provider;
  SimOptions fast_opts;
  fast_opts.check_period = 2.0;
  SimOptions slow_opts;
  slow_opts.check_period = 60.0;
  MetricsReport rf = RunWatter(&*fast, &provider, fast_opts);
  MetricsReport rs = RunWatter(&*slow, &provider, slow_opts);
  // Coarse checks cannot respond faster on average.
  EXPECT_LE(rf.avg_response, rs.avg_response + 1.0);
}

}  // namespace
}  // namespace watter
