// Pool-maintenance baseline driver: deterministic counter evidence plus
// quick-size wall times for the incremental pool hot paths, written as the
// committed BENCH_pool.json records (docs/PERFORMANCE.md).
//
// Three cases:
//   fig3_quick_n1500_timeout  — the fig3-quick contended point end to end
//       (CDC n=1500, m=150, WATTER-timeout), one record per dispatch engine.
//       The planner_plans / plan_cache_* fields are the PR-acceptance
//       counters: deterministic, so diffs are exact.
//   micro_departure_churn     — departure-heavy OnOrderRemoved churn: remove
//       and re-insert orders in a warm pool, refreshing best groups each
//       step. Exercises the reverse-membership index.
//   micro_repeated_anchor     — the same anchors recomputed over and over on
//       an unchanged graph slice (the "unrelated dirty event" pattern).
//       Exercises the shared group-plan cache.
//
// Counters are bitwise deterministic; the us/op fields are 1-core
// shared-container wall clock — treat <20% deltas as noise
// (docs/PERFORMANCE.md, noisy-box caveats).
//
// Usage: bench_pool_stats [--json FILE] [--label NAME]
// CMake target `bench_pool_json` runs this with --json
// ${CMAKE_BINARY_DIR}/BENCH_pool.json.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/geo/city_generator.h"
#include "src/pool/order_pool.h"

namespace {

using namespace watter;
using namespace watter::bench;

const char* g_label = "current";

void EmitRecord(const std::string& body) {
  BenchJson().records.push_back("{\"label\": \"" + std::string(g_label) +
                                "\", " + body + "}");
}

// `"name": value` for every pool counter of `after` minus `before`, in visit
// order (metrics.h).
std::string PoolCounterFields(const PoolStats& after,
                              const PoolStats& before = {}) {
  std::vector<int64_t> base;
  VisitFields(before, [&base](const char*, int64_t value) {
    base.push_back(value);
  });
  std::string fields;
  size_t i = 0;
  VisitFields(after, [&](const char* name, int64_t value) {
    fields += std::string(i > 0 ? ", " : "") + "\"" + name +
              "\": " + std::to_string(value - base[i]);
    ++i;
  });
  return fields;
}

// ---------------------------------------------------------------------------
// Case 1: the fig3-quick contended point, end to end, per dispatch engine.
// ---------------------------------------------------------------------------
void RunEndToEnd(DispatchMode mode) {
  WorkloadOptions workload = BaseWorkload(DatasetKind::kCdc);
  auto scenario = GenerateScenario(workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    std::exit(1);
  }
  TimeoutThresholdProvider provider;
  SimOptions sim;
  sim.dispatch = mode;
  MetricsReport report = RunWatter(&*scenario, &provider, sim);

  char body[256];
  std::snprintf(
      body, sizeof(body),
      "\"case\": \"fig3_quick_n1500_timeout\", \"dispatch\": \"%s\", "
      "\"served\": %lld, \"service_rate\": %.6g, "
      "\"running_time_per_order_us\": %.3f, ",
      DispatchName(mode), static_cast<long long>(report.served),
      report.service_rate, report.running_time_per_order * 1e6);
  EmitRecord(body + PoolCounterFields(report.pool));
  std::printf("%-28s %-8s served=%lld plans=%lld us/order=%.1f\n",
              "fig3_quick_n1500_timeout", DispatchName(mode),
              static_cast<long long>(report.served),
              static_cast<long long>(report.pool.planner_plans),
              report.running_time_per_order * 1e6);
}

// ---------------------------------------------------------------------------
// Shared fixture for the micro cases: a warm pool over a 32x32 city.
// ---------------------------------------------------------------------------
struct MicroFixture {
  City city;
  std::unique_ptr<TravelTimeOracle> oracle;
  std::vector<Order> orders;

  explicit MicroFixture(int num_orders) {
    auto generated = GenerateCity({.width = 32, .height = 32, .seed = 3});
    city = std::move(generated).value();
    auto built = BuildOracle(city.graph, OracleKind::kMatrix);
    oracle = std::move(built).value();
    Rng rng(11);
    for (OrderId id = 1; id <= num_orders; ++id) {
      Order order;
      order.id = id;
      order.pickup = city.RandomNode(&rng);
      do {
        order.dropoff = city.RandomNode(&rng);
      } while (order.dropoff == order.pickup);
      order.riders = 1;
      order.release = rng.Uniform(0, 600);
      order.shortest_cost = oracle->Cost(order.pickup, order.dropoff);
      order.deadline = order.release + 1.6 * order.shortest_cost;
      order.wait_limit = 0.8 * order.shortest_cost;
      orders.push_back(order);
    }
  }
};

void EmitMicro(const char* name, int ops, double seconds,
               const PoolStats& before, const PoolStats& after) {
  char body[128];
  std::snprintf(body, sizeof(body),
                "\"case\": \"%s\", \"ops\": %d, \"us_per_op\": %.3f, ",
                name, ops, seconds * 1e6 / ops);
  EmitRecord(body + PoolCounterFields(after, before));
  std::printf("%-28s %-8s ops=%d plans=%lld us/op=%.1f\n", name, "-", ops,
              static_cast<long long>(after.planner_plans -
                                     before.planner_plans),
              seconds * 1e6 / ops);
}

// ---------------------------------------------------------------------------
// Case 2: departure-heavy churn. Warm pool of 150 orders; each op removes
// the oldest resident (OnOrderRemoved path), inserts a fresh order, and
// refreshes every stale best group — the per-check-round maintenance shape.
// ---------------------------------------------------------------------------
void RunDepartureChurn() {
  MicroFixture fx(450);
  OrderPool pool(fx.oracle.get(), PoolOptions{});
  constexpr int kResident = 150;
  constexpr int kOps = 150;
  for (int i = 0; i < kResident; ++i) {
    (void)pool.Insert(fx.orders[static_cast<size_t>(i)], 600.0);
  }
  std::vector<OrderId> ids = pool.SortedOrderIds();
  pool.RefreshBestGroups(ids, 600.0);  // Warm start outside the timed loop.

  PoolStats before = pool.Stats();
  Stopwatch watch;
  {
    ScopedTimer timer(&watch);
    for (int op = 0; op < kOps; ++op) {
      (void)pool.Remove(fx.orders[static_cast<size_t>(op)].id);
      (void)pool.Insert(fx.orders[static_cast<size_t>(kResident + op)], 600.0);
      std::vector<OrderId> live = pool.SortedOrderIds();
      pool.RefreshBestGroups(live, 600.0);
    }
  }
  EmitMicro("micro_departure_churn", kOps, watch.ElapsedSeconds(), before,
            pool.Stats());
}

// ---------------------------------------------------------------------------
// Case 3: repeated-anchor enumeration. A warm pool; the same anchor set is
// marked dirty and recomputed repeatedly with no graph change in between —
// the shape every unrelated dirty event used to force on its neighbors.
// ---------------------------------------------------------------------------
void RunRepeatedAnchor() {
  MicroFixture fx(150);
  OrderPool pool(fx.oracle.get(), PoolOptions{});
  for (const Order& order : fx.orders) (void)pool.Insert(order, 600.0);
  std::vector<OrderId> ids = pool.SortedOrderIds();
  pool.RefreshBestGroups(ids, 600.0);  // Warm start.

  constexpr int kRounds = 40;
  PoolStats before = pool.Stats();
  Stopwatch watch;
  {
    ScopedTimer timer(&watch);
    for (int round = 0; round < kRounds; ++round) {
      for (OrderId id : ids) pool.best_groups().MarkDirty(id);
      pool.RefreshBestGroups(ids, 600.0);
    }
  }
  EmitMicro("micro_repeated_anchor",
            kRounds * static_cast<int>(ids.size()), watch.ElapsedSeconds(),
            before, pool.Stats());
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson().path = BenchJsonPath(argc, argv);
  const std::vector<const char*> labels =
      FlagValues(argc, argv, "--label", "NAME");
  if (!labels.empty()) g_label = labels.back();
  RejectUnreadArgs(argc, argv);
  RunEndToEnd(DispatchMode::kSerial);
  RunEndToEnd(DispatchMode::kBatched);
  RunDepartureChurn();
  RunRepeatedAnchor();
  return 0;
}
