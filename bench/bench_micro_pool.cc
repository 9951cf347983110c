// Micro benchmarks of the decision-path hot spots: the dial-a-ride route
// planner by group size, shareability-graph insertion, clique enumeration
// via best-group recomputation, GMM fitting, threshold optimization, and
// value-network inference.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/common/rng.h"
#include "src/geo/city_generator.h"
#include "src/pool/order_pool.h"
#include "src/rl/featurizer.h"
#include "src/rl/mlp.h"
#include "src/stats/em_fitter.h"
#include "src/stats/threshold_optimizer.h"

namespace {

using namespace watter;

struct PoolFixture {
  City city;
  std::unique_ptr<TravelTimeOracle> oracle;
  std::vector<Order> orders;

  PoolFixture() {
    auto generated = GenerateCity({.width = 32, .height = 32, .seed = 3});
    city = std::move(generated).value();
    auto built = BuildOracle(city.graph, OracleKind::kMatrix);
    oracle = std::move(built).value();
    Rng rng(11);
    for (OrderId id = 1; id <= 400; ++id) {
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

PoolFixture& Fixture() {
  static PoolFixture* fixture = new PoolFixture();
  return *fixture;
}

void BM_RoutePlannerByGroupSize(benchmark::State& state) {
  PoolFixture& fx = Fixture();
  RoutePlanner planner(fx.oracle.get());
  int k = static_cast<int>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    std::vector<const Order*> group;
    for (int i = 0; i < k; ++i) {
      group.push_back(&fx.orders[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(fx.orders.size()) - 1))]);
    }
    auto plan = planner.PlanBest(group, 0.0, 5);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_RoutePlannerByGroupSize)->DenseRange(1, 5);

void BM_PoolInsert(benchmark::State& state) {
  PoolFixture& fx = Fixture();
  for (auto _ : state) {
    state.PauseTiming();
    OrderPool pool(fx.oracle.get(), PoolOptions{});
    state.ResumeTiming();
    for (int i = 0; i < 100; ++i) {
      (void)pool.Insert(fx.orders[i], fx.orders[i].release);
    }
    benchmark::DoNotOptimize(pool.size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_PoolInsert);

void BM_BestGroupRecompute(benchmark::State& state) {
  PoolFixture& fx = Fixture();
  OrderPool pool(fx.oracle.get(), PoolOptions{});
  for (int i = 0; i < 120; ++i) {
    (void)pool.Insert(fx.orders[i], fx.orders[i].release);
  }
  Rng rng(9);
  for (auto _ : state) {
    OrderId id = fx.orders[static_cast<size_t>(rng.UniformInt(0, 119))].id;
    pool.best_groups().Recompute(id, 600.0);
    benchmark::DoNotOptimize(pool.BestFor(id, 600.0));
  }
}
BENCHMARK(BM_BestGroupRecompute);

void BM_PoolDepartureChurn(benchmark::State& state) {
  // Departure-heavy churn: a warm 150-order pool where every op removes the
  // oldest resident (the OnOrderRemoved path), inserts a fresh order, and
  // refreshes the stale best groups — the per-check-round maintenance
  // shape. Dominated by how cheaply a departure dirties its owners and how
  // much planning the refresh can reuse.
  PoolFixture& fx = Fixture();
  OrderPool pool(fx.oracle.get(), PoolOptions{});
  constexpr int kResident = 150;
  for (int i = 0; i < kResident; ++i) {
    (void)pool.Insert(fx.orders[static_cast<size_t>(i)], 600.0);
  }
  pool.RefreshBestGroups(pool.SortedOrderIds(), 600.0);
  size_t oldest = 0;
  size_t next = kResident;
  for (auto _ : state) {
    (void)pool.Remove(fx.orders[oldest % fx.orders.size()].id);
    ++oldest;
    (void)pool.Insert(fx.orders[next % fx.orders.size()], 600.0);
    ++next;
    pool.RefreshBestGroups(pool.SortedOrderIds(), 600.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolDepartureChurn);

void BM_PoolRepeatedAnchorRefresh(benchmark::State& state) {
  // Repeated-anchor enumeration: every resident marked dirty and refreshed
  // with no graph change in between — the work an unrelated dirty event
  // used to force on its neighbors. With the shared group-plan cache the
  // re-search reuses every previously planned clique.
  PoolFixture& fx = Fixture();
  OrderPool pool(fx.oracle.get(), PoolOptions{});
  for (int i = 0; i < 150; ++i) {
    (void)pool.Insert(fx.orders[static_cast<size_t>(i)], 600.0);
  }
  std::vector<OrderId> ids = pool.SortedOrderIds();
  pool.RefreshBestGroups(ids, 600.0);
  for (auto _ : state) {
    for (OrderId id : ids) pool.best_groups().MarkDirty(id);
    pool.RefreshBestGroups(ids, 600.0);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_PoolRepeatedAnchorRefresh);

void BM_GmmFit(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> data;
  for (int i = 0; i < 5000; ++i) {
    data.push_back(rng.Bernoulli(0.6) ? rng.Normal(120, 40)
                                      : rng.Normal(400, 90));
  }
  for (auto _ : state) {
    auto fit = FitGmm(data, {.num_components = 3, .max_iterations = 50});
    benchmark::DoNotOptimize(fit.ok());
  }
  state.SetLabel("5k samples, 3 components");
}
BENCHMARK(BM_GmmFit)->Unit(benchmark::kMillisecond);

void BM_ThresholdOptimization(benchmark::State& state) {
  auto mixture = GaussianMixture::Create(
      {{.weight = 0.6, .mean = 120, .variance = 1600},
       {.weight = 0.4, .mean = 400, .variance = 8100}});
  CdfFn cdf = [&mixture](double x) { return mixture->Cdf(x); };
  Rng rng(7);
  for (auto _ : state) {
    double penalty = rng.Uniform(100, 2000);
    benchmark::DoNotOptimize(OptimalThreshold(penalty, cdf));
  }
}
BENCHMARK(BM_ThresholdOptimization);

void BM_ValueNetworkForward(benchmark::State& state) {
  PoolFixture& fx = Fixture();
  Featurizer featurizer(&fx.city.graph, 10);
  Mlp network({featurizer.feature_size(), 64, 32, 1}, 1);
  std::vector<int> counts(100, 2);
  auto env = featurizer.MakeSnapshot({&counts, &counts, &counts});
  CompactState compact = featurizer.MakeState(fx.orders[0], 100.0, env);
  std::vector<float> features;
  featurizer.Write(compact, &features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.Forward(features));
  }
}
BENCHMARK(BM_ValueNetworkForward);

}  // namespace

BENCHMARK_MAIN();
