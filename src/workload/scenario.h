// Scenario: a fully materialized simulation input — city, oracle, orders and
// workers — generated per the paper's experimental setup (Section VII-A).
#ifndef WATTER_WORKLOAD_SCENARIO_H_
#define WATTER_WORKLOAD_SCENARIO_H_

#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/core/types.h"
#include "src/geo/city_generator.h"
#include "src/workload/demand_model.h"

namespace watter {

/// Knobs mirroring Table III (defaults in italics there: n base, m=5000,
/// tau=1.6, Kw=4, alpha=beta=1) plus the scale-down factor documented in
/// docs/ARCHITECTURE.md, "Design decisions".
struct WorkloadOptions {
  DatasetKind dataset = DatasetKind::kCdc;
  int num_orders = 4000;   ///< n (scaled down from the paper's 30k-125k).
  int num_workers = 400;   ///< m (scaled from 3k-6k, keeping n/m ratios).
  double tau = 1.6;        ///< Deadline scale: deadline = t + tau * shortest.
  double eta = 0.8;        ///< Watching window: wait_limit = eta * shortest.
  int max_capacity = 4;    ///< Kw; vehicle capacity ~ U[2, Kw].
  /// Riders per order are sampled uniformly from [1, max_riders]. The paper
  /// treats each record as one passenger (max_riders = 1); larger values
  /// exercise the planner's capacity constraints with party bookings.
  int max_riders = 1;
  double duration = 4.0 * 3600.0;  ///< Arrival window (seconds).
  /// Hour of day at which the window starts (captures rush-hour effects).
  double start_hour = 16.0;
  /// City geometry.
  int city_width = 32;
  int city_height = 32;
  double cell_seconds = 60.0;
  OracleKind oracle = OracleKind::kMatrix;
  // The three run knobs below stay here only because
  // benchmark/watter_bench.cc sets them; they leave with ROADMAP.md item
  // C's benchmark-only change. Every other run knob is in SimOptions.
  /// Batch backend for CH oracles (ignored by kMatrix/kDijkstra). Bucket and
  /// per-query backends return bitwise-identical costs, so this only moves
  /// runtime, never metrics.
  GeoBackend geo = GeoBackend::kBucket;
  /// Threads the platform runs on unless SimOptions::num_threads is set:
  /// 1 = serial; 0 or negative = all CPUs this process may run on. Results
  /// are thread-count-independent.
  int num_threads = 1;
  /// Unused.
  int num_shards = 1;
  uint64_t seed = 42;
  /// Road-network seed; 0 derives it from `seed`. Fix it to share one city
  /// across several demand "days" (e.g. RL training vs evaluation runs).
  uint64_t city_seed = 0;
};

/// A ready-to-run simulation input. The city is heap-pinned so oracles that
/// reference the graph stay valid across moves.
struct Scenario {
  std::shared_ptr<City> city;
  std::unique_ptr<TravelTimeOracle> oracle;
  std::vector<Order> orders;    ///< Sorted by release time.
  std::vector<Worker> workers;
  WorkloadOptions options;
};

/// Generates a deterministic scenario from `options` (same seed, same
/// scenario). Orders follow the dataset's hotspot + rush-hour model; worker
/// start locations are sampled from the pickup distribution and capacities
/// uniformly from [2, Kw], as in the paper.
Result<Scenario> GenerateScenario(const WorkloadOptions& options);

}  // namespace watter

#endif  // WATTER_WORKLOAD_SCENARIO_H_
