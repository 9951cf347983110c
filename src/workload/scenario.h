// Scenario: a fully materialized simulation input — city, oracle, orders and
// workers — generated per the paper's experimental setup (Section VII-A).
#ifndef WATTER_WORKLOAD_SCENARIO_H_
#define WATTER_WORKLOAD_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/types.h"
#include "src/geo/city_generator.h"
#include "src/workload/demand_model.h"

namespace watter {

/// Knobs mirroring Table III (defaults in italics there: n base, m=5000,
/// tau=1.6, Kw=4, alpha=beta=1) plus the scale-down factor documented in
/// DESIGN.md substitution 3.
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
  /// Batch backend for CH oracles (ignored by kMatrix/kDijkstra). Bucket and
  /// per-query backends return bitwise-identical costs, so this only moves
  /// runtime, never metrics.
  GeoBackend geo = GeoBackend::kBucket;
  /// Threads the platform's check loop and pool maintenance run on when
  /// simulating this scenario (results are thread-count-independent).
  /// 1 = serial; 0 = use all hardware threads. SimOptions can override.
  int num_threads = 1;
  /// Geographic shards for the batched engine's conflict resolution when
  /// simulating this scenario (results are shard-count-independent; see
  /// SimOptions::num_shards). 1 = one global scan. SimOptions can override.
  int num_shards = 1;
  uint64_t seed = 42;
  /// Road-network seed; 0 derives it from `seed`. Fix it to share one city
  /// across several demand "days" (e.g. RL training vs evaluation runs).
  uint64_t city_seed = 0;
  /// Chrome trace-event JSON output (CLI `--trace`): when non-empty, the
  /// platform arms the global TraceRecorder for this run and exports the
  /// accumulated spans here at the end (docs/OBSERVABILITY.md). Empty
  /// disables tracing entirely. Purely observational: metrics are bitwise
  /// identical either way. SimOptions can override.
  std::string trace_path;
  /// Per-round timeline output (CLI `--timeline`): one RoundSample per
  /// check round, written here as JSON (or CSV when the path ends in
  /// `.csv`). Same no-perturbation contract as trace_path. SimOptions can
  /// override.
  std::string timeline_path;
  /// Deterministic fault-injection spec (CLI `--faults`;
  /// docs/ROBUSTNESS.md grammar, e.g. "dropouts=5;brownouts=2;seed=7").
  /// Empty disables fault injection entirely — the platform then runs
  /// byte-for-byte as before the robustness subsystem existed. SimOptions
  /// can override.
  std::string faults;
  /// Per-round propose work budget in deterministic work units (candidate
  /// probes + planner plans; CLI `--budget`). When a round's pooled orders
  /// would exceed it, the least-urgent tail (latest-dispatch-then-id order)
  /// is shed to the next round. 0 = unlimited. SimOptions can override.
  int64_t round_work_budget = 0;
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
