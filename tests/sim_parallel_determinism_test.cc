// Determinism regression harness for the parallel platform.
//
// The paper's metrics must be a pure function of the scenario, never of the
// machine: the platform's parallel check loop and pool maintenance promise
// bitwise-identical results for any thread count (thread_pool.h, determinism
// contract). This suite runs the same scenario at 1, 2 and 8 threads across
// several RNG seeds — in BOTH dispatch engines (serial loop and the batched
// sorted-offers engine, docs/DISPATCH.md) — and asserts the metric reports
// and the exact served/expired order sets match the 1-thread reference bit
// for bit within each engine. Wall-clock fields (algorithm_seconds,
// running_time_per_order) are the one intentional exclusion. The two
// engines intentionally differ from each other (globally-ranked vs chained
// commit order); no cross-engine equality is asserted.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/metrics.h"
#include "src/obs/histogram_registry.h"
#include "src/obs/trace.h"
#include "src/rl/trainer.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace watter {
namespace {

struct RunOutcome {
  MetricsReport report;
  std::set<OrderId> served;
  std::set<OrderId> expired;
  // The per-round timeline of a traced run (empty otherwise).
  std::vector<std::string> counter_names;
  std::vector<obs::RoundSample> rounds;
  obs::RoundSample totals;
};

WorkloadOptions DeterminismWorkload(uint64_t seed) {
  WorkloadOptions options;
  options.dataset = DatasetKind::kCdc;
  options.num_orders = 500;
  options.num_workers = 50;
  options.city_width = 16;
  options.city_height = 16;
  options.duration = 3600.0;
  options.seed = seed;
  // The city GenerateScenario derives from `seed`, set explicitly so a
  // WATTER-expect model trained on these options runs in the same city.
  options.city_seed = seed * 7919 + 13;
  return options;
}

RunOutcome RunWithThreads(uint64_t seed, int num_threads,
                          double cancellation_hazard, DispatchMode dispatch,
                          OracleKind oracle = OracleKind::kMatrix,
                          GeoBackend geo = GeoBackend::kBucket,
                          bool traced = false,
                          const std::string& faults = "",
                          int64_t budget = 0,
                          ThresholdProvider* provider = nullptr) {
  WorkloadOptions workload = DeterminismWorkload(seed);
  workload.oracle = oracle;
  workload.geo = geo;
  auto scenario = GenerateScenario(workload);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return {};
  OnlineThresholdProvider online;
  if (provider == nullptr) provider = &online;
  SimOptions options;
  options.num_threads = num_threads;
  options.cancellation_hazard = cancellation_hazard;
  options.dispatch = dispatch;
  options.faults = faults;
  options.round_work_budget = budget;
  std::string trace_path, timeline_path;
  if (traced) {
    trace_path = ::testing::TempDir() + "/determinism_trace.json";
    timeline_path = ::testing::TempDir() + "/determinism_timeline.json";
    options.trace_path = trace_path;
    options.timeline_path = timeline_path;
  }
  WatterPlatform platform(&*scenario, provider, options);
  RunOutcome outcome;
  platform.set_observer([&outcome](const DecisionObservation& obs) {
    if (obs.action == 1) {
      outcome.served.insert(obs.order);
    } else if (obs.expired) {
      outcome.expired.insert(obs.order);
    }
  });
  outcome.report = platform.Run();
  if (traced) {
    outcome.counter_names = platform.timeline()->counter_names();
    outcome.rounds = platform.timeline()->samples();
    outcome.totals = platform.timeline()->Totals();
    // A traced Run() leaves the process-global sinks armed (they accumulate
    // by design); disarm and drop them so later runs in this binary really
    // are trace-off, and so buffers do not grow across the matrix.
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
    obs::HistogramRegistry::Global().Disable();
    obs::HistogramRegistry::Global().Clear();
    std::remove(trace_path.c_str());
    std::remove(timeline_path.c_str());
  }
  return outcome;
}

// Bitwise equality on the determinism contract (metrics.h,
// VisitExactFields), which leaves out wall-clock and oracle counts.
void ExpectIdentical(const RunOutcome& reference, const RunOutcome& candidate,
                     int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(testutil::ExactFields(reference.report),
            testutil::ExactFields(candidate.report));
  EXPECT_EQ(reference.served, candidate.served);
  EXPECT_EQ(reference.expired, candidate.expired);
}

// The traced run's per-round columns of the exact counters, by name. The
// oracle_* columns are diagnostic and stay out.
std::map<std::string, std::vector<int64_t>> ExactColumns(
    const RunOutcome& outcome) {
  std::set<std::string> exact;
  VisitExactFields(MetricsReport{}, [&exact](const char* name, auto) {
    exact.insert(name);
  });
  std::map<std::string, std::vector<int64_t>> columns;
  for (size_t c = 0; c < outcome.counter_names.size(); ++c) {
    if (exact.count(outcome.counter_names[c]) == 0) continue;
    std::vector<int64_t>& column = columns[outcome.counter_names[c]];
    for (const obs::RoundSample& sample : outcome.rounds) {
      column.push_back(sample.counters[c]);
    }
  }
  return columns;
}

// Parameterized over (seed, dispatch engine): each engine must be a pure
// function of the scenario at every thread count.
class ParallelDeterminismTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }
};

TEST_P(ParallelDeterminismTest, MetricsIdenticalAcrossThreadCounts) {
  RunOutcome reference = RunWithThreads(seed(), 1, 0.0, dispatch());
  // A nontrivial run, or the comparison proves nothing.
  ASSERT_GT(reference.report.served, 0);
  ASSERT_FALSE(reference.served.empty());
  for (int threads : {2, 8}) {
    ExpectIdentical(reference,
                    RunWithThreads(seed(), threads, 0.0, dispatch()),
                    threads);
  }
}

TEST_P(ParallelDeterminismTest, CancellationRandomnessIsThreadInvariant) {
  // Rider impatience draws from the platform RNG; the draws happen in the
  // serial phase of either engine (the decision loop, or the batched
  // post-commit sweep), so the sequence must not depend on thread count.
  RunOutcome reference = RunWithThreads(seed(), 1, 0.01, dispatch());
  ASSERT_GT(reference.report.served, 0);
  for (int threads : {2, 8}) {
    ExpectIdentical(reference,
                    RunWithThreads(seed(), threads, 0.01, dispatch()),
                    threads);
  }
}

std::string CaseName(
    const testing::TestParamInfo<std::tuple<uint64_t, DispatchMode>>& info) {
  return (std::get<1>(info.param) == DispatchMode::kBatched ? "batched_s"
                                                            : "serial_s") +
         std::to_string(std::get<0>(info.param));
}

// Geo-backend axis: with a CH-backed city, the per-query and bucket-CH
// backends must produce bit-identical simulations — same metrics, same
// served/expired sets — in both engines at every thread count. This is the
// end-to-end face of the oracle-equivalence suite's bitwise claim: because
// every batch slot equals its Cost() twin to the last ulp, swapping the
// backend may only move runtime, never a decision. The geo counters in
// MetricsReport::geo are excluded like wall-clock (the backends intentionally
// issue different query counts, and the racy diagnostic increments are not
// thread-invariant).
class GeoBackendDeterminismTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }
};

TEST_P(GeoBackendDeterminismTest, BucketAndPerQueryBackendsAgreeBitwise) {
  RunOutcome reference = RunWithThreads(seed(), 1, 0.0, dispatch(),
                                        OracleKind::kCh,
                                        GeoBackend::kPerQuery);
  ASSERT_GT(reference.report.served, 0);
  ASSERT_FALSE(reference.served.empty());
  for (int threads : {2, 8}) {
    ExpectIdentical(reference,
                    RunWithThreads(seed(), threads, 0.0, dispatch(),
                                   OracleKind::kCh, GeoBackend::kPerQuery),
                    threads);
  }
  for (int threads : {1, 2, 8}) {
    ExpectIdentical(reference,
                    RunWithThreads(seed(), threads, 0.0, dispatch(),
                                   OracleKind::kCh, GeoBackend::kBucket),
                    threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GeoBackendDeterminismTest,
    testing::Combine(testing::Values(7, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

TEST(BatchedDispatchTest, EveryOrderAccountedAndComparableToSerial) {
  // Sanity on the engine itself (beyond thread invariance): all orders are
  // served or rejected exactly once, and the batched engine stays in the
  // same quality regime as the serial loop on a nontrivial workload.
  RunOutcome serial = RunWithThreads(7, 2, 0.0, DispatchMode::kSerial);
  RunOutcome batched = RunWithThreads(7, 2, 0.0, DispatchMode::kBatched);
  EXPECT_EQ(batched.report.served + batched.report.rejected,
            serial.report.served + serial.report.rejected);
  ASSERT_GT(batched.report.served, 0);
  EXPECT_GT(batched.report.service_rate,
            0.8 * serial.report.service_rate);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ParallelDeterminismTest,
    testing::Combine(testing::Values(7, 1234, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

// Trace axis: arming the observability taps (trace + timeline + histograms)
// must be invisible in the results — the "on never perturbs" half of the
// overhead contract (src/obs/trace.h, docs/OBSERVABILITY.md). The untraced
// 1-thread run is the reference; traced runs must match it bit for bit
// across thread counts in both engines. The traced runs also prove the
// export path is safe to run concurrently with worker pools (the span
// buffers merge under TSan in CI's filtered job).
class TraceDeterminismTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }
};

TEST_P(TraceDeterminismTest, TracedRunsMatchUntracedBitwise) {
  RunOutcome reference = RunWithThreads(seed(), 1, 0.0, dispatch());
  ASSERT_GT(reference.report.served, 0);
  ASSERT_FALSE(reference.served.empty());
  SCOPED_TRACE("traced");
  std::vector<RunOutcome> traced;
  for (int threads : {1, 8}) {
    traced.push_back(RunWithThreads(seed(), threads, 0.0, dispatch(),
                                    OracleKind::kMatrix, GeoBackend::kBucket,
                                    /*traced=*/true));
    ExpectIdentical(reference, traced.back(), threads);
  }
  // The timeline's exact counter columns are deterministic round by round
  // (timeline.h), not only in total.
  ASSERT_FALSE(traced[0].rounds.empty());
  EXPECT_EQ(ExactColumns(traced[0]).size(), 28u);
  EXPECT_EQ(ExactColumns(traced[0]), ExactColumns(traced[1]));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TraceDeterminismTest,
    testing::Combine(testing::Values(7, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

// Golden output: the determinism suites above compare runs with each other,
// so a semantic drift that moves every configuration alike would pass them.
// These values pin seed 7's outcome per engine configuration; a change that
// moves any of them changes what the engines compute, and must say so.
uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

struct GoldenCase {
  const char* name;
  DispatchMode dispatch;
  const char* faults;
  int64_t served;
  int64_t rejected;
  int64_t committed;
  int64_t worker_conflicts;
  int64_t order_conflicts;
  uint64_t metrs_objective_bits;
  uint64_t unified_cost_bits;
};

// Dropouts, late dropouts and brownouts at once (the chaos suite's spec).
constexpr char kGoldenFaults[] =
    "dropouts=10;late_dropouts=4;downtime=400;brownouts=3;brownout_len=200;"
    "seed=11";

const GoldenCase kGoldenCases[] = {
    {"serial", DispatchMode::kSerial, "", 281, 219, 0, 0, 0,
     0x4100b5f01f1e85a6ULL, 0x4134f105b8d14000ULL},
    {"batched", DispatchMode::kBatched, "", 314, 186, 185, 1513, 235,
     0x4100ea4e170b3df6ULL, 0x4133d09c5ef0c000ULL},
    {"batched_faults", DispatchMode::kBatched, kGoldenFaults, 271, 226, 166,
     1229, 224, 0x410213879820d509ULL, 0x4136b06f56fbb000ULL},
};

void ExpectGolden(const MetricsReport& r, const GoldenCase& golden) {
  EXPECT_EQ(r.served, golden.served);
  EXPECT_EQ(r.rejected, golden.rejected);
  EXPECT_EQ(r.dispatch.committed, golden.committed);
  EXPECT_EQ(r.dispatch.worker_conflicts, golden.worker_conflicts);
  EXPECT_EQ(r.dispatch.order_conflicts, golden.order_conflicts);
  EXPECT_EQ(Bits(r.metrs_objective), golden.metrs_objective_bits)
      << r.metrs_objective;
  EXPECT_EQ(Bits(r.unified_cost), golden.unified_cost_bits)
      << r.unified_cost;
}

TEST(GoldenOutputTest, Seed7MatchesPinnedValues) {
  for (const GoldenCase& golden : kGoldenCases) {
    SCOPED_TRACE(golden.name);
    RunOutcome outcome =
        RunWithThreads(7, 4, 0.0, golden.dispatch, OracleKind::kMatrix,
                       GeoBackend::kBucket, /*traced=*/false, golden.faults);
    ExpectGolden(outcome.report, golden);
  }
}

// WATTER-expect, the learned-threshold strategy: one value network trained
// on seed 7's city (1 bootstrap day, 1 behavior day, 1 epoch, the default
// {64, 32} hidden layers), then seed 7 evaluated per engine at 1 and 4
// threads. The parameter hash pins training; the rows pin the thresholds
// the network computes.
const ExpectModel* GoldenExpectModel() {
  static const ExpectModel* const model = [] {
    ExpectTrainOptions train;
    train.bootstrap_days = 1;
    train.behavior_days = 1;
    train.epochs = 1;
    auto trained = TrainExpectModel(DeterminismWorkload(7), train);
    EXPECT_TRUE(trained.ok()) << trained.status().ToString();
    return trained.ok() ? new ExpectModel(std::move(trained).value())
                        : nullptr;
  }();
  return model;
}

// FNV-1a over the parameters' bit patterns.
uint64_t ParamHash(const std::vector<float>& params) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (float p : params) {
    uint32_t bits = 0;
    std::memcpy(&bits, &p, sizeof bits);
    for (int byte = 0; byte < 4; ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

constexpr uint64_t kGoldenExpectParamHash = 0x488056460e4aebf7ULL;

struct ExpectGoldenCase {
  int threads;
  GoldenCase golden;
};

const ExpectGoldenCase kExpectGoldenCases[] = {
    {1, {"expect_serial_1", DispatchMode::kSerial, "", 280, 220, 0, 0, 0,
         0x410055fe1c7f29f7ULL, 0x413531d10dc1a000ULL}},
    {4, {"expect_serial_4", DispatchMode::kSerial, "", 280, 220, 0, 0, 0,
         0x410055fe1c7f29f7ULL, 0x413531d10dc1a000ULL}},
    {1, {"expect_batched_1", DispatchMode::kBatched, "", 298, 202, 176, 1047,
         188, 0x41005f9dd4c5d33dULL, 0x41345416e5518000ULL}},
    {4, {"expect_batched_4", DispatchMode::kBatched, "", 298, 202, 176, 1047,
         188, 0x41005f9dd4c5d33dULL, 0x41345416e5518000ULL}},
};

TEST(GoldenOutputTest, Seed7ExpectMatchesPinnedValues) {
  const ExpectModel* model = GoldenExpectModel();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(ParamHash(model->value->params()), kGoldenExpectParamHash)
      << std::hex << "0x" << ParamHash(model->value->params());
  for (const ExpectGoldenCase& expect : kExpectGoldenCases) {
    const GoldenCase& golden = expect.golden;
    SCOPED_TRACE(golden.name);
    auto provider = model->MakeProvider();
    RunOutcome outcome =
        RunWithThreads(7, expect.threads, 0.0, golden.dispatch,
                       OracleKind::kMatrix, GeoBackend::kBucket,
                       /*traced=*/false, golden.faults, /*budget=*/0,
                       provider.get());
    ExpectGolden(outcome.report, golden);
  }
}

// Cross-sink check: the timeline's per-round deltas add up to the final
// report for every exact counter, under faults and a work budget (so the
// fault, shedding and work-unit columns are nonzero).
TEST(TimelineTotalsTest, TotalsMatchFinalReportCounters) {
  for (DispatchMode dispatch : {DispatchMode::kSerial,
                                DispatchMode::kBatched}) {
    SCOPED_TRACE(dispatch == DispatchMode::kBatched ? "batched" : "serial");
    RunOutcome outcome =
        RunWithThreads(7, 4, 0.0, dispatch, OracleKind::kMatrix,
                       GeoBackend::kBucket, /*traced=*/true, kGoldenFaults,
                       /*budget=*/60);
    ASSERT_GT(outcome.report.faults.work_units, 0);
    std::map<std::string, int64_t> summed;
    for (size_t c = 0; c < outcome.counter_names.size(); ++c) {
      summed[outcome.counter_names[c]] = outcome.totals.counters[c];
    }
    int compared = 0;
    VisitExactFields(outcome.report, [&](const char* name, auto value) {
      if constexpr (std::is_same_v<decltype(value), int64_t>) {
        ASSERT_EQ(summed.count(name), 1u) << name;
        EXPECT_EQ(summed[name], value) << name;
        ++compared;
      }
    });
    EXPECT_EQ(compared, 28);
  }
}

}  // namespace
}  // namespace watter
