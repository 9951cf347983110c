// Chaos suite for deterministic fault injection (src/sim/fault_injector.h,
// docs/ROBUSTNESS.md).
//
// Three claims are pinned here. (1) The fault schedule is a pure function
// of (spec, fleet size, horizon): a fixed --faults spec yields bitwise
// identical metrics across thread counts within each engine, exactly like
// the faultless determinism contract. (2) Recovery
// conserves orders: after any schedule of dropouts, late dropouts and
// brownouts, served + rejected + failed_services equals the
// number of generated orders, also when a late dropout aborts a resolved
// winner's commit. (3) An inert spec is invisible: runs with "" and with a
// seed-only spec are bitwise identical, which is the in-tree face of the
// faults-off reproduction guarantee the CLI baselines check across PRs.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/metrics.h"
#include "src/sim/fault_injector.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace watter {
namespace {

// ---------------------------------------------------------------------------
// Spec grammar.

TEST(FaultInjectionTest, EmptySpecIsInert) {
  auto spec = ParseFaultSpec("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->any());
  EXPECT_FALSE(spec->has_dropouts());
  EXPECT_EQ(FaultSpecToString(*spec), "");
}

TEST(FaultInjectionTest, FullSpecRoundTripsThroughToString) {
  const std::string text =
      "dropouts=8;late_dropouts=2;downtime=600;grace=300;brownouts=3;"
      "brownout_len=90;brownout_factor=2;seed=42";
  auto spec = ParseFaultSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->dropouts, 8);
  EXPECT_EQ(spec->late_dropouts, 2);
  EXPECT_EQ(spec->downtime, 600.0);
  EXPECT_EQ(spec->grace, 300.0);
  EXPECT_EQ(spec->brownouts, 3);
  EXPECT_EQ(spec->brownout_len, 90.0);
  EXPECT_EQ(spec->brownout_factor, 2.0);
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_TRUE(spec->any());
  auto reparsed = ParseFaultSpec(FaultSpecToString(*spec));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(FaultSpecToString(*reparsed), FaultSpecToString(*spec));
}

TEST(FaultInjectionTest, CommaSeparatorAndWhitespaceAccepted) {
  auto spec = ParseFaultSpec("dropouts=2, brownouts=1");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->dropouts, 2);
  EXPECT_EQ(spec->brownouts, 1);
}

TEST(FaultInjectionTest, SeedTakesHexAndTheFullUnsignedRange) {
  auto hex = ParseFaultSpec("seed=0xFA1157");
  ASSERT_TRUE(hex.ok()) << hex.status().ToString();
  EXPECT_EQ(hex->seed, 0xFA1157u);
  auto top = ParseFaultSpec("seed=18446744073709551615");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->seed, UINT64_MAX);
}

TEST(FaultInjectionTest, MalformedSpecsAreInvalidArgument) {
  for (const char* bad : {"dropout=3",          // Unknown key.
                          "dropouts",           // Missing value.
                          "dropouts=abc",       // Not a number.
                          "dropouts=-1",        // Out of domain.
                          "brownout_factor=0",  // Must be positive.
                          "downtime=-5", "grace=-1",
                          "seed=-1",     // Would wrap to 2^64 - 1.
                          "seed=+7",     // No sign either way.
                          "seed=99999999999999999999999"}) {  // Overflow.
    auto spec = ParseFaultSpec(bad);
    EXPECT_FALSE(spec.ok()) << "accepted: " << bad;
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(FaultInjectionTest, RetiredStallKeysAreInvalidArgument) {
  // The commit-pipeline keys left the grammar with the pipeline itself; a
  // spec that still names them must fail loudly rather than run without
  // the faults it asked for.
  for (const char* retired : {"stalls=1", "stall_ms=5", "qcap=4"}) {
    auto spec = ParseFaultSpec(retired);
    ASSERT_FALSE(spec.ok()) << "accepted: " << retired;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << retired;
  }
}

// ---------------------------------------------------------------------------
// Schedule construction.

TEST(FaultInjectionTest, ScheduleIsAPureFunctionOfSpecAndShape) {
  auto spec = ParseFaultSpec("dropouts=6;late_dropouts=3;brownouts=2");
  ASSERT_TRUE(spec.ok());
  FaultInjector a(*spec, /*num_workers=*/50, /*horizon=*/7200.0);
  FaultInjector b(*spec, /*num_workers=*/50, /*horizon=*/7200.0);
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.late_events().size(), b.late_events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].worker, b.events()[i].worker);
  }
  // Events are time-sorted and consumed exactly once.
  for (size_t i = 1; i < a.events().size(); ++i) {
    EXPECT_LE(a.events()[i - 1].time, a.events()[i].time);
  }
  size_t taken = a.TakeDue(7200.0 * 2).size();
  EXPECT_EQ(taken, a.events().size());
  EXPECT_TRUE(a.TakeDue(7200.0 * 4).empty());
}

TEST(FaultInjectionTest, SeedChangesTheSchedule) {
  auto base = ParseFaultSpec("dropouts=6;seed=1");
  auto other = ParseFaultSpec("dropouts=6;seed=2");
  ASSERT_TRUE(base.ok() && other.ok());
  FaultInjector a(*base, 50, 7200.0);
  FaultInjector b(*other, 50, 7200.0);
  ASSERT_EQ(a.events().size(), b.events().size());
  bool differs = false;
  for (size_t i = 0; i < a.events().size() && !differs; ++i) {
    differs = a.events()[i].time != b.events()[i].time ||
              a.events()[i].worker != b.events()[i].worker;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectionTest, LateDropoutScheduleIsPinned) {
  // The injector forks one RNG stream per fault kind, in a fixed order; the
  // late-dropout stream is the fourth fork. These values pin that stream,
  // so removing or reordering an earlier fork (including the retired stall
  // slot) fails here instead of silently moving every late-dropout run.
  auto spec = ParseFaultSpec("late_dropouts=4;dropouts=3;brownouts=1;seed=11");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec, /*num_workers=*/50, /*horizon=*/3600.0,
                         /*start=*/28800.0);
  struct Expected {
    Time time;
    WorkerId worker;
  };
  const Expected expected[] = {{0x1.c25e368dd71b3p+14, 5},
                               {0x1.e0fa3f3033c53p+14, 12},
                               {0x1.eb0c32b20a63ep+14, 25},
                               {0x1.eb6abbdb925p+14, 7}};
  ASSERT_EQ(injector.late_events().size(), std::size(expected));
  for (size_t i = 0; i < std::size(expected); ++i) {
    SCOPED_TRACE("late event " + std::to_string(i));
    EXPECT_EQ(injector.late_events()[i].time, expected[i].time);
    EXPECT_EQ(injector.late_events()[i].worker, expected[i].worker);
    EXPECT_EQ(injector.late_events()[i].kind, FaultKind::kLateDropout);
  }
}

TEST(FaultInjectionTest, DegradedOracleIsTransparentAtFactorOne) {
  // Matches the faults-off identity argument: a factor-1.0 wrapper must
  // forward every answer untouched, including infinities.
  class FixedOracle : public TravelTimeOracle {
   public:
    double Cost(NodeId, NodeId to) override {
      return to == 0 ? kInfCost : 100.5;
    }
    void ManyToOne(std::span<const NodeId> sources, NodeId target,
                   std::span<double> out) override {
      for (size_t i = 0; i < sources.size(); ++i) out[i] = Cost(sources[i], target);
    }
    void OneToMany(NodeId source, std::span<const NodeId> targets,
                   std::span<double> out) override {
      for (size_t i = 0; i < targets.size(); ++i) out[i] = Cost(source, targets[i]);
    }
    void ManyToMany(std::span<const NodeId> sources,
                    std::span<const NodeId> targets,
                    std::span<double> out) override {
      for (size_t i = 0; i < sources.size(); ++i) {
        for (size_t j = 0; j < targets.size(); ++j) {
          out[i * targets.size() + j] = Cost(sources[i], targets[j]);
        }
      }
    }
    bool NativeBatch() const override { return false; }
  };
  FixedOracle inner;
  DegradedOracle wrapped(&inner);
  EXPECT_EQ(wrapped.Cost(1, 2), 100.5);
  wrapped.SetFactor(1.5);
  EXPECT_EQ(wrapped.Cost(1, 2), 100.5 * 1.5);
  EXPECT_EQ(wrapped.Cost(1, 0), kInfCost);  // Infinity stays infinity.
  std::vector<NodeId> targets = {2, 0};
  std::vector<double> out(2);
  wrapped.OneToMany(1, targets, out);
  EXPECT_EQ(out[0], 100.5 * 1.5);
  EXPECT_EQ(out[1], kInfCost);
  wrapped.SetFactor(1.0);
  EXPECT_EQ(wrapped.Cost(1, 2), 100.5);
}

// ---------------------------------------------------------------------------
// End-to-end chaos matrix.

struct RunOutcome {
  MetricsReport report;
  std::set<OrderId> served;
  std::set<OrderId> expired;
  int offline_left = 0;
  size_t generated = 0;
};

RunOutcome RunFaulted(uint64_t seed, const std::string& faults,
                      DispatchMode dispatch, int threads,
                      int64_t budget = 0, double hazard = 0.0) {
  WorkloadOptions workload;
  workload.dataset = DatasetKind::kCdc;
  workload.num_orders = 400;
  workload.num_workers = 40;
  workload.city_width = 16;
  workload.city_height = 16;
  workload.duration = 3600.0;
  workload.seed = seed;
  workload.faults = faults;
  workload.round_work_budget = budget;
  auto scenario = GenerateScenario(workload);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return {};
  OnlineThresholdProvider provider;
  SimOptions options;
  options.num_threads = threads;
  options.dispatch = dispatch;
  options.cancellation_hazard = hazard;
  WatterPlatform platform(&*scenario, &provider, options);
  RunOutcome outcome;
  outcome.generated = scenario->orders.size();
  platform.set_observer([&outcome](const DecisionObservation& obs) {
    if (obs.action == 1) {
      outcome.served.insert(obs.order);
    } else if (obs.expired) {
      outcome.expired.insert(obs.order);
    }
  });
  outcome.report = platform.Run();
  outcome.offline_left = platform.fleet().offline_count();
  return outcome;
}

// Every order reaches exactly one terminal state, no matter what the
// schedule did.
void ExpectConserved(const RunOutcome& outcome) {
  EXPECT_EQ(outcome.report.served + outcome.report.rejected +
                outcome.report.failed_services,
            static_cast<int64_t>(outcome.generated));
  EXPECT_LE(outcome.report.cancelled, outcome.report.rejected);
  EXPECT_GE(outcome.offline_left, 0);
  const FaultStats& faults = outcome.report.faults;
  EXPECT_LE(faults.returns, faults.dropouts + faults.late_dropouts);
  EXPECT_LE(faults.midroute_dropouts, faults.dropouts + faults.late_dropouts);
}

// Bitwise equality on the determinism contract (metrics.h,
// VisitExactFields): outcomes, exact doubles, and the pool, dispatch and
// fault counters.
void ExpectIdentical(const RunOutcome& reference, const RunOutcome& candidate,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(testutil::ExactFields(reference.report),
            testutil::ExactFields(candidate.report));
  EXPECT_EQ(reference.served, candidate.served);
  EXPECT_EQ(reference.expired, candidate.expired);
}

// The canonical chaotic schedule: enough dropouts to hit mid-route trips,
// late dropouts between resolution and commit, and brownouts, all at once.
constexpr char kChaosSpec[] =
    "dropouts=10;late_dropouts=4;downtime=400;brownouts=3;brownout_len=200";

class FaultChaosTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }
};

TEST_P(FaultChaosTest, ConservationHoldsUnderChaos) {
  std::string spec = std::string(kChaosSpec) + ";seed=" + std::to_string(seed());
  RunOutcome outcome = RunFaulted(seed(), spec, dispatch(), 2);
  ASSERT_GT(outcome.generated, 0u);
  ExpectConserved(outcome);
  // The schedule actually fired: this workload keeps most workers busy, so
  // dropouts are applied rather than skipped.
  EXPECT_GT(outcome.report.faults.dropouts +
                outcome.report.faults.late_dropouts,
            0);
  EXPECT_GT(outcome.report.faults.brownout_rounds, 0);
}

TEST_P(FaultChaosTest, FaultedMetricsIdenticalAcrossThreads) {
  std::string spec = std::string(kChaosSpec) + ";seed=11";
  RunOutcome reference = RunFaulted(seed(), spec, dispatch(), 1);
  ASSERT_GT(reference.report.served, 0);
  ExpectConserved(reference);
  RunOutcome candidate = RunFaulted(seed(), spec, dispatch(), 8);
  ExpectIdentical(reference, candidate, "threads=8");
  ExpectConserved(candidate);
}

TEST_P(FaultChaosTest, InertSpecIsBitwiseInvisible) {
  // A seed-only spec schedules nothing, so it must not construct any of the
  // fault machinery: the run is bitwise identical to a no-spec run. This is
  // the in-tree face of the "faults-off reproduces the previous PR" gate.
  RunOutcome off = RunFaulted(seed(), "", dispatch(), 2);
  RunOutcome inert = RunFaulted(seed(), "seed=1234", dispatch(), 2);
  ASSERT_GT(off.report.served, 0);
  ExpectIdentical(off, inert, "inert-spec");
  EXPECT_EQ(inert.report.faults.dropouts, 0);
  EXPECT_EQ(inert.report.faults.work_units, 0);
}

TEST_P(FaultChaosTest, CancellationHazardComposesWithFaults) {
  // Rider cancellations and fault recovery share the rejected/cancelled
  // accounting; conservation and determinism must survive both at once.
  std::string spec = "dropouts=6;late_dropouts=2;seed=5";
  RunOutcome reference =
      RunFaulted(seed(), spec, dispatch(), 1, /*budget=*/0, /*hazard=*/0.01);
  ExpectConserved(reference);
  RunOutcome candidate =
      RunFaulted(seed(), spec, dispatch(), 8, /*budget=*/0, /*hazard=*/0.01);
  ExpectIdentical(reference, candidate, "hazard+faults threads=8");
}

// The one way CommitOffer fails: a late dropout takes a resolved winner's
// worker offline before its commit, so Fleet::Dispatch refuses and the
// offer is abandoned with its members still pooled for the sweep. This
// schedule aborts a commit at 1 and at 4 threads; the run must still
// conserve every order and stay bitwise identical across thread counts.
TEST(FaultChaosCommitTest, LateDropoutAbortsACommitAndConserves) {
  const std::string spec = "late_dropouts=20;downtime=300";
  RunOutcome reference = RunFaulted(11, spec, DispatchMode::kBatched, 1);
  EXPECT_GE(reference.report.faults.aborted_commits, 1);
  ExpectConserved(reference);
  RunOutcome candidate = RunFaulted(11, spec, DispatchMode::kBatched, 4);
  ExpectConserved(candidate);
  ExpectIdentical(reference, candidate, "threads=4");
}

std::string CaseName(
    const testing::TestParamInfo<std::tuple<uint64_t, DispatchMode>>& info) {
  return (std::get<1>(info.param) == DispatchMode::kBatched ? "batched_s"
                                                            : "serial_s") +
         std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultChaosTest,
    testing::Combine(testing::Values(7, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

// ---------------------------------------------------------------------------
// Overload degradation.

class OverloadSheddingTest : public testing::TestWithParam<DispatchMode> {};

TEST_P(OverloadSheddingTest, TightBudgetShedsButConserves) {
  // A budget far below the per-round demand must shed propose work (the
  // counters prove it) while every order still reaches a terminal state —
  // shedding defers, it never drops.
  RunOutcome budgeted = RunFaulted(7, "", GetParam(), 2, /*budget=*/40);
  ExpectConserved(budgeted);
  EXPECT_GT(budgeted.report.faults.shed_orders, 0);
  EXPECT_GT(budgeted.report.faults.degraded_rounds, 0);
  EXPECT_GT(budgeted.report.faults.work_units, 0);
  // Shedding delays dispatch, so quality may drop, but the platform must
  // still serve a meaningful share on this easy workload.
  EXPECT_GT(budgeted.report.served, 0);
}

TEST_P(OverloadSheddingTest, BudgetedRunsAreThreadInvariant) {
  // Work units are counted in scenario terms (probes + plans), never
  // wall-clock, so the shed set — and therefore every metric — is the same
  // at any parallelism.
  RunOutcome reference = RunFaulted(7, "", GetParam(), 1, /*budget=*/60);
  ASSERT_GT(reference.report.faults.shed_orders, 0);
  ExpectIdentical(reference, RunFaulted(7, "", GetParam(), 8, /*budget=*/60),
                  "budget threads=8");
}

TEST_P(OverloadSheddingTest, UnlimitedBudgetMatchesNoBudget) {
  // budget < 0 forces "unlimited" even when the workload sets a budget; it
  // must be bitwise identical to budgeting never existing.
  RunOutcome off = RunFaulted(7, "", GetParam(), 2, /*budget=*/0);
  RunOutcome unlimited = RunFaulted(7, "", GetParam(), 2, /*budget=*/-1);
  ExpectIdentical(off, unlimited, "unlimited-budget");
  EXPECT_EQ(unlimited.report.faults.shed_orders, 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, OverloadSheddingTest,
                         testing::Values(DispatchMode::kSerial,
                                         DispatchMode::kBatched),
                         [](const testing::TestParamInfo<DispatchMode>& info) {
                           return info.param == DispatchMode::kBatched
                                      ? std::string("batched")
                                      : std::string("serial");
                         });

}  // namespace
}  // namespace watter
