// End-to-end profiled baseline: one full WATTER-online simulation per scale
// with the per-round timeline armed, rolled up into the committed
// BENCH_e2e.json records (docs/PERFORMANCE.md, "End-to-end profile").
//
// Scales:
//   quick-1500-150 — the BaseWorkload smoke shape; always runs (this is
//     what the ctest registration and the CI traced smoke exercise).
//   30k-3k — the paper's Table III lower end (CDC, matrix oracle), the same
//     shape as tests/sim_paper_scale_test.cc; the recorded baseline. Runs
//     by default — this binary exists to produce that record — but takes
//     minutes on one core; `--quick` skips it.
//   125k-6k — the paper's headline NYC setting (96x96 city, matrix oracle
//     like every other scale); self-skips unless WATTER_RUN_LARGE is set,
//     like every other paper-scale target.
//
// Each scale's record carries the four paper metrics plus the per-phase
// wall-time breakdown (maintenance/refresh/propose/resolve/commit/sweep)
// from the timeline totals, the round count and peak pool size, and the
// name of the top phase — the measured "next bottleneck" that
// docs/PERFORMANCE.md tracks across PRs. `--trace FILE` additionally
// exports the Chrome trace of the profiled runs; `--timeline FILE` keeps
// the last scale's full per-round timeline (tools/trace_summary.py reads
// both). The observability taps are run-neutral (docs/OBSERVABILITY.md),
// so these numbers are comparable with untraced runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace {

using namespace watter;
using namespace watter::bench;

struct E2eScale {
  const char* label;
  DatasetKind dataset;
  int orders;
  int workers;
  int city;       // Square city side (cells).
  double hours;   // Arrival window.
};

struct E2eResult {
  MetricsReport report;
  obs::RoundSample totals;  // Timeline totals; `round` = sample count.
  int64_t peak_pool = 0;
  int64_t final_pool = 0;
};

// Phase slots of the timeline totals, in display order.
struct PhaseSlot {
  const char* name;
  double obs::RoundSample::*slot;
};
constexpr PhaseSlot kPhases[] = {
    {"maintenance_s", &obs::RoundSample::maintenance_s},
    {"refresh_s", &obs::RoundSample::refresh_s},
    {"propose_s", &obs::RoundSample::propose_s},
    {"resolve_s", &obs::RoundSample::resolve_s},
    {"commit_s", &obs::RoundSample::commit_s},
    {"sweep_s", &obs::RoundSample::sweep_s},
};

bool RunScale(const E2eScale& scale, int threads, const SimOptions& sim_base,
              const std::string& trace_path,
              const std::string& timeline_path, E2eResult* out) {
  WorkloadOptions workload;
  workload.dataset = scale.dataset;
  workload.num_orders = scale.orders;
  workload.num_workers = scale.workers;
  workload.city_width = scale.city;
  workload.city_height = scale.city;
  workload.duration = scale.hours * 3600.0;
  workload.num_threads = threads;
  workload.seed = 20240301;  // Matches tests/sim_paper_scale_test.cc.

  auto scenario = GenerateScenario(workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "[%s] scenario failed: %s\n", scale.label,
                 scenario.status().ToString().c_str());
    return false;
  }
  SimOptions sim = sim_base;
  sim.trace_path = trace_path;
  // The sampler must be live to measure the phase breakdown; default the
  // export next to the cwd when the caller did not pick a path.
  sim.timeline_path = timeline_path.empty()
                          ? std::string("e2e_") + scale.label +
                                "_timeline.json"
                          : timeline_path;
  OnlineThresholdProvider provider;
  WatterPlatform platform(&*scenario, &provider, sim);
  out->report = platform.Run();
  const obs::TimelineSampler* timeline = platform.timeline();
  if (timeline == nullptr || timeline->samples().empty()) {
    std::fprintf(stderr, "[%s] timeline sampler was not active\n",
                 scale.label);
    return false;
  }
  out->totals = timeline->Totals();
  for (const obs::RoundSample& sample : timeline->samples()) {
    if (sample.pool_size > out->peak_pool) out->peak_pool = sample.pool_size;
  }
  out->final_pool = timeline->samples().back().pool_size;
  return true;
}

void Report(const E2eScale& scale, int threads, const SimOptions& sim,
            const E2eResult& r) {
  const char* top_phase = kPhases[0].name;
  double top_seconds = -1.0;
  Table table({"phase", "seconds", "% of rounds"});
  for (const PhaseSlot& phase : kPhases) {
    double seconds = r.totals.*(phase.slot);
    if (seconds > top_seconds) {
      top_seconds = seconds;
      top_phase = phase.name;
    }
    table.AddRow({phase.name, Table::Num(seconds, 3),
                  Table::Num(r.totals.total_s > 0.0
                                 ? 100.0 * seconds / r.totals.total_s
                                 : 0.0,
                             1)});
  }
  std::printf(
      "-- e2e profile | %s (n=%d, m=%d, %s) --\n"
      "served %lld / %d (%.1f%%), %lld rounds, peak pool %lld, "
      "%.1fs in rounds\n",
      scale.label, scale.orders, scale.workers, DatasetName(scale.dataset),
      static_cast<long long>(r.report.served), scale.orders,
      r.report.service_rate * 100.0,
      static_cast<long long>(r.totals.round),
      static_cast<long long>(r.peak_pool), r.totals.total_s);
  table.Print();
  std::printf("top phase: %s (%.3fs)\n\n", top_phase, top_seconds);

  if (BenchJson().path.empty()) return;
  char record[1024];
  std::snprintf(
      record, sizeof(record),
      "{\"bench\": \"e2e\", \"scale\": \"%s\", \"dataset\": \"%s\", "
      "\"orders\": %d, \"workers\": %d, \"threads\": %d, "
      "\"dispatch\": \"%s\", "
      "\"served\": %lld, \"rejected\": %lld, \"service_rate\": %.6g, "
      "\"metrs_objective\": %.6g, \"unified_cost\": %.6g, "
      "\"running_time_per_order_us\": %.3f, \"algorithm_seconds\": %.3f, "
      "\"rounds\": %lld, \"peak_pool\": %lld, \"final_pool\": %lld, "
      "\"maintenance_s\": %.4f, \"refresh_s\": %.4f, \"propose_s\": %.4f, "
      "\"resolve_s\": %.4f, \"commit_s\": %.4f, \"sweep_s\": %.4f, "
      "\"round_total_s\": %.4f, \"top_phase\": \"%s\", "
      "\"planner_plans\": %lld, \"pair_tests\": %lld, "
      "\"oracle_queries\": %lld, \"oracle_batches\": %lld}",
      scale.label, DatasetName(scale.dataset), scale.orders, scale.workers,
      threads, DispatchName(sim.dispatch),
      static_cast<long long>(r.report.served),
      static_cast<long long>(r.report.rejected), r.report.service_rate,
      r.report.metrs_objective, r.report.unified_cost,
      r.report.running_time_per_order * 1e6, r.report.algorithm_seconds,
      static_cast<long long>(r.totals.round),
      static_cast<long long>(r.peak_pool),
      static_cast<long long>(r.final_pool), r.totals.maintenance_s,
      r.totals.refresh_s, r.totals.propose_s, r.totals.resolve_s,
      r.totals.commit_s, r.totals.sweep_s, r.totals.total_s, top_phase,
      static_cast<long long>(r.report.pool.planner_plans),
      static_cast<long long>(r.report.pool.pair_tests),
      static_cast<long long>(r.report.geo.queries),
      static_cast<long long>(r.report.geo.batches));
  BenchJson().records.emplace_back(record);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = QuickMode(argc, argv);
  int threads = BenchThreads(argc, argv);
  SimOptions sim;
  sim.dispatch = SingleDispatchMode(argc, argv);
  BenchJson().path = BenchJsonPath(argc, argv);
  BenchJson().threads = threads;
  BenchJson().dispatch = DispatchName(sim.dispatch);
  std::string trace_path = BenchTracePath(argc, argv);
  std::string timeline_path = BenchTimelinePath(argc, argv);

  std::vector<E2eScale> scales = {
      {"quick-1500-150", DatasetKind::kCdc, 1500, 150, 24, 2.0},
  };
  if (!quick) {
    scales.push_back({"30k-3k", DatasetKind::kCdc, 30000, 3000, 32, 4.0});
  }
  if (std::getenv("WATTER_RUN_LARGE") != nullptr) {
    // The paper's headline NYC setting.
    scales.push_back({"125k-6k", DatasetKind::kNyc, 125000, 6000, 96, 4.0});
  } else if (!quick) {
    std::printf("paper-scale shape (125k orders / 6k workers) "
                "skipped; set WATTER_RUN_LARGE=1.\n");
  }

  bool ok = true;
  for (const E2eScale& scale : scales) {
    E2eResult result;
    if (!RunScale(scale, threads, sim, trace_path, timeline_path, &result)) {
      ok = false;
      continue;
    }
    Report(scale, threads, sim, result);
  }
  BenchJson().Flush();
  return ok ? 0 : 1;
}
