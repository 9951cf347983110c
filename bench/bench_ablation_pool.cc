// Design-choice ablation (docs/ARCHITECTURE.md, "Design decisions"): the
// two pool semantics this reproduction had to pin down where the paper is
// ambiguous:
//  (a) whether the best-group map contains singleton "groups"
//      (include_singletons) — with singletons and any threshold, fresh
//      orders pass te <= theta instantly and the strategy family collapses
//      toward online dispatch;
//  (b) whether shareability edges require true co-riding (require_overlap) —
//      without it, sequential chains flood the graph with useless edges.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  (void)QuickMode(argc, argv);
  RejectUnreadArgs(argc, argv);

  WorkloadOptions base = BaseWorkload(DatasetKind::kCdc);

  struct Variant {
    const char* name;
    bool include_singletons;
    bool require_overlap;
  };
  std::vector<Variant> variants = {
      {"paper (shared-only, overlap)", false, true},
      {"with singleton groups", true, true},
      {"without overlap requirement", false, false},
      {"both relaxed", true, false},
  };

  for (int provider_kind = 0; provider_kind < 2; ++provider_kind) {
    Table table({"pool semantics", "METRS objective", "unified_cost",
                 "service_rate(%)", "avg_response(s)", "avg_group",
                 "rt/order(us)"});
    for (const Variant& variant : variants) {
      auto scenario = GenerateScenario(base);
      if (!scenario.ok()) return 1;
      SimOptions sim;
      sim.pool.include_singletons = variant.include_singletons;
      sim.pool.require_overlap = variant.require_overlap;
      OnlineThresholdProvider online;
      FixedThresholdProvider fixed(60.0);
      ThresholdProvider* provider =
          provider_kind == 0 ? static_cast<ThresholdProvider*>(&online)
                             : static_cast<ThresholdProvider*>(&fixed);
      MetricsReport report = RunWatter(&*scenario, provider, sim);
      table.AddRow({variant.name, Table::Num(report.metrs_objective, 0),
                    Table::Num(report.unified_cost, 0),
                    Table::Num(report.service_rate * 100, 1),
                    Table::Num(report.avg_response, 1),
                    Table::Num(report.avg_group_size, 2),
                    Table::Num(report.running_time_per_order * 1e6, 1)});
    }
    std::printf("-- Ablation pool semantics | CDC | provider: %s --\n",
                provider_kind == 0 ? "WATTER-online" : "fixed theta=60s");
    table.Print();
    std::printf("\n");
  }
  return 0;
}
