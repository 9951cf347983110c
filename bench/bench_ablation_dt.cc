// Appendix ablation: the asynchronous check period (the paper picks a 10 s
// time slot dt). Finer checks respond faster but cost more compute; coarse
// checks delay dispatches and can miss expiring groups.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  RejectUnreadArgs(argc, argv);

  WorkloadOptions base = BaseWorkload(DatasetKind::kCdc);
  std::vector<double> sweep = {2.0, 5.0, 10.0, 20.0, 40.0};
  if (quick) sweep = {5.0, 20.0};

  // Sweep the check period through SimOptions rather than the workload;
  // results[period][variant], each cell simulated once.
  std::vector<std::string> rows;
  std::vector<std::vector<MetricsReport>> results;
  for (double period : sweep) {
    rows.push_back(Table::Num(period, 0));
    results.emplace_back();
    for (int variant = 0; variant < 2; ++variant) {
      auto scenario = GenerateScenario(base);
      if (!scenario.ok()) {
        std::fprintf(stderr, "scenario failed: %s\n",
                     scenario.status().ToString().c_str());
        return 1;
      }
      OnlineThresholdProvider online;
      TimeoutThresholdProvider timeout;
      ThresholdProvider* provider =
          variant == 0 ? static_cast<ThresholdProvider*>(&online)
                       : static_cast<ThresholdProvider*>(&timeout);
      SimOptions sim;
      sim.check_period = period;
      results.back().push_back(RunWatter(&*scenario, provider, sim));
    }
  }
  PrintPaperTables("Ablation dt | CDC | ", "",
                   {"check_period(s)", "WATTER-online", "WATTER-timeout"},
                   rows, results);
  return 0;
}
