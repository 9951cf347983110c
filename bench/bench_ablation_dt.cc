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

  std::vector<Algorithm> algorithms;
  for (double period : sweep) {
    (void)period;
  }
  // Sweep the check period through SimOptions rather than the workload.
  for (const MetricColumn& metric : PaperMetrics()) {
    Table table({"check_period(s)", "WATTER-online", "WATTER-timeout"});
    for (double period : sweep) {
      std::vector<std::string> row = {Table::Num(period, 0)};
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
        MetricsReport report = RunWatter(&*scenario, provider, sim);
        row.push_back(Table::Num(metric.get(report), metric.precision));
      }
      table.AddRow(std::move(row));
    }
    std::printf("-- Ablation dt | CDC | %s --\n", metric.title);
    table.Print();
    std::printf("\n");
  }
  return 0;
}
