// Appendix ablation: grid-index resolution (the paper tests grid sizes and
// picks 10x10). The grid drives nearest-worker search and the RL features;
// resolution mainly trades lookup precision against per-check cost.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  RejectUnreadArgs(argc, argv);

  WorkloadOptions base = BaseWorkload(DatasetKind::kCdc);
  std::vector<int> sweep = {4, 8, 10, 16, 24};
  if (quick) sweep = {4, 16};

  for (const MetricColumn& metric : PaperMetrics()) {
    Table table({"grid_cells", "WATTER-online", "GAS"});
    for (int cells : sweep) {
      std::vector<std::string> row = {std::to_string(cells)};
      {
        auto scenario = GenerateScenario(base);
        if (!scenario.ok()) return 1;
        OnlineThresholdProvider provider;
        SimOptions sim;
        sim.grid_cells = cells;
        MetricsReport report = RunWatter(&*scenario, &provider, sim);
        row.push_back(Table::Num(metric.get(report), metric.precision));
      }
      {
        auto scenario = GenerateScenario(base);
        if (!scenario.ok()) return 1;
        GasOptions gas;
        gas.grid_cells = cells;
        MetricsReport report = RunGas(&*scenario, gas);
        row.push_back(Table::Num(metric.get(report), metric.precision));
      }
      table.AddRow(std::move(row));
    }
    std::printf("-- Ablation grid | CDC | %s --\n", metric.title);
    table.Print();
    std::printf("\n");
  }
  return 0;
}
