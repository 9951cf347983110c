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

  // results[cells] = {WATTER-online, GAS}, each cell simulated once.
  std::vector<std::string> rows;
  std::vector<std::vector<MetricsReport>> results;
  for (int cells : sweep) {
    rows.push_back(std::to_string(cells));
    results.emplace_back();
    {
      auto scenario = GenerateScenario(base);
      if (!scenario.ok()) return 1;
      OnlineThresholdProvider provider;
      SimOptions sim;
      sim.grid_cells = cells;
      results.back().push_back(RunWatter(&*scenario, &provider, sim));
    }
    {
      auto scenario = GenerateScenario(base);
      if (!scenario.ok()) return 1;
      GasOptions gas;
      gas.grid_cells = cells;
      results.back().push_back(RunGas(&*scenario, gas));
    }
  }
  PrintPaperTables("Ablation grid | CDC | ", "",
                   {"grid_cells", "WATTER-online", "GAS"}, rows, results);
  return 0;
}
