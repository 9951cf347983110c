// Figure 3: performance while varying the number of riders n.
//
// Paper sweep: NYC n in {50k, 75k, 100k, 125k}; CDC/XIA n in {30k..60k}.
// Reproduction sweep (30x scale-down, same n/m ratios): NYC {1500..3750},
// CDC/XIA {900..1800}, m = 150.
//
// Shapes to reproduce (Section VII-B): WATTER variants beat GDP/GAS on
// extra time and unified cost, WATTER-expect best; service rate ordering
// expect > timeout > online > GAS > GDP; GDP fastest per order.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  int threads = BenchThreads(argc, argv);
  std::vector<DispatchMode> modes = BenchDispatchModes(argc, argv);
  std::string faults = BenchFaultSpec(argc, argv);
  BenchJson().path = BenchJsonPath(argc, argv);
  BenchJson().threads = threads;
  BenchJson().faults = faults;
  const std::vector<DatasetKind> datasets = BenchDatasets(argc, argv, quick);
  const std::string trace_path = BenchTracePath(argc, argv);
  const std::string timeline_path = BenchTimelinePath(argc, argv);
  RejectUnreadArgs(argc, argv);

  for (DatasetKind dataset : datasets) {
    WorkloadOptions base = BaseWorkload(dataset);
    base.num_threads = threads;
    base.faults = faults;
    std::unique_ptr<ExpectModel> model;
    if (!quick) {
      auto trained = TrainExpect(base);
      if (!trained.ok()) {
        std::fprintf(stderr, "training failed: %s\n",
                     trained.status().ToString().c_str());
        return 1;
      }
      model = std::make_unique<ExpectModel>(std::move(trained).value());
    }
    // Observability taps ride on the workload so every simulated run of the
    // sweep inherits them; the training days above stay untraced.
    base.trace_path = trace_path;
    base.timeline_path = timeline_path;
    std::vector<int> sweep;
    int base_n = base.num_orders;
    for (double factor : {0.5, 0.75, 1.0, 1.25}) {
      sweep.push_back(static_cast<int>(base_n * factor));
    }
    if (quick) sweep = {sweep[0], sweep[2]};
    for (DispatchMode mode : modes) {
      BenchJson().dispatch = DispatchName(mode);
      SimOptions sim;
      sim.dispatch = mode;
      std::string figure = "Figure 3";
      if (modes.size() > 1) {
        figure += std::string(" [dispatch=") + DispatchName(mode) + "]";
      }
      if (!faults.empty()) figure += " [faults]";
      // GDP/GAS have their own loops and ignore the fault knob entirely;
      // a faulted sweep would just re-record their faultless numbers.
      bool with_baselines = faults.empty() && mode == modes.front();
      RunSweep<int>(
          figure, dataset, "n", sweep,
          [&base](int n) {
            WorkloadOptions options = base;
            options.num_orders = n;
            return options;
          },
          AlgorithmFamily(model.get(), sim, with_baselines));
    }
  }
  return 0;
}
