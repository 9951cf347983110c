// Figure 4: performance while varying the number of workers m.
//
// Paper sweep: m in {3k, 4k, 5k, 6k}. Reproduction sweep (same n/m ratios):
// m in {90, 120, 150, 180}.
//
// Shapes to reproduce (Section VII-B): extra time and unified cost decrease
// with m; service rate increases; WATTER-expect leads throughout (e.g. NYC
// m=6000: +4.3%/+9.6%/+12.8% service rate vs timeout/online/GDP).
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  int threads = BenchThreads(argc, argv);
  SimOptions sim;
  sim.dispatch = SingleDispatchMode(argc, argv);
  BenchJson().path = BenchJsonPath(argc, argv);
  BenchJson().threads = threads;
  BenchJson().dispatch = DispatchName(sim.dispatch);
  const std::string trace_path = BenchTracePath(argc, argv);
  const std::string timeline_path = BenchTimelinePath(argc, argv);
  RejectUnreadArgs(argc, argv);

  for (DatasetKind dataset : BenchDatasets(quick)) {
    WorkloadOptions base = BaseWorkload(dataset);
    base.num_threads = threads;
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
    // Observability taps (training days above stay untraced).
    base.trace_path = trace_path;
    base.timeline_path = timeline_path;
    std::vector<int> sweep = {90, 120, 150, 180};
    if (quick) sweep = {90, 150};
    RunSweep<int>(
        "Figure 4", dataset, "m", sweep,
        [&base](int m) {
          WorkloadOptions options = base;
          options.num_workers = m;
          return options;
        },
        AlgorithmFamily(model.get(), sim));
  }
  return 0;
}
