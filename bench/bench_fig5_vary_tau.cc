// Figure 5: performance while varying the deadline scale tau
// (deadline = release + tau * shortest_cost), tau in {1.2, 1.4, 1.6, 1.8}.
//
// Shapes to reproduce (Section VII-B): with small tau all methods are close
// (orders cannot wait); as tau grows WATTER-expect pulls ahead (paper: at
// tau=1.8 on XIA, -23.1/-27.7/-48.2/-65.3% unified cost vs the others).
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  int threads = BenchThreads(argc, argv);
  SimOptions sim;
  sim.dispatch = SingleDispatchMode(argc, argv);
  sim.num_shards = SingleBenchShards(argc, argv);
  BenchJson().path = BenchJsonPath(argc, argv);
  BenchJson().threads = threads;
  BenchJson().dispatch = DispatchName(sim.dispatch);
  BenchJson().shards = sim.num_shards;

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
    base.trace_path = BenchTracePath(argc, argv);
    base.timeline_path = BenchTimelinePath(argc, argv);
    std::vector<double> sweep = {1.2, 1.4, 1.6, 1.8};
    if (quick) sweep = {1.2, 1.8};
    RunSweep<double>(
        "Figure 5", dataset, "tau", sweep,
        [&base](double tau) {
          WorkloadOptions options = base;
          options.tau = tau;
          return options;
        },
        AlgorithmFamily(model.get(), sim));
  }
  return 0;
}
