// Figure 6: performance while varying the maximum vehicle capacity Kw in
// {2, 3, 4, 5} (worker capacities are sampled uniformly from [2, Kw]).
//
// Shapes to reproduce: larger capacities help the pooling methods (bigger
// feasible groups) while GDP benefits less; WATTER-expect stays best on
// unified cost and service rate.
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
    std::vector<int> sweep = {2, 3, 4, 5};
    if (quick) sweep = {2, 5};
    RunSweep<int>(
        "Figure 6", dataset, "Kw", sweep,
        [&base](int capacity) {
          WorkloadOptions options = base;
          options.max_capacity = capacity;
          return options;
        },
        AlgorithmFamily(model.get(), sim));
  }
  return 0;
}
