// Appendix ablation: the watching-window scale eta
// (wait_limit = eta * shortest_cost). The paper tunes eta and picks 0.8.
//
// Expected shape: small eta barely waits (few grouping chances, lower
// response); large eta waits long (better groups, but responses and
// timeouts grow). A sweet spot appears in the middle for the METRS
// objective.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  RejectUnreadArgs(argc, argv);

  WorkloadOptions base = BaseWorkload(DatasetKind::kCdc);
  std::vector<double> sweep = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2};
  if (quick) sweep = {0.2, 0.8};

  // eta shapes the *pool framework* itself; compare the three non-learned
  // strategies (the learned ones would need retraining per eta).
  std::vector<Algorithm> algorithms = AlgorithmFamily(nullptr);
  RunSweep<double>(
      "Ablation eta", DatasetKind::kCdc, "eta", sweep,
      [&base](double eta) {
        WorkloadOptions options = base;
        options.eta = eta;
        return options;
      },
      algorithms);
  return 0;
}
