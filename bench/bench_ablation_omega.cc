// Design ablation: the combined loss of Section VI-B,
//   loss = omega * loss_td + (1 - omega) * loss_tg.
// omega = 1 is pure temporal-difference learning (the paper argues it
// under-constrains the value scale), omega = 0 is pure regression onto the
// Section V thresholds (no look-ahead fine-tuning). The paper's
// contribution is the mix; this bench trains one model per omega and
// evaluates each on the same held-out day.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  RejectUnreadArgs(argc, argv);

  WorkloadOptions base = BaseWorkload(DatasetKind::kCdc);
  std::vector<double> omegas = {0.0, 0.25, 0.5, 0.75, 1.0};
  if (quick) omegas = {0.0, 1.0};

  Table table({"omega", "METRS objective", "unified_cost",
               "service_rate(%)", "avg_response(s)", "experiences"});
  for (double omega : omegas) {
    ExpectTrainOptions train;
    train.bootstrap_days = 1;
    train.behavior_days = 2;
    train.epochs = 2;
    train.learner.omega = omega;
    auto model = TrainExpectModel(base, train);
    if (!model.ok()) {
      std::fprintf(stderr, "training failed at omega=%.2f: %s\n", omega,
                   model.status().ToString().c_str());
      return 1;
    }
    auto scenario = GenerateScenario(base);
    if (!scenario.ok()) return 1;
    auto provider = model->MakeProvider();
    MetricsReport report = RunWatter(&*scenario, provider.get());
    table.AddRow({Table::Num(omega, 2),
                  Table::Num(report.metrs_objective, 0),
                  Table::Num(report.unified_cost, 0),
                  Table::Num(report.service_rate * 100, 1),
                  Table::Num(report.avg_response, 1),
                  std::to_string(model->experiences)});
  }
  std::printf(
      "-- Ablation omega | CDC | TD-vs-target loss mix (Section VI-B) --\n");
  table.Print();
  return 0;
}
