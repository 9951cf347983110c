// Design ablation: the expected extra-time threshold theta itself.
//
// Section V's central claim is that the METRS objective is a well-behaved
// (unimodal) function of the threshold: theta too small never dispatches by
// quality (orders ride the timeout path), theta too large dispatches
// greedily (online-like). This bench sweeps a *fixed* theta across orders
// and prints the objective, which should dip near the GMM-optimized value;
// the GMM and online strategies are included as reference rows.
#include "bench/bench_util.h"
#include "src/stats/em_fitter.h"

int main(int argc, char** argv) {
  using namespace watter;
  using namespace watter::bench;
  bool quick = QuickMode(argc, argv);
  RejectUnreadArgs(argc, argv);

  WorkloadOptions base = BaseWorkload(DatasetKind::kCdc);
  std::vector<double> thetas = {0, 15, 30, 60, 120, 240, 480, 1e9};
  if (quick) thetas = {0, 60, 1e9};

  // Bootstrap a GMM for the reference row.
  std::unique_ptr<GaussianMixture> mixture;
  {
    auto scenario = GenerateScenario(base);
    if (!scenario.ok()) return 1;
    TimeoutThresholdProvider timeout;
    WatterPlatform platform(&*scenario, &timeout, SimOptions{});
    (void)platform.Run();
    auto fit = FitGmm(platform.metrics().served_extra_times(),
                      {.num_components = 3, .seed = 7});
    if (!fit.ok()) return 1;
    mixture = std::make_unique<GaussianMixture>(std::move(fit).value());
  }

  Table table({"theta(s)", "METRS objective", "unified_cost",
               "service_rate(%)", "avg_response(s)", "avg_detour(s)"});
  auto add_row = [&table](const std::string& label,
                          const MetricsReport& report) {
    table.AddRow({label, Table::Num(report.metrs_objective, 0),
                  Table::Num(report.unified_cost, 0),
                  Table::Num(report.service_rate * 100, 1),
                  Table::Num(report.avg_response, 1),
                  Table::Num(report.avg_detour, 1)});
  };

  for (double theta : thetas) {
    auto scenario = GenerateScenario(base);
    if (!scenario.ok()) return 1;
    FixedThresholdProvider provider(theta);
    add_row(theta >= 1e9 ? "inf" : Table::Num(theta, 0),
            RunWatter(&*scenario, &provider));
  }
  {
    auto scenario = GenerateScenario(base);
    if (!scenario.ok()) return 1;
    GmmThresholdProvider provider(*mixture);
    add_row("GMM theta*(p)", RunWatter(&*scenario, &provider));
  }
  std::printf(
      "-- Ablation theta | CDC | METRS objective vs fixed threshold --\n");
  table.Print();
  return 0;
}
