// watter — command-line front end of the WATTER library.
//
// Subcommands:
//   watter generate --out DIR [workload flags]
//       Generate a synthetic workload and write orders/workers CSVs.
//   watter run --strategy NAME [--dispatch MODE] [--metrics-json FILE]
//              [workload flags]
//       Run one algorithm over a generated scenario and print metrics.
//       NAME in {online, timeout, gdp, gas, nonsharing, gmm}.
//   watter train --model FILE [workload flags]
//       Train a WATTER-expect model offline and save it. The training days
//       run on the trainer's own platform options, so train takes no
//       --dispatch.
//   watter evaluate --model FILE [--dispatch MODE] [--metrics-json FILE]
//                   [workload flags]
//       Load a trained model and evaluate it on a fresh day.
//   A subcommand exits 2 with a usage error on a flag it does not read
//   rather than ignore it: a flag of another subcommand (--out, --strategy,
//   --model, --dispatch, --metrics-json), or in generate, which runs no
//   platform, --threads and the robustness and observability flags.
//
// Common workload flags (defaults in brackets):
//   --dataset nyc|cdc|xia [cdc]   --orders N [1500]   --workers M [150]
//   --tau X [1.6]  --eta X [0.8]  --capacity K [4]    --seed S [42]
//   --city-seed S [derived]       --duration HOURS [2]
//   Every dataset, nyc and xia included, runs on the all-pairs matrix
//   travel-time oracle.
//
// Platform flags (run, train and evaluate):
//   --threads T [1; 0 = all CPUs this process may run on] — parallelism of
//   the check loop and pool maintenance; metrics are identical for any T.
//
// Run and evaluate flags:
//   --dispatch serial|batched [batched] — decision engine of the WATTER
//   strategies (docs/DISPATCH.md): the batched sorted-offers engine (the
//   default — its cost-ranked commits serve more orders under contention,
//   see docs/PERFORMANCE.md) or the paper-faithful sequential loop. Either
//   engine is deterministic for any --threads.
//   --metrics-json FILE — dump the full MetricsReport as one JSON object,
//   under the same field names as the fig-bench --json records.
//
// Robustness flags (run, train and evaluate; docs/ROBUSTNESS.md):
//   --faults SPEC — deterministic fault injection, e.g.
//   "dropouts=5;brownouts=2;seed=7". Worker dropouts/returns, late
//   dropouts, and oracle brownouts fire from a precomputed seeded schedule,
//   so a fixed spec is bitwise reproducible across thread counts.
//   Empty (the default) disables fault injection entirely.
//   --budget N — per-round propose work budget in deterministic work units
//   (candidate probes + planner plans); overloaded rounds shed their
//   least-urgent tail to the next round. 0 = unlimited.
//
// Observability flags (run, train and evaluate; docs/OBSERVABILITY.md; all
// run-neutral — metrics are bitwise identical whether they are set or not):
//   --trace FILE — export a Chrome trace-event JSON of the run (load in
//   Perfetto / chrome://tracing): phase spans for every check round, pool
//   refresh internals, oracle batches, thread-pool jobs.
//   --timeline FILE — per-round timeline (pool size, shareability edges,
//   offers/conflicts, phase durations, counter deltas) as
//   JSON, or CSV when FILE ends in ".csv".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/baseline/gas.h"
#include "src/baseline/gdp.h"
#include "src/baseline/nonsharing.h"
#include "src/common/table.h"
#include "src/rl/model_io.h"
#include "src/rl/trainer.h"
#include "src/sim/platform.h"
#include "src/stats/em_fitter.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/dataset_io.h"
#include "src/workload/scenario.h"

namespace {

using namespace watter;

struct CliArgs {
  std::string command;
  WorkloadOptions workload;
  SimOptions sim;
  std::string strategy = "online";
  std::string model_path;
  std::string out_dir = ".";
  std::string metrics_json_path;
  /// The subcommand-specific flags given, in command-line order.
  std::vector<std::string> command_flags;
};

[[noreturn]] void Usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: watter <generate|run|train|evaluate> [flags]\n"
               "  generate:       --out DIR\n"
               "  run:            --strategy "
               "online|timeout|gdp|gas|nonsharing|gmm\n"
               "  train:          --model FILE\n"
               "  evaluate:       --model FILE\n"
               "  run, evaluate:  --dispatch serial|batched (default batched)\n"
               "                  --metrics-json FILE (full report as JSON)\n"
               "  workload flags: --dataset nyc|cdc|xia --orders N "
               "--workers M\n"
               "                  --tau X --eta X --capacity K --seed S\n"
               "                  --city-seed S --duration HOURS\n"
               "  run, train and evaluate:\n"
               "    platform:     --threads T (0 = all CPUs this process may run on)\n"
               "    robustness:   --faults SPEC (docs/ROBUSTNESS.md grammar)\n"
               "                  --budget N (per-round propose work units)\n"
               "    tracing:      --trace FILE (Chrome trace-event JSON)\n"
               "                  --timeline FILE (per-round JSON; .csv = CSV)\n");
  std::exit(2);
}

// Whether `command` reads the subcommand-specific `flag`.
bool CommandReads(const std::string& command, const std::string& flag) {
  if (flag == "--out") return command == "generate";
  if (flag == "--strategy") return command == "run";
  if (flag == "--model") return command == "train" || command == "evaluate";
  if (flag == "--dispatch" || flag == "--metrics-json") {
    return command == "run" || command == "evaluate";
  }
  // The platform's flags: generate runs no platform.
  return command != "generate";
}

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  if (argc < 2) Usage("missing command");
  args.command = argv[1];
  if (args.command != "generate" && args.command != "run" &&
      args.command != "train" && args.command != "evaluate") {
    Usage("unknown command");
  }
  args.workload.dataset = DatasetKind::kCdc;
  args.workload.num_orders = 1500;
  args.workload.num_workers = 150;
  args.workload.duration = 2 * 3600.0;
  args.workload.city_width = 24;
  args.workload.city_height = 24;

  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) Usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--dataset") == 0) {
      std::string name = need_value("--dataset");
      if (name == "nyc") {
        args.workload.dataset = DatasetKind::kNyc;
      } else if (name == "cdc") {
        args.workload.dataset = DatasetKind::kCdc;
      } else if (name == "xia") {
        args.workload.dataset = DatasetKind::kXia;
      } else {
        Usage("unknown dataset");
      }
    } else if (std::strcmp(argv[i], "--orders") == 0) {
      args.workload.num_orders = std::atoi(need_value("--orders"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      args.workload.num_workers = std::atoi(need_value("--workers"));
    } else if (std::strcmp(argv[i], "--tau") == 0) {
      args.workload.tau = std::atof(need_value("--tau"));
    } else if (std::strcmp(argv[i], "--eta") == 0) {
      args.workload.eta = std::atof(need_value("--eta"));
    } else if (std::strcmp(argv[i], "--capacity") == 0) {
      args.workload.max_capacity = std::atoi(need_value("--capacity"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.workload.seed =
          static_cast<uint64_t>(std::atoll(need_value("--seed")));
    } else if (std::strcmp(argv[i], "--city-seed") == 0) {
      args.workload.city_seed =
          static_cast<uint64_t>(std::atoll(need_value("--city-seed")));
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      args.workload.duration = std::atof(need_value("--duration")) * 3600.0;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.command_flags.push_back(argv[i]);
      args.workload.num_threads = std::atoi(need_value("--threads"));
    } else if (std::strcmp(argv[i], "--dispatch") == 0) {
      args.command_flags.push_back(argv[i]);
      std::string mode = need_value("--dispatch");
      if (mode == "serial") {
        args.sim.dispatch = DispatchMode::kSerial;
      } else if (mode == "batched") {
        args.sim.dispatch = DispatchMode::kBatched;
      } else {
        Usage("unknown dispatch mode (serial|batched)");
      }
    } else if (std::strcmp(argv[i], "--strategy") == 0) {
      args.command_flags.push_back(argv[i]);
      args.strategy = need_value("--strategy");
    } else if (std::strcmp(argv[i], "--model") == 0) {
      args.command_flags.push_back(argv[i]);
      args.model_path = need_value("--model");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args.command_flags.push_back(argv[i]);
      args.out_dir = need_value("--out");
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      args.command_flags.push_back(argv[i]);
      std::string spec = need_value("--faults");
      Result<FaultSpec> parsed = ParseFaultSpec(spec);
      if (!parsed.ok()) {
        Usage(("--faults: " + parsed.status().ToString()).c_str());
      }
      args.workload.faults = spec;
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      args.command_flags.push_back(argv[i]);
      args.workload.round_work_budget = std::atoll(need_value("--budget"));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      args.command_flags.push_back(argv[i]);
      args.workload.trace_path = need_value("--trace");
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      args.command_flags.push_back(argv[i]);
      args.workload.timeline_path = need_value("--timeline");
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      args.command_flags.push_back(argv[i]);
      args.metrics_json_path = need_value("--metrics-json");
    } else {
      Usage((std::string("unknown flag: ") + argv[i]).c_str());
    }
  }
  for (const std::string& flag : args.command_flags) {
    if (!CommandReads(args.command, flag)) {
      Usage((args.command + " does not read " + flag).c_str());
    }
  }
  return args;
}

void PrintReport(const std::string& name, const MetricsReport& report) {
  Table table({"metric", "value"});
  table.AddRow({"algorithm", name});
  table.AddRow({"orders served", std::to_string(report.served)});
  table.AddRow({"orders rejected", std::to_string(report.rejected)});
  table.AddRow({"service rate (%)",
                Table::Num(report.service_rate * 100.0, 2)});
  table.AddRow({"extra time / METRS objective (s)",
                Table::Num(report.metrs_objective, 0)});
  table.AddRow({"  served extra time (s)",
                Table::Num(report.total_extra_time, 0)});
  table.AddRow({"  rejection penalties (s)",
                Table::Num(report.total_metrs_penalty, 0)});
  table.AddRow({"unified cost", Table::Num(report.unified_cost, 0)});
  table.AddRow({"worker travel (s)", Table::Num(report.worker_travel, 0)});
  table.AddRow({"avg response (s)", Table::Num(report.avg_response, 1)});
  table.AddRow({"avg detour (s)", Table::Num(report.avg_detour, 1)});
  table.AddRow({"avg group size", Table::Num(report.avg_group_size, 2)});
  table.AddRow({"running time / order (us)",
                Table::Num(report.running_time_per_order * 1e6, 1)});
  table.Print();
  // Every nonzero run counter under its JSON name (metrics.h): outcomes,
  // pool, dispatch, fault and oracle work.
  Table counters({"counter", "value"});
  VisitCounters(report, [&counters](const char* name, int64_t value) {
    if (value != 0) counters.AddRow({name, std::to_string(value)});
  });
  counters.Print();
}

// Writes `report` to --metrics-json's file, if one was given. Returns the
// process exit status so far: 0, or 1 when the file cannot be written.
int WriteMetricsJson(const CliArgs& args, const MetricsReport& report) {
  if (args.metrics_json_path.empty()) return 0;
  std::FILE* f = std::fopen(args.metrics_json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics-json write failed: %s\n",
                 args.metrics_json_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", MetricsReportJson(report).c_str());
  std::fclose(f);
  std::printf("metrics JSON written to %s\n", args.metrics_json_path.c_str());
  return 0;
}

int Generate(const CliArgs& args) {
  auto scenario = GenerateScenario(args.workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::string orders_path = args.out_dir + "/orders.csv";
  std::string workers_path = args.out_dir + "/workers.csv";
  Status status = SaveOrdersCsv(orders_path, scenario->orders);
  if (status.ok()) status = SaveWorkersCsv(workers_path, scenario->workers);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu orders to %s\nwrote %zu workers to %s\n",
              scenario->orders.size(), orders_path.c_str(),
              scenario->workers.size(), workers_path.c_str());
  return 0;
}

int Run(const CliArgs& args) {
  auto scenario = GenerateScenario(args.workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  MetricsReport report;
  std::string name = args.strategy;
  if (args.strategy == "online") {
    OnlineThresholdProvider provider;
    report = RunWatter(&*scenario, &provider, args.sim);
  } else if (args.strategy == "timeout") {
    TimeoutThresholdProvider provider;
    report = RunWatter(&*scenario, &provider, args.sim);
  } else if (args.strategy == "gdp") {
    report = RunGdp(&*scenario);
  } else if (args.strategy == "gas") {
    report = RunGas(&*scenario);
  } else if (args.strategy == "nonsharing") {
    report = RunNonSharing(&*scenario);
  } else if (args.strategy == "gmm") {
    // Bootstrap a same-shaped training day, fit, then run.
    WorkloadOptions boot = args.workload;
    boot.seed = args.workload.seed * 31 + 7;
    // Observe the evaluation run only, not the bootstrap day.
    boot.trace_path.clear();
    boot.timeline_path.clear();
    auto boot_scenario = GenerateScenario(boot);
    if (!boot_scenario.ok()) return 1;
    TimeoutThresholdProvider timeout;
    WatterPlatform bootstrap(&*boot_scenario, &timeout, args.sim);
    (void)bootstrap.Run();
    auto mixture = FitGmm(bootstrap.metrics().served_extra_times(),
                          {.num_components = 3, .seed = 11});
    if (!mixture.ok()) {
      std::fprintf(stderr, "GMM fit failed: %s\n",
                   mixture.status().ToString().c_str());
      return 1;
    }
    GmmThresholdProvider provider(std::move(mixture).value());
    report = RunWatter(&*scenario, &provider, args.sim);
    name = "WATTER-gmm";
  } else {
    Usage("unknown strategy");
  }
  PrintReport(name, report);
  return WriteMetricsJson(args, report);
}

int Train(const CliArgs& args) {
  if (args.model_path.empty()) Usage("train needs --model FILE");
  std::printf("training WATTER-expect on %s-shaped workloads...\n",
              DatasetName(args.workload.dataset));
  auto model = TrainExpectModel(args.workload);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  Status status = SaveExpectModel(args.model_path, *model);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("model saved to %s (%zu experiences, %d mixture components)\n",
              args.model_path.c_str(), model->experiences,
              model->mixture->num_components());
  return 0;
}

int Evaluate(const CliArgs& args) {
  if (args.model_path.empty()) Usage("evaluate needs --model FILE");
  auto scenario = GenerateScenario(args.workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  auto model = LoadExpectModel(args.model_path, scenario->city);
  if (!model.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  auto provider = model->MakeProvider();
  MetricsReport report = RunWatter(&*scenario, provider.get(), args.sim);
  PrintReport("WATTER-expect", report);
  return WriteMetricsJson(args, report);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args = Parse(argc, argv);
  if (args.command == "generate") return Generate(args);
  if (args.command == "run") return Run(args);
  if (args.command == "train") return Train(args);
  return Evaluate(args);
}
