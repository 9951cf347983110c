// Shared harness for the figure-reproduction benches.
//
// Each bench sweeps one experimental knob (Table III), runs the five
// algorithms of the paper's evaluation (WATTER-expect / -online / -timeout,
// GDP, GAS; plus the Section V GMM strategy), and prints one table per
// metric in the layout of the corresponding figure: rows = sweep values,
// columns = algorithms.
//
// Scale note (docs/ARCHITECTURE.md, "Design decisions"): order/worker
// counts are scaled down ~30x from the paper so a full sweep finishes in
// minutes on one core while preserving the order-to-worker ratios that drive
// the trends.
#ifndef WATTER_BENCH_BENCH_UTIL_H_
#define WATTER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/gas.h"
#include "src/baseline/gdp.h"
#include "src/common/csv.h"
#include "src/common/table.h"
#include "src/rl/trainer.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace watter {
namespace bench {

/// What the flag readers below have seen, for RejectUnreadArgs: which argv
/// entries they consumed and which flags the program reads.
struct ArgLedger {
  std::vector<bool> consumed;      ///< Indexed by argv position.
  std::vector<std::string> flags;  ///< "--flag" or "--flag VALUE".
};

/// The ledger, after noting that the program reads `usage` (when given).
inline ArgLedger& Ledger(int argc, const std::string& usage = "") {
  static ArgLedger ledger;
  if (ledger.consumed.size() < static_cast<size_t>(argc)) {
    ledger.consumed.resize(argc, false);
  }
  if (!usage.empty() && std::find(ledger.flags.begin(), ledger.flags.end(),
                                  usage) == ledger.flags.end()) {
    ledger.flags.push_back(usage);
  }
  return ledger;
}

/// True when the switch `flag` appears in argv; marks each occurrence read.
inline bool HasSwitch(int argc, char** argv, const char* flag) {
  ArgLedger& ledger = Ledger(argc, flag);
  bool found = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) ledger.consumed[i] = found = true;
  }
  return found;
}

/// The value after each occurrence of `flag` in argv, in order; marks each
/// flag and its value read. `value_name` names the value in the usage list.
inline std::vector<const char*> FlagValues(int argc, char** argv,
                                           const char* flag,
                                           const char* value_name) {
  ArgLedger& ledger = Ledger(argc, std::string(flag) + " " + value_name);
  std::vector<const char*> values;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      ledger.consumed[i] = ledger.consumed[i + 1] = true;
      values.push_back(argv[i + 1]);
    }
  }
  return values;
}

/// Exits 2 on the first argument no flag reader consumed — a typo, a flag
/// this program does not read, or a flag without its value — naming it and
/// the flags the program does read. Call once, after every reader and
/// before any work, so a bad command line never runs a sweep.
inline void RejectUnreadArgs(int argc, char** argv) {
  ArgLedger& ledger = Ledger(argc);
  for (int i = 1; i < argc; ++i) {
    if (ledger.consumed[i]) continue;
    std::string flags;
    for (const std::string& usage : ledger.flags) {
      flags += (flags.empty() ? "" : ", ") + usage;
    }
    std::fprintf(stderr, "%s: unrecognized argument '%s'\nflags read: %s\n",
                 argv[0], argv[i], flags.c_str());
    std::exit(2);
  }
}

/// True when `--quick` is passed: fewer sweep points and no RL training,
/// for smoke runs.
inline bool QuickMode(int argc, char** argv) {
  return HasSwitch(argc, argv, "--quick");
}

/// Threads the simulated platforms run on: `--threads T` (0 = all CPUs
/// this process may run on; default 1 = serial). Exits 2 unless T is a
/// whole number of at least 0. Metrics are thread-count-independent, so
/// sweeps stay comparable.
inline int BenchThreads(int argc, char** argv) {
  const std::vector<const char*> values =
      FlagValues(argc, argv, "--threads", "T");
  if (values.empty()) return 1;
  Result<int> threads = ParseInteger<int>(values.front());
  if (!threads.ok() || *threads < 0) {
    std::fprintf(stderr, "%s: --threads needs a whole number >= 0: '%s'\n",
                 argv[0], values.front());
    std::exit(2);
  }
  return *threads;
}

inline const char* DispatchName(DispatchMode mode) {
  return mode == DispatchMode::kBatched ? "batched" : "serial";
}

/// Dispatch engines to sweep: `--dispatch serial|batched|both`. Default
/// runs the batched engine only (the platform default since the engine
/// A/B); `both` produces the serial-vs-batched A/B the JSON baseline
/// records.
inline std::vector<DispatchMode> BenchDispatchModes(int argc, char** argv) {
  const std::vector<const char*> values =
      FlagValues(argc, argv, "--dispatch", "serial|batched|both");
  const char* value = values.empty() ? nullptr : values.back();
  if (value == nullptr || std::strcmp(value, "batched") == 0) {
    return {DispatchMode::kBatched};
  }
  if (std::strcmp(value, "serial") == 0) return {DispatchMode::kSerial};
  if (std::strcmp(value, "both") == 0) {
    return {DispatchMode::kSerial, DispatchMode::kBatched};
  }
  std::fprintf(stderr, "unknown --dispatch value: %s\n", value);
  std::exit(2);
}

/// Deterministic fault-injection spec for the simulated runs: `--faults
/// SPEC` (docs/ROBUSTNESS.md grammar). Empty (the default) keeps fault
/// injection off — the sweep is then bitwise identical to a faultless
/// build. A faulted sweep is what BENCH_faults.json records: the GDP/GAS
/// baselines ignore faults, so drivers skip them when a spec is set.
inline std::string BenchFaultSpec(int argc, char** argv) {
  const std::vector<const char*> values =
      FlagValues(argc, argv, "--faults", "SPEC");
  const char* value = values.empty() ? nullptr : values.back();
  if (value == nullptr) return "";
  Result<FaultSpec> parsed = ParseFaultSpec(value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --faults value: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return value;
}

/// For drivers that run one engine per invocation: like BenchDispatchModes
/// but rejects `both` loudly instead of silently dropping a mode.
inline DispatchMode SingleDispatchMode(int argc, char** argv) {
  std::vector<DispatchMode> modes = BenchDispatchModes(argc, argv);
  if (modes.size() != 1) {
    std::fprintf(stderr,
                 "--dispatch both is only supported by bench_fig3_vary_n; "
                 "pick serial or batched\n");
    std::exit(2);
  }
  return modes.front();
}

/// Machine-readable sweep output (`--json FILE`): one JSON array of
/// records, one record per (sweep value, algorithm) cell, written at
/// process exit. BENCH_dispatch.json in the repo root is produced this way
/// (CMake target `bench_dispatch_json`), and the golden-record ctests
/// (check_golden_record.cmake) compare fresh records with it.
struct JsonSink {
  std::string path;
  int threads = 1;
  const char* dispatch = "batched";
  std::string faults;  ///< Fault spec of the sweep ("" = faults off).
  std::vector<std::string> records;

  ~JsonSink() { Flush(); }

  void Flush() {
    if (path.empty() || records.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < records.size(); ++i) {
      std::fprintf(f, "  %s%s\n", records[i].c_str(),
                   i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    records.clear();
  }
};

inline JsonSink& BenchJson() {
  static JsonSink sink;
  return sink;
}

inline std::string BenchJsonPath(int argc, char** argv) {
  const std::vector<const char*> values =
      FlagValues(argc, argv, "--json", "FILE");
  return values.empty() ? "" : values.front();
}

/// Chrome trace-event output for the simulated runs: `--trace FILE`
/// (docs/OBSERVABILITY.md). The recorder is global and accumulates across
/// runs, and every traced run re-exports the whole buffer, so FILE ends up
/// covering the full sweep on one timeline. Run-neutral: metrics are
/// bitwise identical with or without it.
inline std::string BenchTracePath(int argc, char** argv) {
  const std::vector<const char*> values =
      FlagValues(argc, argv, "--trace", "FILE");
  return values.empty() ? "" : values.front();
}

/// Per-round timeline output: `--timeline FILE` (JSON, or CSV when FILE
/// ends in ".csv"). The sampler is per-platform, so each run overwrites
/// FILE and the last simulated run of the sweep wins — point a sweep of
/// one cell at it, or use watter_cli for a single run. Run-neutral like
/// the trace.
inline std::string BenchTimelinePath(int argc, char** argv) {
  const std::vector<const char*> values =
      FlagValues(argc, argv, "--timeline", "FILE");
  return values.empty() ? "" : values.front();
}

/// Baseline workload for a dataset at the reproduction scale. Defaults
/// mirror Table III's italicized values: n = base, m = 5k-scaled, tau = 1.6,
/// Kw = 4.
///
/// The city and time window are sized so that the *spatio-temporal order
/// density* (arrivals per cell-hour), not just the n/m ratio, is in the
/// paper's regime: at the paper's 30k-125k orders/day nearly every order
/// finds pooling partners, and that density is what makes waiting pay off.
/// A naive 30x scale-down of n alone would leave most orders partnerless
/// and flip the comparison (see docs/ARCHITECTURE.md, "Design decisions").
inline WorkloadOptions BaseWorkload(DatasetKind dataset) {
  WorkloadOptions options;
  options.dataset = dataset;
  options.num_orders = dataset == DatasetKind::kNyc ? 3000 : 1500;
  options.num_workers = 150;
  options.tau = 1.6;
  options.eta = 0.8;
  options.max_capacity = 4;
  options.duration = 2.0 * 3600.0;
  options.city_width = 24;
  options.city_height = 24;
  // One fixed city per dataset (training and evaluation share roads).
  options.city_seed = 50000 + static_cast<uint64_t>(dataset) * 101;
  options.seed = 424242;  // Evaluation day.
  return options;
}

/// Named algorithm runner.
struct Algorithm {
  std::string name;
  std::function<MetricsReport(Scenario*)> run;
};

/// Trains a WATTER-expect model for workloads shaped like `base`, its
/// training days run with `sim`.
inline Result<ExpectModel> TrainExpect(const WorkloadOptions& base,
                                       const SimOptions& sim = {}) {
  ExpectTrainOptions train;
  train.bootstrap_days = 1;
  train.behavior_days = 2;
  train.epochs = 2;
  train.sim = sim;
  return TrainExpectModel(base, train);
}

/// The paper's algorithm family. `model` may be null (quick mode): then
/// WATTER-expect and WATTER-gmm are omitted. `sim` selects the dispatch
/// engine (and any other platform knob) for the WATTER strategies; the
/// GDP/GAS baselines have their own loops and ignore it — pass
/// `with_baselines = false` on all but the first engine of a multi-engine
/// sweep so they are not re-run (and re-recorded) with numbers the knob
/// cannot change.
inline std::vector<Algorithm> AlgorithmFamily(const ExpectModel* model,
                                              const SimOptions& sim = {},
                                              bool with_baselines = true) {
  std::vector<Algorithm> algorithms;
  if (model != nullptr) {
    algorithms.push_back({"WATTER-expect", [model, sim](Scenario* s) {
                            auto provider = model->MakeProvider();
                            return RunWatter(s, provider.get(), sim);
                          }});
    algorithms.push_back({"WATTER-gmm", [model, sim](Scenario* s) {
                            GmmThresholdProvider provider(*model->mixture);
                            return RunWatter(s, &provider, sim);
                          }});
  }
  algorithms.push_back({"WATTER-online", [sim](Scenario* s) {
                          OnlineThresholdProvider provider;
                          return RunWatter(s, &provider, sim);
                        }});
  algorithms.push_back({"WATTER-timeout", [sim](Scenario* s) {
                          TimeoutThresholdProvider provider;
                          return RunWatter(s, &provider, sim);
                        }});
  if (with_baselines) {
    algorithms.push_back({"GDP", [](Scenario* s) { return RunGdp(s); }});
    algorithms.push_back({"GAS", [](Scenario* s) { return RunGas(s); }});
  }
  return algorithms;
}

/// One metric extracted from a report.
struct MetricColumn {
  const char* title;
  std::function<double(const MetricsReport&)> get;
  int precision;
};

/// The paper's four measurements. "Extra Time" is the METRS objective
/// (served extra time + rejection penalties, Equation 2).
inline std::vector<MetricColumn> PaperMetrics() {
  return {
      {"Extra Time (s)",
       [](const MetricsReport& r) { return r.metrs_objective; }, 0},
      {"Unified Cost",
       [](const MetricsReport& r) { return r.unified_cost; }, 0},
      {"Service Rate (%)",
       [](const MetricsReport& r) { return r.service_rate * 100.0; }, 1},
      {"Running Time (us/order)",
       [](const MetricsReport& r) {
         return r.running_time_per_order * 1e6;
       },
       1},
  };
}

/// Prints one table per paper metric, titled "-- `prefix`<metric>`suffix`
/// --": `headers` over one row per entry of `rows`, whose cells are that
/// metric of `results[row][column]`. Every table reads the same reports, so
/// the running times come from the runs the other tables show.
inline void PrintPaperTables(
    const std::string& prefix, const std::string& suffix,
    const std::vector<std::string>& headers,
    const std::vector<std::string>& rows,
    const std::vector<std::vector<MetricsReport>>& results) {
  for (const MetricColumn& metric : PaperMetrics()) {
    std::printf("-- %s%s%s --\n", prefix.c_str(), metric.title,
                suffix.c_str());
    Table table(headers);
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<std::string> row = {rows[r]};
      for (const MetricsReport& report : results[r]) {
        row.push_back(Table::Num(metric.get(report), metric.precision));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
}

/// Runs `algorithms` over scenarios produced per sweep value and prints the
/// figure-style tables. `make_options` maps a sweep value to workload
/// options; `sweep_label` names the x-axis (e.g. "n", "m", "tau").
template <typename SweepValue>
void RunSweep(const std::string& figure, DatasetKind dataset,
              const std::string& sweep_label,
              const std::vector<SweepValue>& values,
              const std::function<WorkloadOptions(SweepValue)>& make_options,
              const std::vector<Algorithm>& algorithms) {
  // results[value][algorithm].
  std::vector<std::vector<MetricsReport>> results;
  for (SweepValue value : values) {
    results.emplace_back();
    for (const Algorithm& algorithm : algorithms) {
      WorkloadOptions options = make_options(value);
      auto scenario = GenerateScenario(options);
      if (!scenario.ok()) {
        std::fprintf(stderr, "scenario failed: %s\n",
                     scenario.status().ToString().c_str());
        std::exit(1);
      }
      results.back().push_back(algorithm.run(&*scenario));
      if (!BenchJson().path.empty()) {
        // The cell's keys, then every report field (metrics.h).
        JsonSink& sink = BenchJson();
        sink.records.push_back(
            "{\"figure\": \"" + figure + "\", \"dataset\": \"" +
            DatasetName(dataset) + "\", \"sweep\": \"" + sweep_label +
            "\", \"value\": " + std::to_string(value) +
            ", \"algorithm\": \"" + algorithm.name +
            "\", \"threads\": " + std::to_string(sink.threads) +
            ", \"dispatch\": \"" + sink.dispatch + "\", \"faults\": \"" +
            sink.faults + "\", " + ReportFieldsJson(results.back().back()) +
            "}");
      }
    }
  }
  std::vector<std::string> headers = {sweep_label};
  for (const Algorithm& algorithm : algorithms) {
    headers.push_back(algorithm.name);
  }
  std::vector<std::string> rows;
  for (SweepValue value : values) rows.push_back(std::to_string(value));
  PrintPaperTables(figure + " | " + DatasetName(dataset) + " | ",
                   " (rows: " + sweep_label + ")", headers, rows, results);
}

/// Datasets to sweep: all three, or just CDC in quick mode.
inline std::vector<DatasetKind> BenchDatasets(bool quick) {
  if (quick) return {DatasetKind::kCdc};
  return {DatasetKind::kNyc, DatasetKind::kCdc, DatasetKind::kXia};
}

/// Like BenchDatasets(quick), but `--datasets nyc|cdc|xia` narrows the
/// sweep to one dataset, so a full-scale engine A/B fits the 1-core
/// recording box without dropping sweep points.
inline std::vector<DatasetKind> BenchDatasets(int argc, char** argv,
                                              bool quick) {
  const std::vector<const char*> values =
      FlagValues(argc, argv, "--datasets", "nyc|cdc|xia|all");
  const char* value = values.empty() ? nullptr : values.back();
  if (value == nullptr || std::strcmp(value, "all") == 0) {
    return BenchDatasets(quick);
  }
  if (std::strcmp(value, "nyc") == 0) return {DatasetKind::kNyc};
  if (std::strcmp(value, "cdc") == 0) return {DatasetKind::kCdc};
  if (std::strcmp(value, "xia") == 0) return {DatasetKind::kXia};
  std::fprintf(stderr, "unknown --datasets value: %s\n", value);
  std::exit(2);
}

}  // namespace bench
}  // namespace watter

#endif  // WATTER_BENCH_BENCH_UTIL_H_
