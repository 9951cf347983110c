// watter_bench: the measuring half of the repeatable WATTER benchmark
// (benchmark/README.md). benchmark/run.py builds and drives it; it can also
// be run by hand:
//
//   watter_bench --workload NAME --seed N [--repeats R] [--seconds S]
//                [--trace 0|1] [--scale F] [--out-dir DIR]
//
// One process measures one workload on min(4, available CPUs) threads. It
// simulates whole days — day d generates its scenario from demand seed
// DaySeed(N, d), so every day starts cold on new demand — until it has run
// `--repeats` days and `--seconds` of wall time have passed. With
// `--trace 1` every day is followed by a traced replay of itself. Each day
// prints one JSON line; the first line carries the one-time setup and the
// last the thread count and toolchain. run.py turns those lines into medians
// and checks them.
//
// Measurement is from outside the program. The traced days wrap the two
// objects a scenario injects into the platform — the travel-time oracle and
// the threshold provider — and otherwise read what the platform already
// exposes: the per-round timeline, the trace recorder's spans and the
// MetricsReport counters. Untraced days run the bare oracle and provider and
// never arm the timeline or the recorder.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/obs/histogram_registry.h"
#include "src/obs/trace.h"
#include "src/rl/trainer.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace {

using namespace watter;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "watter_bench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Workloads (the table in benchmark/README.md).
// ---------------------------------------------------------------------------

enum class Strategy { kOnline, kTimeout, kExpect };

struct Workload {
  const char* name;
  DatasetKind dataset;
  int orders;
  int workers;
  int city;      // Square city side, cells.
  double hours;  // Arrival window from 16:00.
  OracleKind oracle;
  Strategy strategy;
};

constexpr Workload kWorkloads[] = {
    {"nyc-online-matrix", DatasetKind::kNyc, 20000, 2000, 32, 4.0,
     OracleKind::kMatrix, Strategy::kOnline},
    {"nyc-online-ch", DatasetKind::kNyc, 20000, 2000, 32, 4.0,
     OracleKind::kCh, Strategy::kOnline},
    {"cdc-timeout-dense", DatasetKind::kCdc, 6000, 600, 32, 4.0,
     OracleKind::kMatrix, Strategy::kTimeout},
    {"cdc-expect-contended", DatasetKind::kCdc, 3000, 300, 24, 2.0,
     OracleKind::kMatrix, Strategy::kExpect},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Demand seed of day `day` of a run. Days stay below kMaxDays, so measured
// days have seeds below 400 modulo 1000. WATTER-expect trains on fixed days
// (seeds kTrainSeedBase and kTrainSeedBase + 100, see TrainExpectModel) that
// no measured day can draw; its model is part of the workload, like the city.
constexpr int kMaxDays = 400;
constexpr uint64_t kTrainSeedBase = 500;

uint64_t DaySeed(uint64_t run_seed, int day) {
  return run_seed * 1000 + static_cast<uint64_t>(day);
}

WorkloadOptions MakeOptions(const Workload& w, uint64_t seed, double scale,
                            int threads) {
  WorkloadOptions options;
  options.dataset = w.dataset;
  options.num_orders =
      std::max(1, static_cast<int>(std::lround(w.orders * scale)));
  options.num_workers =
      std::max(1, static_cast<int>(std::lround(w.workers * scale)));
  options.city_width = w.city;
  options.city_height = w.city;
  options.duration = w.hours * 3600.0;
  options.start_hour = 16.0;
  options.tau = 1.6;
  options.eta = 0.8;
  options.max_capacity = 4;
  // Set explicitly: the option defaults to the matrix oracle, and the CH
  // workload must never fall back to it silently (checked per day below).
  options.oracle = w.oracle;
  options.geo = GeoBackend::kBucket;
  options.num_threads = threads;
  options.num_shards = 1;
  // The seed draws the demand: orders and worker starts. The road network is
  // one fixed city per dataset, as in the figure benches, so seeds differ in
  // demand only and expect training shares the evaluation city.
  options.seed = seed;
  options.city_seed = 50000 + static_cast<uint64_t>(w.dataset) * 101;
  return options;
}

// ---------------------------------------------------------------------------
// Clock overhead: subtracted from every wrapped call so that timing a
// nanosecond-scale matrix lookup does not report the clock instead.
// ---------------------------------------------------------------------------

int64_t ClockOverheadNs() {
  std::vector<int64_t> samples(4001);
  for (int64_t& sample : samples) {
    Clock::time_point a = Clock::now();
    Clock::time_point b = Clock::now();
    sample =
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }
  std::nth_element(samples.begin(), samples.begin() + 2000, samples.end());
  return samples[2000];
}

int64_t ElapsedNs(Clock::time_point start, int64_t overhead_ns) {
  int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - start)
                   .count() -
               overhead_ns;
  return ns > 0 ? ns : 0;
}

// ---------------------------------------------------------------------------
// Geo layer: a forwarding oracle that times every batch call and one in
// kPointSample point queries. It forwards NativeBatch() and
// bucket_build_seconds(), so the pool takes exactly the batched paths it
// takes on the bare oracle, and results are the inner oracle's, bit for bit.
// Counters live in per-thread slots (one cache line each) so the platform's
// parallel phases do not contend on them.
// ---------------------------------------------------------------------------

class TimedOracle : public TravelTimeOracle {
 public:
  static constexpr int64_t kPointSample = 64;

  struct Totals {
    int64_t point_calls = 0;
    int64_t batch_calls = 0;
    int64_t batch_results = 0;
    double busy_s = 0.0;
  };

  TimedOracle(std::unique_ptr<TravelTimeOracle> inner, int64_t overhead_ns)
      : inner_(std::move(inner)), overhead_ns_(overhead_ns) {}

  double Cost(NodeId from, NodeId to) override {
    Slot& slot = MySlot();
    int64_t n = slot.point_calls.fetch_add(1, std::memory_order_relaxed);
    if (n % kPointSample != 0) return inner_->Cost(from, to);
    Clock::time_point start = Clock::now();
    double cost = inner_->Cost(from, to);
    slot.sampled_ns.fetch_add(ElapsedNs(start, overhead_ns_),
                              std::memory_order_relaxed);
    slot.sampled_calls.fetch_add(1, std::memory_order_relaxed);
    return cost;
  }

  void ManyToOne(std::span<const NodeId> sources, NodeId target,
                 std::span<double> out) override {
    Clock::time_point start = Clock::now();
    inner_->ManyToOne(sources, target, out);
    CountBatch(out.size(), start);
  }

  void OneToMany(NodeId source, std::span<const NodeId> targets,
                 std::span<double> out) override {
    Clock::time_point start = Clock::now();
    inner_->OneToMany(source, targets, out);
    CountBatch(out.size(), start);
  }

  void ManyToMany(std::span<const NodeId> sources,
                  std::span<const NodeId> targets,
                  std::span<double> out) override {
    Clock::time_point start = Clock::now();
    inner_->ManyToMany(sources, targets, out);
    CountBatch(out.size(), start);
  }

  bool NativeBatch() const override { return inner_->NativeBatch(); }

  double bucket_build_seconds() const override {
    return inner_->bucket_build_seconds();
  }

  /// Sums the slots. Quiescent callers only (after the platform's Run).
  Totals Collect() const {
    Totals totals;
    int64_t sampled_calls = 0;
    int64_t sampled_ns = 0;
    int64_t batch_ns = 0;
    for (const Slot& slot : slots_) {
      totals.point_calls += slot.point_calls.load(std::memory_order_relaxed);
      totals.batch_calls += slot.batch_calls.load(std::memory_order_relaxed);
      totals.batch_results +=
          slot.batch_results.load(std::memory_order_relaxed);
      sampled_calls += slot.sampled_calls.load(std::memory_order_relaxed);
      sampled_ns += slot.sampled_ns.load(std::memory_order_relaxed);
      batch_ns += slot.batch_ns.load(std::memory_order_relaxed);
    }
    double point_ns =
        sampled_calls > 0 ? static_cast<double>(sampled_ns) *
                                static_cast<double>(totals.point_calls) /
                                static_cast<double>(sampled_calls)
                          : 0.0;
    totals.busy_s = (static_cast<double>(batch_ns) + point_ns) * 1e-9;
    return totals;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> point_calls{0};
    std::atomic<int64_t> sampled_calls{0};
    std::atomic<int64_t> sampled_ns{0};
    std::atomic<int64_t> batch_calls{0};
    std::atomic<int64_t> batch_results{0};
    std::atomic<int64_t> batch_ns{0};
  };
  static constexpr int kSlots = 64;

  // Threads beyond kSlots share slots; the atomics keep that exact.
  Slot& MySlot() {
    static std::atomic<int> next_thread{0};
    thread_local int index =
        next_thread.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return slots_[index];
  }

  void CountBatch(size_t results, Clock::time_point start) {
    Slot& slot = MySlot();
    slot.batch_ns.fetch_add(ElapsedNs(start, overhead_ns_),
                            std::memory_order_relaxed);
    slot.batch_calls.fetch_add(1, std::memory_order_relaxed);
    slot.batch_results.fetch_add(static_cast<int64_t>(results),
                                 std::memory_order_relaxed);
  }

  std::unique_ptr<TravelTimeOracle> inner_;
  int64_t overhead_ns_;
  Slot slots_[kSlots];
};

// ---------------------------------------------------------------------------
// Strategy layer: a forwarding provider that times every call, clock reads
// included (~30 ns, which only the constant-threshold providers notice). The
// platform queries providers only from its serial threshold prologue, so
// plain counters suffice.
// ---------------------------------------------------------------------------

class TimedThresholds : public ThresholdProvider {
 public:
  explicit TimedThresholds(std::unique_ptr<ThresholdProvider> inner)
      : inner_(std::move(inner)) {}

  double ThresholdFor(const Order& order, Time now,
                      const PoolContext& context) override {
    Clock::time_point start = Clock::now();
    double theta = inner_->ThresholdFor(order, now, context);
    busy_s_ += Seconds(start, Clock::now());
    ++calls_;
    return theta;
  }

  const char* name() const override { return inner_->name(); }

  int64_t calls() const { return calls_; }
  double busy_s() const { return busy_s_; }

 private:
  std::unique_ptr<ThresholdProvider> inner_;
  int64_t calls_ = 0;
  double busy_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Output: one flat JSON object per line. Doubles carry 17 significant digits
// so run.py can compare the deterministic fields bit for bit.
// ---------------------------------------------------------------------------

class JsonLine {
 public:
  JsonLine& Add(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return Raw(key, buf);
  }
  JsonLine& Add(const char* key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Add(const char* key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonLine& Add(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonLine& Add(const char* key, const char* value) {
    std::string quoted = "\"";
    for (const char* p = value; *p != '\0'; ++p) {
      if (*p == '"' || *p == '\\') quoted += '\\';
      if (static_cast<unsigned char>(*p) >= 0x20) quoted += *p;
    }
    return Raw(key, quoted + "\"");
  }
  void Print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  JsonLine& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string body_;
};

// The process's resident-set high-water mark so far, in MB. Read from
// VmHWM rather than getrusage(): ru_maxrss carries over the RSS of the
// process that forked this one (here run.py) across exec.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) Fail("cannot read /proc/self/status");
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(status);
  if (kb < 0) Fail("no VmHWM in /proc/self/status");
  return static_cast<double>(kb) / 1024.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 20240301;
  int repeats = 1;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;
  std::string out_dir = ".";
  // Not a flag: min(4, CPUs this process may run on).
  int threads = 1;
  int64_t clock_overhead_ns = 0;
  const ExpectModel* model = nullptr;  // Set for WATTER-expect only.
};

std::unique_ptr<ThresholdProvider> MakeProvider(const Config& config) {
  if (config.workload->strategy == Strategy::kExpect) {
    return config.model->MakeProvider();
  }
  if (config.workload->strategy == Strategy::kTimeout) {
    return std::make_unique<TimeoutThresholdProvider>();
  }
  return std::make_unique<OnlineThresholdProvider>();
}

// ---------------------------------------------------------------------------
// One simulated day. `replay` marks a day that repeats an earlier day's
// input to check determinism; run.py keeps it out of the medians.
// ---------------------------------------------------------------------------

void RunDay(const Config& config, int day, bool traced, bool replay) {
  const Workload& w = *config.workload;
  WorkloadOptions options = MakeOptions(w, DaySeed(config.seed, day),
                                        config.scale, config.threads);

  Clock::time_point gen_start = Clock::now();
  Result<Scenario> generated = GenerateScenario(options);
  double scenario_s = Seconds(gen_start, Clock::now());
  if (!generated.ok()) Fail("scenario: " + generated.status().ToString());
  Scenario scenario = std::move(generated).value();

  // Oracle guard: the CH workload must really run the batched bucket-CH
  // oracle, and the matrix workloads must not.
  const bool want_native = w.oracle == OracleKind::kCh;
  if (scenario.oracle->NativeBatch() != want_native) {
    Fail(std::string(w.name) + ": oracle NativeBatch() is " +
         (want_native ? "false" : "true") + ", expected the " +
         (want_native ? "bucket-CH" : "matrix") + " oracle");
  }

  std::unique_ptr<ThresholdProvider> provider = MakeProvider(config);
  SimOptions sim;  // Batched engine, one shard, threads from the workload.
  TimedOracle* timed_oracle = nullptr;
  TimedThresholds* timed_thresholds = nullptr;
  double oracle_build_s = 0.0;
  if (traced) {
    // GenerateScenario's oracle build cannot be timed apart from outside,
    // so geo.build_s builds the day's oracle once more and discards it.
    Clock::time_point build_start = Clock::now();
    Result<std::unique_ptr<TravelTimeOracle>> rebuilt =
        BuildOracle(scenario.city->graph, options.oracle, options.geo);
    oracle_build_s = Seconds(build_start, Clock::now());
    if (!rebuilt.ok()) Fail("oracle: " + rebuilt.status().ToString());

    auto oracle = std::make_unique<TimedOracle>(std::move(scenario.oracle),
                                                config.clock_overhead_ns);
    timed_oracle = oracle.get();
    scenario.oracle = std::move(oracle);
    auto thresholds = std::make_unique<TimedThresholds>(std::move(provider));
    timed_thresholds = thresholds.get();
    provider = std::move(thresholds);
    sim.timeline_path = config.out_dir + "/timeline-" + w.name + ".json";
    // Armed here rather than through SimOptions::trace_path so no Chrome
    // trace file is written; spans stay in memory and are summed below. A
    // zero floor keeps every hot span, so job counts are exact.
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Clear();
    recorder.set_hot_min_us(0.0);
    recorder.Enable();
  }

  WatterPlatform platform(&scenario, provider.get(), sim);
  MetricsReport report = platform.Run();
  const int64_t orders = static_cast<int64_t>(scenario.orders.size());
  const int64_t final_pool = static_cast<int64_t>(platform.pool().size());

  JsonLine line;
  line.Add("kind", "day")
      .Add("day", day)
      .Add("traced", traced)
      .Add("replay", replay)
      .Add("scenario_s", scenario_s)
      .Add("orders", orders)
      .Add("served", report.served)
      .Add("rejected", report.rejected)
      .Add("failed_services", report.failed_services)
      .Add("final_pool", final_pool)
      .Add("algorithm_s", report.algorithm_seconds)
      .Add("us_per_order", report.running_time_per_order * 1e6)
      .Add("service_rate", report.service_rate)
      .Add("metrs_objective", report.metrs_objective)
      .Add("unified_cost", report.unified_cost)
      .Add("planner_plans", report.pool.planner_plans)
      .Add("pair_tests", report.pool.pair_tests)
      .Add("peak_rss_mb", PeakRssMb());

  if (traced) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Disable();
    obs::HistogramRegistry::Global().Disable();
    double insert_span_s = 0.0;
    double job_s = 0.0;
    int64_t jobs = 0;
    for (const obs::TraceRecorder::MergedEvent& event : recorder.Snapshot()) {
      if (event.name == "graph.insert") insert_span_s += event.dur_us * 1e-6;
      if (event.name == "threadpool.job") {
        ++jobs;
        job_s += event.dur_us * 1e-6;
      }
    }
    const int64_t dropped = recorder.dropped();
    recorder.Clear();

    const obs::TimelineSampler* timeline = platform.timeline();
    if (timeline == nullptr || timeline->samples().empty()) {
      Fail("traced day ran without a timeline");
    }
    obs::RoundSample totals = timeline->Totals();
    std::vector<double> round_ms;
    int64_t peak_pool = 0;
    for (const obs::RoundSample& sample : timeline->samples()) {
      round_ms.push_back(sample.total_s * 1e3);
      peak_pool = std::max(peak_pool, sample.pool_size);
    }

    TimedOracle::Totals geo = timed_oracle->Collect();
    const int64_t geo_points = geo.point_calls + geo.batch_results;
    const double threshold_s = timed_thresholds->busy_s();
    const DispatchStats& d = report.dispatch;
    const PoolStats& p = report.pool;
    line.Add("dropped_spans", dropped)
        .Add("geo.calls", geo.point_calls + geo.batch_calls)
        .Add("geo.points", geo_points)
        .Add("geo.batch_width",
             Ratio(static_cast<double>(geo.batch_results),
                   static_cast<double>(geo.batch_calls)))
        .Add("geo.busy_s", geo.busy_s)
        .Add("geo.ns_per_point",
             Ratio(geo.busy_s * 1e9, static_cast<double>(geo_points)))
        .Add("geo.busy_share", Ratio(geo.busy_s, report.algorithm_seconds))
        .Add("geo.build_s", oracle_build_s)
        .Add("pool.insert_s", report.algorithm_seconds - totals.total_s)
        .Add("pool.insert_span_s", insert_span_s)
        .Add("pool.refresh_s", totals.refresh_s)
        .Add("pool.maintenance_s", totals.maintenance_s)
        .Add("pool.planner_plans", p.planner_plans)
        .Add("pool.pair_tests", p.pair_tests)
        .Add("pool.groups_evaluated", p.groups_evaluated)
        .Add("pool.plan_cache_hit_ratio",
             Ratio(static_cast<double>(p.plan_cache_hits),
                   static_cast<double>(p.plan_cache_hits +
                                       p.plan_cache_misses)))
        .Add("pool.peak_size", peak_pool)
        .Add("threshold.calls", timed_thresholds->calls())
        .Add("threshold.busy_s", threshold_s)
        .Add("threshold.us_per_call",
             Ratio(threshold_s * 1e6,
                   static_cast<double>(timed_thresholds->calls())))
        .Add("dispatch.propose_s", totals.propose_s - threshold_s)
        .Add("dispatch.resolve_s", totals.resolve_s)
        .Add("dispatch.commit_s", totals.commit_s)
        .Add("dispatch.sweep_s", totals.sweep_s)
        .Add("dispatch.offers", d.offers)
        .Add("dispatch.commit_ratio",
             Ratio(static_cast<double>(d.committed),
                   static_cast<double>(d.offers)))
        .Add("dispatch.worker_conflicts", d.worker_conflicts)
        .Add("dispatch.order_conflicts", d.order_conflicts)
        .Add("sim.rounds", static_cast<int64_t>(round_ms.size()))
        .Add("sim.round_p50_ms", Percentile(round_ms, 0.50))
        .Add("sim.round_p99_ms", Percentile(round_ms, 0.99))
        .Add("threadpool.jobs", jobs)
        .Add("threadpool.busy_s", job_s);
  }
  line.Print();
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      config->workload = FindWorkload(value);
      if (config->workload == nullptr) return false;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--repeats") {
      config->repeats = std::atoi(value);
    } else if (flag == "--seconds") {
      config->seconds = std::atof(value);
    } else if (flag == "--trace") {
      config->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      config->scale = std::atof(value);
    } else if (flag == "--out-dir") {
      config->out_dir = value;
    } else {
      return false;
    }
  }
  return config->workload != nullptr && config->repeats >= 1 &&
         config->repeats <= kMaxDays && config->scale > 0.0;
}

int BenchThreads() {
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return std::clamp(CPU_COUNT(&cpus), 1, 4);
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: watter_bench --workload NAME --seed N [--repeats R] "
                 "[--seconds S] [--trace 0|1] [--scale F] [--out-dir DIR]\n"
                 "workloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *config.workload;
  config.threads = BenchThreads();
  config.clock_overhead_ns = ClockOverheadNs();

  // One-time strategy setup, timed up to the first provider: WATTER-expect
  // trains in the evaluation city on its fixed training days; the
  // constant-threshold strategies learn nothing.
  ExpectModel model;
  Clock::time_point train_start = Clock::now();
  if (w.strategy == Strategy::kExpect) {
    ExpectTrainOptions train;
    train.bootstrap_days = 1;
    train.behavior_days = 1;
    train.epochs = 1;
    train.seed_base = kTrainSeedBase;
    Result<ExpectModel> trained = TrainExpectModel(
        MakeOptions(w, config.seed, config.scale, config.threads), train);
    if (!trained.ok()) Fail("training: " + trained.status().ToString());
    model = std::move(trained).value();
    config.model = &model;
  }
  MakeProvider(config);
  const double train_s = Seconds(train_start, Clock::now());
  JsonLine()
      .Add("kind", "setup")
      .Add("train_s", train_s)
      .Add("clock_overhead_ns", config.clock_overhead_ns)
      .Print();

  // Measure whole days until both the repeat count and the time budget are
  // met. Each day draws new demand, so a run averages over as many demand
  // samples as fit in its time rather than timing one input again and
  // again. A traced day replays the untraced day just before it (the two
  // see the same machine conditions), and an untraced run ends by replaying
  // day 0: either way run.py gets pairs that must agree bit for bit.
  Clock::time_point start = Clock::now();
  int days = 0;
  while (days < kMaxDays &&
         (days < config.repeats ||
          Seconds(start, Clock::now()) < config.seconds)) {
    RunDay(config, days, /*traced=*/false, /*replay=*/false);
    if (config.trace) RunDay(config, days, /*traced=*/true, /*replay=*/true);
    ++days;
  }
  if (!config.trace) RunDay(config, 0, /*traced=*/false, /*replay=*/true);

  JsonLine()
      .Add("kind", "end")
      .Add("measure_s", Seconds(start, Clock::now()))
      .Add("threads", config.threads)
      .Add("compiler", __VERSION__)
#ifdef NDEBUG
      .Add("ndebug", true)
#else
      .Add("ndebug", false)
#endif
      .Print();
  return 0;
}
