#include "src/obs/timeline.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/histogram_registry.h"

namespace watter {
namespace obs {

namespace {

// Field table shared by the JSON and CSV writers so the two stay in sync
// (and so Totals() aggregates every field without a hand-maintained list).
struct FieldDef {
  const char* name;
  // Accessors; exactly one of the two is used per field.
  int64_t RoundSample::*i64 = nullptr;
  double RoundSample::*f64 = nullptr;
  // How Totals() folds the column: sum, max, or keep-last.
  enum class Fold { kSum, kMax, kLast } fold = Fold::kSum;
};

constexpr FieldDef::Fold kSum = FieldDef::Fold::kSum;
constexpr FieldDef::Fold kMax = FieldDef::Fold::kMax;
constexpr FieldDef::Fold kLast = FieldDef::Fold::kLast;

const FieldDef kFields[] = {
    {"round", &RoundSample::round, nullptr, kLast},
    {"now", nullptr, &RoundSample::now, kLast},
    {"pool_size", &RoundSample::pool_size, nullptr, kMax},
    {"shareability_edges", &RoundSample::shareability_edges, nullptr, kMax},
    {"offers", &RoundSample::offers, nullptr, kSum},
    {"committed", &RoundSample::committed, nullptr, kSum},
    {"worker_conflicts", &RoundSample::worker_conflicts, nullptr, kSum},
    {"order_conflicts", &RoundSample::order_conflicts, nullptr, kSum},
    {"planner_plans", &RoundSample::planner_plans, nullptr, kSum},
    {"pair_tests", &RoundSample::pair_tests, nullptr, kSum},
    {"recomputes", &RoundSample::recomputes, nullptr, kSum},
    {"plan_cache_hits", &RoundSample::plan_cache_hits, nullptr, kSum},
    {"plan_cache_misses", &RoundSample::plan_cache_misses, nullptr, kSum},
    {"geo_queries", &RoundSample::geo_queries, nullptr, kSum},
    {"geo_batches", &RoundSample::geo_batches, nullptr, kSum},
    {"fault_events", &RoundSample::fault_events, nullptr, kSum},
    {"recovered", &RoundSample::recovered, nullptr, kSum},
    {"failed", &RoundSample::failed, nullptr, kSum},
    {"shed", &RoundSample::shed, nullptr, kSum},
    {"degraded", &RoundSample::degraded, nullptr, kSum},
    {"work_units", &RoundSample::work_units, nullptr, kSum},
    {"maintenance_s", nullptr, &RoundSample::maintenance_s, kSum},
    {"refresh_s", nullptr, &RoundSample::refresh_s, kSum},
    {"propose_s", nullptr, &RoundSample::propose_s, kSum},
    {"resolve_s", nullptr, &RoundSample::resolve_s, kSum},
    {"commit_s", nullptr, &RoundSample::commit_s, kSum},
    {"sweep_s", nullptr, &RoundSample::sweep_s, kSum},
    {"total_s", nullptr, &RoundSample::total_s, kSum},
};

void PrintSampleJson(std::FILE* f, const RoundSample& sample) {
  std::fprintf(f, "{");
  bool first = true;
  for (const FieldDef& field : kFields) {
    if (!first) std::fprintf(f, ", ");
    first = false;
    if (field.i64 != nullptr) {
      std::fprintf(f, "\"%s\": %lld", field.name,
                   static_cast<long long>(sample.*(field.i64)));
    } else {
      std::fprintf(f, "\"%s\": %.9g", field.name, sample.*(field.f64));
    }
  }
  std::fprintf(f, "}");
}

}  // namespace

RoundSample TimelineSampler::Totals() const {
  RoundSample totals;
  totals.round = static_cast<int64_t>(samples_.size());
  for (const RoundSample& sample : samples_) {
    for (const FieldDef& field : kFields) {
      if (field.i64 == &RoundSample::round) continue;  // Holds the count.
      switch (field.fold) {
        case FieldDef::Fold::kSum:
          if (field.i64 != nullptr) {
            totals.*(field.i64) += sample.*(field.i64);
          } else {
            totals.*(field.f64) += sample.*(field.f64);
          }
          break;
        case FieldDef::Fold::kMax:
          if (field.i64 != nullptr) {
            totals.*(field.i64) =
                std::max(totals.*(field.i64), sample.*(field.i64));
          } else {
            totals.*(field.f64) =
                std::max(totals.*(field.f64), sample.*(field.f64));
          }
          break;
        case FieldDef::Fold::kLast:
          if (field.i64 != nullptr) {
            totals.*(field.i64) = sample.*(field.i64);
          } else {
            totals.*(field.f64) = sample.*(field.f64);
          }
          break;
      }
    }
  }
  return totals;
}

bool TimelineSampler::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"rounds\": [\n");
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (i > 0) std::fprintf(f, ",\n");
    PrintSampleJson(f, samples_[i]);
  }
  std::fprintf(f, "\n],\n\"totals\": ");
  PrintSampleJson(f, Totals());
  // When the latency registry ran alongside the timeline, fold its
  // summaries into the same file so one artifact tells the whole story.
  std::fprintf(f, ",\n\"histograms\": [");
  bool first = true;
  for (const HistogramSnapshot& snap : HistogramRegistry::Global().Snapshots()) {
    if (!first) std::fprintf(f, ",\n");
    first = false;
    std::fprintf(f,
                 "{\"name\": \"%s\", \"count\": %lld, \"mean\": %.9g, "
                 "\"min\": %.9g, \"max\": %.9g, \"p50\": %.9g, "
                 "\"p90\": %.9g, \"p99\": %.9g}",
                 snap.name.c_str(), static_cast<long long>(snap.count),
                 snap.mean, snap.min, snap.max, snap.p50, snap.p90, snap.p99);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return true;
}

bool TimelineSampler::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool first = true;
  for (const FieldDef& field : kFields) {
    std::fprintf(f, "%s%s", first ? "" : ",", field.name);
    first = false;
  }
  std::fprintf(f, "\n");
  for (const RoundSample& sample : samples_) {
    first = true;
    for (const FieldDef& field : kFields) {
      if (!first) std::fprintf(f, ",");
      first = false;
      if (field.i64 != nullptr) {
        std::fprintf(f, "%lld", static_cast<long long>(sample.*(field.i64)));
      } else {
        std::fprintf(f, "%.9g", sample.*(field.f64));
      }
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return true;
}

}  // namespace obs
}  // namespace watter
