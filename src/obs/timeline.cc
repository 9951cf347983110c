#include "src/obs/timeline.h"

#include <algorithm>
#include <cstdio>

namespace watter {
namespace obs {

namespace {

struct PhaseField {
  const char* name;
  double RoundSample::*seconds;
};

constexpr PhaseField kPhases[] = {
    {"maintenance_s", &RoundSample::maintenance_s},
    {"refresh_s", &RoundSample::refresh_s},
    {"propose_s", &RoundSample::propose_s},
    {"resolve_s", &RoundSample::resolve_s},
    {"commit_s", &RoundSample::commit_s},
    {"sweep_s", &RoundSample::sweep_s},
    {"total_s", &RoundSample::total_s},
};

// Calls emit(name, value) for every column of `sample` in export order:
// state, counters, phase times. Shared by the JSON and CSV writers so the
// two stay in sync.
template <typename Emit>
void ForEachColumn(const std::vector<std::string>& counter_names,
                   const RoundSample& sample, Emit&& emit) {
  emit("round", sample.round);
  emit("now", sample.now);
  emit("pool_size", sample.pool_size);
  emit("shareability_edges", sample.shareability_edges);
  for (size_t i = 0; i < counter_names.size(); ++i) {
    emit(counter_names[i].c_str(), sample.counters[i]);
  }
  for (const PhaseField& phase : kPhases) {
    emit(phase.name, sample.*phase.seconds);
  }
}

void PrintValue(std::FILE* f, int64_t value) {
  std::fprintf(f, "%lld", static_cast<long long>(value));
}

void PrintValue(std::FILE* f, double value) { std::fprintf(f, "%.9g", value); }

void PrintSampleJson(std::FILE* f, const std::vector<std::string>& names,
                     const RoundSample& sample) {
  const char* separator = "{";
  ForEachColumn(names, sample, [&](const char* name, auto value) {
    std::fprintf(f, "%s\"%s\": ", separator, name);
    PrintValue(f, value);
    separator = ", ";
  });
  std::fprintf(f, "}");
}

}  // namespace

RoundSample TimelineSampler::Totals() const {
  RoundSample totals;
  totals.round = static_cast<int64_t>(samples_.size());
  totals.counters.assign(counter_names_.size(), 0);
  for (const RoundSample& sample : samples_) {
    totals.now = sample.now;
    totals.pool_size = std::max(totals.pool_size, sample.pool_size);
    totals.shareability_edges =
        std::max(totals.shareability_edges, sample.shareability_edges);
    for (size_t i = 0; i < totals.counters.size(); ++i) {
      totals.counters[i] += sample.counters[i];
    }
    for (const PhaseField& phase : kPhases) {
      totals.*phase.seconds += sample.*phase.seconds;
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
    PrintSampleJson(f, counter_names_, samples_[i]);
  }
  std::fprintf(f, "\n],\n\"totals\": ");
  PrintSampleJson(f, counter_names_, Totals());
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

bool TimelineSampler::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // The header row: column names only, so any sample with a full counter
  // vector serves.
  const char* separator = "";
  ForEachColumn(counter_names_, Totals(), [&](const char* name, auto) {
    std::fprintf(f, "%s%s", separator, name);
    separator = ",";
  });
  for (const RoundSample& sample : samples_) {
    separator = "\n";
    ForEachColumn(counter_names_, sample, [&](const char*, auto value) {
      std::fprintf(f, "%s", separator);
      PrintValue(f, value);
      separator = ",";
    });
  }
  std::fprintf(f, "\n");
  std::fclose(f);
  return true;
}

}  // namespace obs
}  // namespace watter
