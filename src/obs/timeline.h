// TimelineSampler: one RoundSample per platform check round, capturing what
// the simulation looked like (pool size, shareability edges),
// what the round did (one delta column per report counter), and where
// its wall-clock went (per-phase durations). Exported as JSON or CSV via
// `--timeline FILE`; schema documented in docs/OBSERVABILITY.md.
//
// Unlike the trace (every span, per thread), the timeline is a fixed few
// hundred bytes per round regardless of scale, so it is the right tool for
// paper-scale profiles where a full trace would be gigabytes.
//
// The counter columns are named by the platform at construction (metrics.h,
// VisitCounters), so obs needs no core header and sits below every module
// that samples or traces.
#ifndef WATTER_OBS_TIMELINE_H_
#define WATTER_OBS_TIMELINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace watter {
namespace obs {

/// Everything recorded about one check round. Wall-clock fields (`*_s`) are
/// diagnostic only; the counter columns the report marks exact (metrics.h,
/// VisitExactFields) are bitwise identical across threads and tracing.
struct RoundSample {
  int64_t round = 0;
  double now = 0.0;  ///< Simulation time of the check (seconds).

  // State at the end of the round.
  int64_t pool_size = 0;
  int64_t shareability_edges = 0;

  /// This round's delta of each report counter, in the order of
  /// TimelineSampler::counter_names().
  std::vector<int64_t> counters;

  // Per-phase wall-clock (seconds). The serial engine folds its whole
  // decision loop into commit_s (it has no propose/resolve split).
  double maintenance_s = 0.0;
  double refresh_s = 0.0;
  double propose_s = 0.0;
  double resolve_s = 0.0;
  double commit_s = 0.0;
  double sweep_s = 0.0;
  double total_s = 0.0;
};

/// Collects RoundSamples (single-threaded: the platform's event loop is the
/// only writer) and exports them. Also aggregates totals for benches.
class TimelineSampler {
 public:
  explicit TimelineSampler(std::vector<std::string> counter_names)
      : counter_names_(std::move(counter_names)) {}

  /// Stores `sample`, its counters padded or cut to one per column.
  void Record(RoundSample sample) {
    sample.counters.resize(counter_names_.size());
    samples_.push_back(std::move(sample));
  }

  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  const std::vector<RoundSample>& samples() const { return samples_; }

  /// Column-wise sums (round holds the count, now the last sim time,
  /// pool_size / shareability_edges the max seen).
  RoundSample Totals() const;

  /// Writes {"rounds": [...], "totals": {...}} as JSON. Returns false if
  /// the file cannot be written.
  bool WriteJson(const std::string& path) const;

  /// One header row plus one row per sample, same field order as the JSON.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> counter_names_;
  std::vector<RoundSample> samples_;
};

}  // namespace obs
}  // namespace watter

#endif  // WATTER_OBS_TIMELINE_H_
