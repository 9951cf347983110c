// Deterministic fault injection for the simulation platform.
//
// A FaultSpec (parsed from the `--faults key=value;...` grammar, see
// docs/ROBUSTNESS.md) describes a population of fault events: worker
// dropouts and returns, late dropouts, and oracle brownout windows.
// FaultInjector expands the spec into a concrete event schedule up front,
// as a pure function of (spec, fleet size, arrival window) driven by the
// spec's own seeded RNG stream — never the platform's — so the same spec
// yields the same schedule on every engine and thread count. The platform
// consumes events serially at round boundaries (TakeDue) and between
// conflict resolution and commit (TakeLateDue), which keeps faulted runs
// bitwise deterministic.
#ifndef WATTER_SIM_FAULT_INJECTOR_H_
#define WATTER_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/types.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {

/// Parsed `--faults` specification. All fields have inert defaults: a
/// default-constructed (or empty-string-parsed) spec schedules nothing and
/// the platform runs byte-for-byte as if fault injection did not exist.
struct FaultSpec {
  /// Seed for the injector's private RNG stream (never the platform's).
  uint64_t seed = 0xFA1157ULL;

  /// Worker dropout events applied at round boundaries. Each takes one
  /// worker offline (idle or mid-route) and schedules a matching return.
  int dropouts = 0;

  /// Dropouts applied *between* conflict resolution and commit — the
  /// narrow window where a resolved winner can lose its worker. These
  /// exercise the recoverable aborted-commit path.
  int late_dropouts = 0;

  /// Mean offline duration in seconds; actual durations draw uniformly
  /// from [0.5, 1.5) x downtime.
  double downtime = 900.0;

  /// Deadline extension (seconds) granted to aboard-but-unserved riders
  /// re-pooled after their worker drops out.
  double grace = 600.0;

  /// Oracle brownout windows: while one is open every travel-time answer
  /// is scaled by brownout_factor (degraded, but still deterministic).
  int brownouts = 0;

  /// Brownout window length in seconds.
  double brownout_len = 120.0;

  /// Cost multiplier while a brownout window is open. Must be > 0;
  /// 1.0 makes brownouts observable-only.
  double brownout_factor = 1.5;

  /// True when any event is scheduled (brownouts included).
  bool any() const {
    return dropouts > 0 || late_dropouts > 0 || brownouts > 0;
  }

  /// True when any worker dropout (regular or late) is scheduled.
  bool has_dropouts() const { return dropouts > 0 || late_dropouts > 0; }
};

/// Parses the `key=value[;key=value...]` fault grammar (`,` also accepted
/// as a separator; empty string yields the inert default spec). Unknown
/// keys, malformed numbers, and out-of-domain values are InvalidArgument.
Result<FaultSpec> ParseFaultSpec(const std::string& spec);

/// Renders a spec back to canonical `key=value;...` form (only non-default
/// fields; empty string for an inert spec). Round-trips through
/// ParseFaultSpec.
std::string FaultSpecToString(const FaultSpec& spec);

enum class FaultKind {
  kDropout,        // Worker goes offline at a round boundary.
  kReturn,         // Offline worker comes back online.
  kBrownoutStart,  // Oracle degradation window opens.
  kBrownoutEnd,    // Oracle degradation window closes.
  kLateDropout,    // Worker goes offline between resolve and commit.
};

struct FaultEvent {
  Time time = 0.0;
  FaultKind kind = FaultKind::kDropout;
  WorkerId worker = 0;  // Dropout/return events only; 0 otherwise.
};

/// Expands a FaultSpec into a concrete, time-sorted event schedule and
/// hands events to the platform as simulation time passes. The schedule
/// is computed entirely in the constructor from the spec's private RNG
/// stream, so it is identical across engines and thread counts by
/// construction.
class FaultInjector {
 public:
  /// `num_workers` bounds the worker ids drawn for dropouts; event times
  /// are drawn uniformly from [start, start + horizon) — the simulated
  /// time window, which need not begin at zero (workloads sample release
  /// times as time-of-day). All three must be derived from workload
  /// options only, never from run-dependent state.
  FaultInjector(const FaultSpec& spec, int num_workers, double horizon,
                double start = 0.0);

  /// Returns (once each) every round-boundary event with time <= now, in
  /// (time, generation) order. Call serially.
  std::vector<FaultEvent> TakeDue(Time now);

  /// Returns (once each) every late-dropout event with time <= now. Call
  /// serially, after conflict resolution and before commit.
  std::vector<FaultEvent> TakeLateDue(Time now);

  const FaultSpec& spec() const { return spec_; }
  const std::vector<FaultEvent>& events() const { return events_; }
  const std::vector<FaultEvent>& late_events() const { return late_events_; }

 private:
  FaultSpec spec_;
  std::vector<FaultEvent> events_;       // Round-boundary events, sorted.
  std::vector<FaultEvent> late_events_;  // Resolve/commit-window events.
  size_t next_ = 0;
  size_t next_late_ = 0;
};

/// Delegating oracle that scales every finite travel-time answer by a
/// factor while a brownout window is open. With factor 1.0 every call
/// forwards untouched, so an idle wrapper is bitwise transparent.
///
/// SetFactor is only called from the platform's serial fault phase (no
/// parallel work in flight), so the factor needs no synchronization with
/// the parallel propose/refresh loops that read costs.
class DegradedOracle : public TravelTimeOracle {
 public:
  explicit DegradedOracle(TravelTimeOracle* inner) : inner_(inner) {}

  void SetFactor(double factor) { factor_ = factor; }

  double Cost(NodeId from, NodeId to) override;
  void ManyToOne(std::span<const NodeId> sources, NodeId target,
                 std::span<double> out) override;
  void OneToMany(NodeId source, std::span<const NodeId> targets,
                 std::span<double> out) override;
  void ManyToMany(std::span<const NodeId> sources,
                  std::span<const NodeId> targets,
                  std::span<double> out) override;
  bool NativeBatch() const override { return inner_->NativeBatch(); }
  double bucket_build_seconds() const override {
    return inner_->bucket_build_seconds();
  }

 private:
  void ScaleInPlace(std::span<double> out) const;

  TravelTimeOracle* inner_;  // Borrowed; counts queries itself.
  double factor_ = 1.0;
};

}  // namespace watter

#endif  // WATTER_SIM_FAULT_INJECTOR_H_
