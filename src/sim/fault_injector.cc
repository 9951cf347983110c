#include "src/sim/fault_injector.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/rng.h"

namespace watter {

namespace {

// Parses a strictly numeric field; the full token must be consumed.
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(*out);
}

bool ParseCount(const std::string& text, int* out) {
  double value = 0.0;
  if (!ParseDouble(text, &value)) return false;
  if (value < 0.0 || value != std::floor(value) || value > 1e9) return false;
  *out = static_cast<int>(value);
  return true;
}

// Decimal, octal or hex (the default is 0xFA1157). strtoull would negate a
// leading '-' and saturate on overflow, so a sign and ERANGE are rejected.
bool ParseSeed(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_of("+-") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 0);
  return errno != ERANGE && end == text.c_str() + text.size();
}

}  // namespace

Result<FaultSpec> ParseFaultSpec(const std::string& spec) {
  FaultSpec out;
  std::vector<std::string> keys;  // Seen so far: each key may appear once.
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t sep = spec.find_first_of(";,", pos);
    if (sep == std::string::npos) sep = spec.size();
    std::string clause = spec.substr(pos, sep - pos);
    pos = sep + 1;
    // Trim surrounding whitespace.
    size_t b = clause.find_first_not_of(" \t");
    size_t e = clause.find_last_not_of(" \t");
    if (b == std::string::npos) continue;  // Empty clause: tolerated.
    clause = clause.substr(b, e - b + 1);
    size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault clause '" + clause +
                                     "' is not key=value");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
      return Status::InvalidArgument("fault key '" + key + "' is repeated");
    }
    keys.push_back(key);
    bool ok = true;
    if (key == "seed") {
      ok = ParseSeed(value, &out.seed);
    } else if (key == "dropouts") {
      ok = ParseCount(value, &out.dropouts);
    } else if (key == "late_dropouts") {
      ok = ParseCount(value, &out.late_dropouts);
    } else if (key == "downtime") {
      ok = ParseDouble(value, &out.downtime) && out.downtime >= 0.0;
    } else if (key == "grace") {
      ok = ParseDouble(value, &out.grace) && out.grace >= 0.0;
    } else if (key == "brownouts") {
      ok = ParseCount(value, &out.brownouts);
    } else if (key == "brownout_len") {
      ok = ParseDouble(value, &out.brownout_len) && out.brownout_len > 0.0;
    } else if (key == "brownout_factor") {
      ok = ParseDouble(value, &out.brownout_factor) &&
           out.brownout_factor > 0.0;
    } else {
      return Status::InvalidArgument("unknown fault key '" + key + "'");
    }
    if (!ok) {
      return Status::InvalidArgument("bad value for fault key '" + key +
                                     "': '" + value + "'");
    }
  }
  return out;
}

std::string FaultSpecToString(const FaultSpec& spec) {
  const FaultSpec defaults;
  std::string out;
  auto add = [&out](const std::string& clause) {
    if (!out.empty()) out += ';';
    out += clause;
  };
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  if (spec.seed != defaults.seed) add("seed=" + std::to_string(spec.seed));
  if (spec.dropouts) add("dropouts=" + std::to_string(spec.dropouts));
  if (spec.late_dropouts) {
    add("late_dropouts=" + std::to_string(spec.late_dropouts));
  }
  if (spec.downtime != defaults.downtime) add("downtime=" + num(spec.downtime));
  if (spec.grace != defaults.grace) add("grace=" + num(spec.grace));
  if (spec.brownouts) add("brownouts=" + std::to_string(spec.brownouts));
  if (spec.brownout_len != defaults.brownout_len) {
    add("brownout_len=" + num(spec.brownout_len));
  }
  if (spec.brownout_factor != defaults.brownout_factor) {
    add("brownout_factor=" + num(spec.brownout_factor));
  }
  return out;
}

FaultInjector::FaultInjector(const FaultSpec& spec, int num_workers,
                             double horizon, double start)
    : spec_(spec) {
  Rng rng(spec.seed);
  // Fork order is part of the schedule contract: adding a fault type later
  // must append a fork, never reorder these.
  Rng drop_rng = rng.Fork();
  Rng brown_rng = rng.Fork();
  // Slot of a retired fault kind (pipeline stalls). The fork stays so that
  // late_rng, and with it every late-dropout schedule, keeps its stream.
  rng.Fork();
  Rng late_rng = rng.Fork();

  if (num_workers > 0) {
    for (int i = 0; i < spec.dropouts; ++i) {
      FaultEvent down;
      down.time = start + drop_rng.Uniform(0.0, horizon);
      down.kind = FaultKind::kDropout;
      down.worker =
          static_cast<WorkerId>(drop_rng.UniformInt(1, num_workers));
      events_.push_back(down);
      FaultEvent up = down;
      up.time = down.time + drop_rng.Uniform(0.5, 1.5) * spec.downtime;
      up.kind = FaultKind::kReturn;
      events_.push_back(up);
    }
  }
  for (int i = 0; i < spec.brownouts; ++i) {
    FaultEvent open;
    open.time = start + brown_rng.Uniform(0.0, horizon);
    open.kind = FaultKind::kBrownoutStart;
    events_.push_back(open);
    FaultEvent close = open;
    close.time = open.time + spec.brownout_len;
    close.kind = FaultKind::kBrownoutEnd;
    events_.push_back(close);
  }
  if (num_workers > 0) {
    for (int i = 0; i < spec.late_dropouts; ++i) {
      FaultEvent drop;
      drop.time = start + late_rng.Uniform(0.0, horizon);
      drop.kind = FaultKind::kLateDropout;
      drop.worker =
          static_cast<WorkerId>(late_rng.UniformInt(1, num_workers));
      late_events_.push_back(drop);
    }
  }
  // stable_sort keeps generation order among same-time events, so the
  // schedule is a pure function of the spec.
  auto by_time = [](const FaultEvent& a, const FaultEvent& b) {
    return a.time < b.time;
  };
  std::stable_sort(events_.begin(), events_.end(), by_time);
  std::stable_sort(late_events_.begin(), late_events_.end(), by_time);
}

std::vector<FaultEvent> FaultInjector::TakeDue(Time now) {
  std::vector<FaultEvent> due;
  while (next_ < events_.size() && events_[next_].time <= now) {
    due.push_back(events_[next_++]);
  }
  return due;
}

std::vector<FaultEvent> FaultInjector::TakeLateDue(Time now) {
  std::vector<FaultEvent> due;
  while (next_late_ < late_events_.size() && late_events_[next_late_].time <= now) {
    due.push_back(late_events_[next_late_++]);
  }
  return due;
}

void DegradedOracle::ScaleInPlace(std::span<double> out) const {
  if (factor_ == 1.0) return;
  for (double& v : out) {
    if (v != kInfCost) v *= factor_;
  }
}

double DegradedOracle::Cost(NodeId from, NodeId to) {
  double v = inner_->Cost(from, to);
  if (factor_ != 1.0 && v != kInfCost) v *= factor_;
  return v;
}

void DegradedOracle::ManyToOne(std::span<const NodeId> sources, NodeId target,
                               std::span<double> out) {
  inner_->ManyToOne(sources, target, out);
  ScaleInPlace(out);
}

void DegradedOracle::OneToMany(NodeId source, std::span<const NodeId> targets,
                               std::span<double> out) {
  inner_->OneToMany(source, targets, out);
  ScaleInPlace(out);
}

void DegradedOracle::ManyToMany(std::span<const NodeId> sources,
                                std::span<const NodeId> targets,
                                std::span<double> out) {
  inner_->ManyToMany(sources, targets, out);
  ScaleInPlace(out);
}

}  // namespace watter
