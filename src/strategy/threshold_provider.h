// ThresholdProvider: the pluggable heart of the WATTER strategy family.
//
// Algorithm 2 compares a group's average extra time against the average of
// its members' expected thresholds theta(i). Where the thresholds come from
// is what distinguishes the paper's variants:
//   - WATTER-online:  theta = +inf  (dispatch as early as possible),
//   - WATTER-timeout: theta = -inf  (hold until the wait limit),
//   - GMM strategy:   theta = argmax (p - theta) F(theta) from the fitted
//                     extra-time distribution (Section V),
//   - WATTER-expect:  theta = p - V(s) from the learned value function
//                     (Section VI; implemented in src/rl).
#ifndef WATTER_STRATEGY_THRESHOLD_PROVIDER_H_
#define WATTER_STRATEGY_THRESHOLD_PROVIDER_H_

#include <limits>
#include <memory>
#include <vector>

#include "src/core/types.h"
#include "src/stats/threshold_optimizer.h"

namespace watter {

/// Snapshot of the spatio-temporal environment available to providers.
/// Pointers may be null when a provider does not need them.
struct PoolContext {
  /// Waiting-order pickup counts per grid cell (demand distribution sO).
  const std::vector<int>* demand_pickup = nullptr;
  /// Waiting-order drop-off counts per grid cell.
  const std::vector<int>* demand_dropoff = nullptr;
  /// Idle-worker counts per grid cell (supply distribution sW).
  const std::vector<int>* supply = nullptr;
};

/// Supplies the expected extra-time threshold theta(i) per order.
class ThresholdProvider {
 public:
  virtual ~ThresholdProvider() = default;

  /// theta(i) for `order` at decision time `now` in environment `context`.
  virtual double ThresholdFor(const Order& order, Time now,
                              const PoolContext& context) = 0;

  /// Human-readable name used in bench tables.
  virtual const char* name() const = 0;
};

/// WATTER-online: any feasible group is good enough; dispatch immediately.
class OnlineThresholdProvider : public ThresholdProvider {
 public:
  double ThresholdFor(const Order&, Time, const PoolContext&) override {
    return std::numeric_limits<double>::infinity();
  }
  const char* name() const override { return "WATTER-online"; }
};

/// WATTER-timeout: never dispatch by threshold; only the wait-limit rule of
/// Algorithm 2 (line 2) fires.
class TimeoutThresholdProvider : public ThresholdProvider {
 public:
  double ThresholdFor(const Order&, Time, const PoolContext&) override {
    return -std::numeric_limits<double>::infinity();
  }
  const char* name() const override { return "WATTER-timeout"; }
};

/// Fixed threshold in seconds (baseline for ablations).
class FixedThresholdProvider : public ThresholdProvider {
 public:
  explicit FixedThresholdProvider(double theta) : theta_(theta) {}
  double ThresholdFor(const Order&, Time, const PoolContext&) override {
    return theta_;
  }
  const char* name() const override { return "fixed-threshold"; }

 private:
  double theta_;
};

/// Section V strategy: per-order theta* from the fitted GMM of historical
/// extra times, memoized per penalty (Algorithm 3).
class GmmThresholdProvider : public ThresholdProvider {
 public:
  explicit GmmThresholdProvider(GaussianMixture mixture,
                                double penalty_resolution = 1.0)
      : table_(std::move(mixture), penalty_resolution) {}

  double ThresholdFor(const Order& order, Time, const PoolContext&) override {
    return table_.ThresholdFor(order.Penalty());
  }
  const char* name() const override { return "WATTER-gmm"; }

 private:
  ThresholdTable table_;
};

}  // namespace watter

#endif  // WATTER_STRATEGY_THRESHOLD_PROVIDER_H_
