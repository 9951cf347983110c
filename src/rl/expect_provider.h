// WATTER-expect: threshold provider backed by the learned value function.
//
// theta(i) = p(i) - V(s_t^(i)) (Section VI-A), clamped into [0, p(i)].
// Caching contract: every call with one `now` belongs to one check round
// and sees the same PoolContext, and the value network does not change
// while the provider is in use. The first call of a round builds the
// environment snapshot and prepares the value network's first-layer
// products of the round-shared features (Featurizer::env_offset() on);
// every later call of the round reads both and featurizes only its order.
// Once prepared, the round's block is read-only.
#ifndef WATTER_RL_EXPECT_PROVIDER_H_
#define WATTER_RL_EXPECT_PROVIDER_H_

#include <algorithm>
#include <memory>

#include "src/rl/featurizer.h"
#include "src/rl/mlp.h"
#include "src/strategy/threshold_provider.h"

namespace watter {

/// Threshold provider of the WATTER-expect strategy.
class ExpectThresholdProvider : public ThresholdProvider {
 public:
  /// `featurizer` and `value` are borrowed and must outlive the provider.
  ExpectThresholdProvider(const Featurizer* featurizer, const Mlp* value)
      : featurizer_(featurizer), value_(value) {}

  double ThresholdFor(const Order& order, Time now,
                      const PoolContext& context) override {
    double penalty = order.Penalty();
    if (penalty <= 0.0) return 0.0;
    const bool new_round = cached_snapshot_ == nullptr || cached_at_ != now;
    if (new_round) {
      cached_snapshot_ = featurizer_->MakeSnapshot(context);
      cached_at_ = now;
    }
    CompactState state = featurizer_->MakeState(order, now, cached_snapshot_);
    featurizer_->Write(state, &features_);
    if (new_round) {
      value_->Prepare(features_, featurizer_->env_offset(), &shared_);
    }
    double value = value_->Forward(features_, shared_);
    return std::clamp(penalty - value, 0.0, penalty);
  }

  const char* name() const override { return "WATTER-expect"; }

 private:
  const Featurizer* featurizer_;
  const Mlp* value_;
  std::shared_ptr<const EnvSnapshot> cached_snapshot_;
  Time cached_at_ = -1.0;
  std::vector<float> features_;
  PreparedInputs shared_;  // The round's environment block.
};

}  // namespace watter

#endif  // WATTER_RL_EXPECT_PROVIDER_H_
