// ValueLearner: DQN-style estimation of the state-value function (VI-B).
//
// Two networks (main V and a delayed target V-hat), replay memory, and the
// combined loss of the paper:
//   loss = omega * loss_td + (1 - omega) * loss_tg,
//   loss_td = (r + gamma^dt * V_hat(s') - V(s))^2   [wait transitions]
//           = (r - V(s))^2                          [terminal transitions]
//   loss_tg = (p - theta* - V(s))^2                 [align with Section V]
#ifndef WATTER_RL_VALUE_LEARNER_H_
#define WATTER_RL_VALUE_LEARNER_H_

#include <memory>
#include <vector>

#include "src/rl/adam.h"
#include "src/rl/featurizer.h"
#include "src/rl/mlp.h"
#include "src/rl/replay_memory.h"

namespace watter {

/// Learner hyperparameters.
struct LearnerOptions {
  std::vector<int> hidden_layers = {64, 32};
  double learning_rate = 1e-3;
  double gamma = 0.99;        ///< Discount per time slot.
  double omega = 0.5;         ///< TD-vs-target loss mix.
  double time_slot = 10.0;    ///< dt (seconds per slot).
  int batch_size = 64;
  int target_sync_interval = 200;  ///< Steps between target-network copies.
  size_t replay_capacity = 1 << 18;
  uint64_t seed = 1;
};

/// Owns the networks and training loop.
class ValueLearner {
 public:
  ValueLearner(const Featurizer* featurizer, LearnerOptions options);

  ReplayMemory& replay() { return replay_; }

  /// Runs one minibatch SGD step; returns the mean combined loss (0 when
  /// the replay memory is empty).
  double TrainStep();

  /// Runs `epochs` passes of size replay.size()/batch_size each.
  void Train(int epochs);

  /// V(s) under the main network.
  double Value(const CompactState& state) const;

  const Mlp& network() const { return main_; }

 private:
  const Featurizer* featurizer_;
  LearnerOptions options_;
  Mlp main_;
  Mlp target_;
  AdamOptimizer adam_;
  ReplayMemory replay_;
  Rng rng_;
  int64_t steps_ = 0;
  // Scratch buffers.
  mutable std::vector<float> features_;
  std::vector<float> grads_;
};

}  // namespace watter

#endif  // WATTER_RL_VALUE_LEARNER_H_
