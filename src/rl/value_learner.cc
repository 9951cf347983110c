#include "src/rl/value_learner.h"

#include <algorithm>
#include <cmath>

namespace watter {
namespace {

std::vector<int> FullArchitecture(int input, const std::vector<int>& hidden) {
  std::vector<int> sizes = {input};
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(1);
  return sizes;
}

}  // namespace

ValueLearner::ValueLearner(const Featurizer* featurizer,
                           LearnerOptions options)
    : featurizer_(featurizer),
      options_(options),
      main_(FullArchitecture(featurizer->feature_size(),
                             options.hidden_layers),
            options.seed),
      target_(FullArchitecture(featurizer->feature_size(),
                               options.hidden_layers),
              options.seed),
      adam_(static_cast<size_t>(main_.param_count()), options.learning_rate),
      replay_(options.replay_capacity),
      rng_(options.seed * 77 + 3) {
  target_.CopyParamsFrom(main_);
  grads_.resize(static_cast<size_t>(main_.param_count()), 0.0f);
}

double ValueLearner::Value(const CompactState& state) const {
  featurizer_->Write(state, &features_);
  return main_.Forward(features_);
}

double ValueLearner::TrainStep() {
  if (replay_.empty()) return 0.0;
  auto batch = replay_.Sample(static_cast<size_t>(options_.batch_size),
                              &rng_);
  std::fill(grads_.begin(), grads_.end(), 0.0f);
  double total_loss = 0.0;
  for (const Experience* exp : batch) {
    // TD target.
    double td_target;
    if (exp->terminal || exp->action == 1) {
      td_target = exp->reward;
    } else {
      featurizer_->Write(exp->next_state, &features_);
      double next_value = target_.Forward(features_);
      double discount =
          std::pow(options_.gamma, exp->elapsed / options_.time_slot);
      td_target = exp->reward + discount * next_value;
    }
    double tg_target = exp->penalty - exp->theta_star;

    featurizer_->Write(exp->state, &features_);
    // dLoss/dV = 2*omega*(V - td) + 2*(1-omega)*(V - tg); fold the batch
    // mean into the factor. Backward reuses this forward pass.
    double value = main_.Forward(features_);
    double td_err = value - td_target;
    double tg_err = value - tg_target;
    double dloss = (2.0 * options_.omega * td_err +
                    2.0 * (1.0 - options_.omega) * tg_err) /
                   static_cast<double>(batch.size());
    main_.Backward(dloss, &grads_);
    total_loss += options_.omega * td_err * td_err +
                  (1.0 - options_.omega) * tg_err * tg_err;
  }
  adam_.Step(&main_.params(), grads_);
  ++steps_;
  if (steps_ % options_.target_sync_interval == 0) {
    target_.CopyParamsFrom(main_);
  }
  return total_loss / static_cast<double>(batch.size());
}

void ValueLearner::Train(int epochs) {
  if (replay_.empty()) return;
  int64_t steps_per_epoch = std::max<int64_t>(
      1, static_cast<int64_t>(replay_.size()) / options_.batch_size);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int64_t step = 0; step < steps_per_epoch; ++step) TrainStep();
  }
}

}  // namespace watter
