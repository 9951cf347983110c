#include "src/rl/trainer.h"

#include <utility>

#include "src/stats/em_fitter.h"

namespace watter {

std::shared_ptr<const EnvSnapshot> ExperienceCollector::SnapshotFor(
    const DecisionObservation& observation) {
  if (cached_snapshot_ == nullptr || cached_at_ != observation.now) {
    cached_snapshot_ = featurizer_->MakeSnapshot(observation.context);
    cached_at_ = observation.now;
  }
  return cached_snapshot_;
}

void ExperienceCollector::OnObservation(
    const DecisionObservation& observation) {
  const Order& order = *observation.order_ref;
  CompactState state = featurizer_->MakeState(order, observation.now,
                                              SnapshotFor(observation));
  const double penalty = order.Penalty();
  const double theta_star = thetas_->ThresholdFor(penalty);
  auto add = [&](Experience experience) {
    experience.penalty = penalty;
    experience.theta_star = theta_star;
    replay_->Add(std::move(experience));
    ++transitions_;
  };
  const bool dispatched = observation.action == 1;

  // The wait from the order's previous decision state into this one. On
  // expiry it is terminal with no future value (I(expired) = 1 in the
  // Bellman update); on dispatch and on a plain wait it leads here.
  auto pending_it = pending_.find(observation.order);
  if (pending_it != pending_.end()) {
    Experience wait;
    wait.state = pending_it->second.state;
    wait.action = 0;
    wait.elapsed = observation.now - pending_it->second.time;
    wait.reward = -wait.elapsed;
    wait.terminal = !dispatched && observation.expired;
    if (!wait.terminal) wait.next_state = state;
    add(std::move(wait));
  }
  if (dispatched || observation.expired) {
    if (pending_it != pending_.end()) pending_.erase(pending_it);
  } else {
    // Still pooled: the order's next wait starts from this state.
    pending_.insert_or_assign(observation.order,
                              Pending{state, observation.now});
  }
  if (dispatched) {
    // The terminal dispatch reward p - t_d (Bellman update for a = 1).
    Experience dispatch;
    dispatch.state = state;
    dispatch.action = 1;
    dispatch.reward = penalty - observation.detour;
    dispatch.terminal = true;
    add(std::move(dispatch));
  }
}

Result<ExpectModel> TrainExpectModel(WorkloadOptions base,
                                     const ExpectTrainOptions& options) {
  // All training days (and, by contract, the evaluation day) share a city.
  if (base.city_seed == 0) base.city_seed = base.seed * 7919 + 13;

  ExpectModel model;

  // Stage 1: bootstrap days under the timeout strategy to harvest a broad
  // extra-time sample (long waits explore the grouping space).
  std::vector<double> extras;
  for (int day = 0; day < options.bootstrap_days; ++day) {
    WorkloadOptions day_options = base;
    day_options.seed = options.seed_base + static_cast<uint64_t>(day);
    auto scenario = GenerateScenario(day_options);
    if (!scenario.ok()) return scenario.status();
    if (model.city == nullptr) model.city = scenario->city;
    TimeoutThresholdProvider timeout;
    WatterPlatform platform(&*scenario, &timeout, options.sim);
    (void)platform.Run();
    const auto& day_extras = platform.metrics().served_extra_times();
    extras.insert(extras.end(), day_extras.begin(), day_extras.end());
  }
  if (extras.empty()) {
    return Status::FailedPrecondition(
        "bootstrap produced no served orders to fit");
  }
  double mean = 0.0;
  for (double x : extras) mean += x;
  model.extra_time_mean = mean / static_cast<double>(extras.size());

  // Stage 2: fit the GMM and build the theta* table (Algorithm 3).
  EmOptions em;
  em.num_components = options.gmm_components;
  em.seed = options.seed_base;
  auto mixture = FitGmm(extras, em);
  if (!mixture.ok()) return mixture.status();
  model.mixture =
      std::make_unique<GaussianMixture>(std::move(mixture).value());
  ThresholdTable theta_table(*model.mixture);

  // Stage 3: behavior days under the GMM threshold policy with experience
  // collection, then train the value network.
  model.featurizer = std::make_unique<Featurizer>(
      &model.city->graph, options.sim.grid_cells,
      options.learner.time_slot);
  ValueLearner learner(model.featurizer.get(), options.learner);
  ExperienceCollector collector(model.featurizer.get(), &theta_table,
                                &learner.replay());
  for (int day = 0; day < options.behavior_days; ++day) {
    WorkloadOptions day_options = base;
    day_options.seed =
        options.seed_base + 100 + static_cast<uint64_t>(day);
    auto scenario = GenerateScenario(day_options);
    if (!scenario.ok()) return scenario.status();
    GmmThresholdProvider behavior(*model.mixture);
    WatterPlatform platform(&*scenario, &behavior, options.sim);
    platform.set_observer([&collector](const DecisionObservation& obs) {
      collector.OnObservation(obs);
    });
    (void)platform.Run();
    collector.Reset();
  }
  model.experiences = learner.replay().size();
  learner.Train(options.epochs);

  model.value = std::make_unique<Mlp>(learner.network());
  return model;
}

}  // namespace watter
