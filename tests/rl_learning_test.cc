#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rl/expect_provider.h"
#include "src/rl/featurizer.h"
#include "src/rl/trainer.h"
#include "src/rl/value_learner.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace watter {
namespace {

class FeaturizerTest : public testing::Test {
 protected:
  FeaturizerTest()
      : graph_(testutil::MakeExample1Graph()),
        featurizer_(&graph_, /*grid_cells=*/4) {}

  Graph graph_;
  Featurizer featurizer_;
};

TEST_F(FeaturizerTest, FeatureSizeFormula) {
  // 5 * 16 cells + 2 time scalars + 3 magnitude scalars.
  EXPECT_EQ(featurizer_.feature_size(), 5 * 16 + 5);
}

TEST_F(FeaturizerTest, OneHotsAndTimeScalars) {
  Order order;
  order.pickup = testutil::kA;
  order.dropoff = testutil::kF;
  order.release = 43200;  // Noon.
  std::vector<int> counts(16, 0);
  auto env = featurizer_.MakeSnapshot({&counts, &counts, &counts});
  CompactState state = featurizer_.MakeState(order, 43230, env);
  EXPECT_NEAR(state.release_slot, 0.5, 1e-9);
  EXPECT_GT(state.waited_slots, 0.0);
  std::vector<float> features;
  featurizer_.Write(state, &features);
  ASSERT_EQ(features.size(), static_cast<size_t>(featurizer_.feature_size()));
  // Exactly one pickup one-hot and one dropoff one-hot.
  int pickup_hot = 0, dropoff_hot = 0;
  for (int c = 0; c < 16; ++c) {
    pickup_hot += features[c] == 1.0f ? 1 : 0;
    dropoff_hot += features[16 + c] == 1.0f ? 1 : 0;
  }
  EXPECT_EQ(pickup_hot, 1);
  EXPECT_EQ(dropoff_hot, 1);
}

TEST_F(FeaturizerTest, SnapshotNormalizesDistributions) {
  std::vector<int> demand(16, 0);
  demand[3] = 6;
  demand[10] = 2;
  std::vector<int> zeros(16, 0);
  auto env = featurizer_.MakeSnapshot({&demand, &zeros, &zeros});
  EXPECT_FLOAT_EQ(env->demand_pickup_total, 8.0f);
  EXPECT_FLOAT_EQ(env->distributions[3], 0.75f);
  EXPECT_FLOAT_EQ(env->distributions[10], 0.25f);
  // Zero-total blocks stay zero.
  for (int c = 16; c < 48; ++c) EXPECT_FLOAT_EQ(env->distributions[c], 0.0f);
}

TEST_F(FeaturizerTest, WaitedSlotsSaturate) {
  Order order;
  order.pickup = testutil::kA;
  order.dropoff = testutil::kC;
  order.release = 0;
  auto env = featurizer_.MakeSnapshot({});
  CompactState early = featurizer_.MakeState(order, 10, env);
  CompactState late = featurizer_.MakeState(order, 1e7, env);
  EXPECT_LT(early.waited_slots, 0.05);
  EXPECT_FLOAT_EQ(late.waited_slots, 1.0f);
}

TEST_F(FeaturizerTest, EnvOffsetSplitsOrderFeaturesFromRoundFeatures) {
  // ExpectThresholdProvider prepares the value network's terms of the
  // features from env_offset() on once per round, so those must depend on
  // the snapshot alone, and the ones below it on the order and time alone.
  EXPECT_EQ(featurizer_.env_offset(), 2 * 16 + 2);
  Order near;
  near.pickup = testutil::kA;
  near.dropoff = testutil::kC;
  near.release = 100;
  Order far;
  far.pickup = testutil::kF;
  far.dropoff = testutil::kD;
  far.release = 43000;
  std::vector<int> quiet(16, 0);
  quiet[2] = 3;
  std::vector<int> busy(16, 1);
  busy[7] = 9;
  auto env_a = featurizer_.MakeSnapshot({&quiet, &busy, &quiet});
  auto env_b = featurizer_.MakeSnapshot({&busy, &quiet, &busy});
  auto features = [&](const Order& order, Time now,
                      std::shared_ptr<const EnvSnapshot> env) {
    std::vector<float> out;
    featurizer_.Write(featurizer_.MakeState(order, now, std::move(env)), &out);
    return out;
  };
  const auto offset = static_cast<std::ptrdiff_t>(featurizer_.env_offset());
  auto head = [offset](const std::vector<float>& v) {
    return std::vector<float>(v.begin(), v.begin() + offset);
  };
  auto tail = [offset](const std::vector<float>& v) {
    return std::vector<float>(v.begin() + offset, v.end());
  };
  // Two orders under one snapshot: different heads, equal tails.
  std::vector<float> near_a = features(near, 400, env_a);
  std::vector<float> far_a = features(far, 43100, env_a);
  EXPECT_NE(head(near_a), head(far_a));
  EXPECT_EQ(tail(near_a), tail(far_a));
  // One order under two snapshots: equal heads, different tails.
  std::vector<float> near_b = features(near, 400, env_b);
  EXPECT_EQ(head(near_a), head(near_b));
  EXPECT_NE(tail(near_a), tail(near_b));
}

TEST(ReplayMemoryTest, RingBufferEviction) {
  ReplayMemory replay(3);
  for (int i = 0; i < 5; ++i) {
    Experience e;
    e.reward = i;
    replay.Add(std::move(e));
  }
  EXPECT_EQ(replay.size(), 3u);
  // Oldest (0, 1) evicted: remaining rewards are 2, 3, 4 in some slots.
  double sum = 0;
  for (size_t i = 0; i < replay.size(); ++i) sum += replay.at(i).reward;
  EXPECT_DOUBLE_EQ(sum, 2 + 3 + 4);
}

TEST(ReplayMemoryTest, SamplingCoversBuffer) {
  ReplayMemory replay(100);
  for (int i = 0; i < 50; ++i) {
    Experience e;
    e.reward = i;
    replay.Add(std::move(e));
  }
  Rng rng(3);
  auto batch = replay.Sample(500, &rng);
  ASSERT_EQ(batch.size(), 500u);
  std::set<double> seen;
  for (const Experience* e : batch) seen.insert(e->reward);
  EXPECT_GT(seen.size(), 30u);
}

TEST(ValueLearnerTest, LearnsTerminalValues) {
  // Single-state world: dispatch reward is always 100. After training,
  // V(s) should approach (1-omega-weighted mix of) 100 and p - theta*.
  Graph graph = testutil::MakeExample1Graph();
  Featurizer featurizer(&graph, 2);
  LearnerOptions options;
  options.hidden_layers = {8};
  options.learning_rate = 2e-2;
  options.omega = 1.0;  // Pure TD: target is exactly the reward.
  options.batch_size = 16;
  options.seed = 3;
  ValueLearner learner(&featurizer, options);

  Order order;
  order.pickup = testutil::kA;
  order.dropoff = testutil::kF;
  order.release = 1000;
  auto env = featurizer.MakeSnapshot({});
  CompactState state = featurizer.MakeState(order, 1010, env);
  for (int i = 0; i < 64; ++i) {
    Experience e;
    e.state = state;
    e.action = 1;
    e.reward = 100.0;
    e.terminal = true;
    e.penalty = 120.0;
    e.theta_star = 20.0;
    learner.replay().Add(std::move(e));
  }
  learner.Train(/*epochs=*/200);
  EXPECT_NEAR(learner.Value(state), 100.0, 5.0);
}

TEST(ValueLearnerTest, TargetLossAnchorsValue) {
  Graph graph = testutil::MakeExample1Graph();
  Featurizer featurizer(&graph, 2);
  LearnerOptions options;
  options.hidden_layers = {8};
  options.learning_rate = 2e-2;
  options.omega = 0.0;  // Pure target loss: V -> p - theta*.
  options.batch_size = 16;
  options.seed = 4;
  ValueLearner learner(&featurizer, options);
  Order order;
  order.pickup = testutil::kD;
  order.dropoff = testutil::kC;
  auto env = featurizer.MakeSnapshot({});
  CompactState state = featurizer.MakeState(order, 5, env);
  for (int i = 0; i < 64; ++i) {
    Experience e;
    e.state = state;
    e.action = 1;
    e.reward = -1000.0;  // Would drag V down if TD mattered.
    e.terminal = true;
    e.penalty = 300.0;
    e.theta_star = 100.0;
    learner.replay().Add(std::move(e));
  }
  learner.Train(200);
  EXPECT_NEAR(learner.Value(state), 200.0, 10.0);
}

TEST(ValueLearnerTest, WaitTransitionsBootstrapFromTarget) {
  // Chain: s0 -wait(-10)-> s1 -dispatch(+50). With gamma=1, V(s0) -> 40.
  Graph graph = testutil::MakeExample1Graph();
  Featurizer featurizer(&graph, 2);
  LearnerOptions options;
  options.hidden_layers = {8};
  options.learning_rate = 5e-3;
  options.gamma = 1.0;
  options.omega = 1.0;
  options.batch_size = 32;
  options.target_sync_interval = 25;
  options.seed = 5;
  ValueLearner learner(&featurizer, options);
  Order order;
  order.pickup = testutil::kA;
  order.dropoff = testutil::kC;
  order.release = 0;
  auto env = featurizer.MakeSnapshot({});
  CompactState s0 = featurizer.MakeState(order, 10, env);
  CompactState s1 = featurizer.MakeState(order, 200, env);  // Waited longer.
  for (int i = 0; i < 64; ++i) {
    Experience wait;
    wait.state = s0;
    wait.action = 0;
    wait.reward = -10.0;
    wait.elapsed = 10.0;
    wait.terminal = false;
    wait.next_state = s1;
    learner.replay().Add(std::move(wait));
    Experience dispatch;
    dispatch.state = s1;
    dispatch.action = 1;
    dispatch.reward = 50.0;
    dispatch.terminal = true;
    learner.replay().Add(std::move(dispatch));
  }
  learner.Train(300);
  EXPECT_NEAR(learner.Value(s1), 50.0, 5.0);
  EXPECT_NEAR(learner.Value(s0), 40.0, 6.0);
}

TEST(ExpectProviderTest, ThresholdIsPenaltyMinusValueClamped) {
  Graph graph = testutil::MakeExample1Graph();
  Featurizer featurizer(&graph, 2);
  Mlp value({featurizer.feature_size(), 1}, 1);
  // Zero all weights: V(s) = bias = 30.
  std::fill(value.params().begin(), value.params().end(), 0.0f);
  value.params().back() = 30.0f;
  ExpectThresholdProvider provider(&featurizer, &value);
  PoolContext context;
  Order order;
  order.pickup = testutil::kA;
  order.dropoff = testutil::kC;
  order.release = 0;
  order.deadline = 150;
  order.shortest_cost = 50;  // Penalty = 100.
  EXPECT_NEAR(provider.ThresholdFor(order, 10, context), 70.0, 1e-4);
  // Huge value clamps to zero threshold.
  value.params().back() = 1e6f;
  EXPECT_DOUBLE_EQ(provider.ThresholdFor(order, 10, context), 0.0);
  // Negative value clamps to the penalty.
  value.params().back() = -1e6f;
  EXPECT_DOUBLE_EQ(provider.ThresholdFor(order, 10, context), 100.0);
}

TEST(ExpectProviderTest, RoundCacheMatchesFromScratch) {
  // One provider over several rounds, each with its own context and with
  // repeated and interleaved calls, must give exactly the threshold that a
  // fresh snapshot, the full feature vector and a full forward pass give.
  Graph graph = testutil::MakeExample1Graph();
  Featurizer featurizer(&graph, 4);
  Mlp value({featurizer.feature_size(), 13, 1}, 3);
  Rng rng(59);
  for (float& p : value.params()) p = static_cast<float>(rng.Normal(0.0, 0.5));
  value.params().back() = 500.0f;  // V near 500 keeps theta off its clamps.
  ExpectThresholdProvider provider(&featurizer, &value);
  std::vector<Order> orders(4);
  const NodeId pickups[] = {testutil::kA, testutil::kD, testutil::kE,
                            testutil::kB};
  const NodeId dropoffs[] = {testutil::kC, testutil::kF, testutil::kF,
                             testutil::kA};
  for (size_t n = 0; n < orders.size(); ++n) {
    orders[n].id = static_cast<OrderId>(n + 1);
    orders[n].pickup = pickups[n];
    orders[n].dropoff = dropoffs[n];
    orders[n].release = 100.0 * static_cast<double>(n);
    orders[n].shortest_cost = 120.0;
    orders[n].deadline = orders[n].release + 2000.0;
  }
  Order expired = orders[0];
  expired.deadline = expired.release + expired.shortest_cost;  // Penalty 0.
  const int cells = featurizer.cell_count();
  std::vector<float> features;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Time now = 600.0 + 10.0 * round;
    std::vector<int> demand_pickup(cells), demand_dropoff(cells), supply(cells);
    for (int c = 0; c < cells; ++c) {
      demand_pickup[c] = static_cast<int>(rng.UniformInt(0, 3));
      demand_dropoff[c] = static_cast<int>(rng.UniformInt(0, 2));
      supply[c] = static_cast<int>(rng.UniformInt(0, 4));
    }
    PoolContext context{&demand_pickup, &demand_dropoff, &supply};
    // An order without penalty answers before any snapshot is taken.
    EXPECT_EQ(provider.ThresholdFor(expired, now, context), 0.0);
    auto env = featurizer.MakeSnapshot(context);
    for (size_t call = 0; call < 2 * orders.size(); ++call) {
      const Order& order = orders[(call * 3 + round) % orders.size()];
      featurizer.Write(featurizer.MakeState(order, now, env), &features);
      const double penalty = order.Penalty();
      const double expected =
          std::clamp(penalty - value.Forward(features), 0.0, penalty);
      ASSERT_GT(expected, 0.0);
      ASSERT_LT(expected, penalty);
      const double threshold = provider.ThresholdFor(order, now, context);
      EXPECT_EQ(std::memcmp(&threshold, &expected, sizeof threshold), 0)
          << "order " << order.id << ": " << threshold << " vs " << expected;
    }
  }
}

TEST(TrainerTest, EndToEndTrainingProducesModel) {
  WorkloadOptions workload;
  workload.dataset = DatasetKind::kCdc;
  workload.num_orders = 200;
  workload.num_workers = 30;
  workload.city_width = 12;
  workload.city_height = 12;
  workload.duration = 1800.0;
  workload.seed = 4242;

  ExpectTrainOptions train;
  train.bootstrap_days = 1;
  train.behavior_days = 1;
  train.epochs = 1;
  train.learner.hidden_layers = {16};
  train.sim.grid_cells = 6;

  auto model = TrainExpectModel(workload, train);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_NE(model->value, nullptr);
  EXPECT_NE(model->mixture, nullptr);
  EXPECT_GT(model->experiences, 0u);
  EXPECT_GT(model->extra_time_mean, 0.0);

  // The trained provider must run a full evaluation day.
  auto scenario = GenerateScenario(workload);
  ASSERT_TRUE(scenario.ok());
  auto provider = model->MakeProvider();
  SimOptions sim;
  sim.grid_cells = 6;
  MetricsReport report = RunWatter(&*scenario, provider.get(), sim);
  EXPECT_EQ(report.served + report.rejected,
            static_cast<int64_t>(scenario->orders.size()));
  EXPECT_GT(report.service_rate, 0.2);
}

TEST(TrainerTest, CollectorBuildsTransitionsFromObservations) {
  Graph graph = testutil::MakeExample1Graph();
  Featurizer featurizer(&graph, 2);
  auto mixture = GaussianMixture::Create(
      {{.weight = 1.0, .mean = 100, .variance = 400}});
  ASSERT_TRUE(mixture.ok());
  ThresholdTable table(std::move(mixture).value());
  ReplayMemory replay(100);
  ExperienceCollector collector(&featurizer, &table, &replay);

  Order order;
  order.id = 1;
  order.pickup = testutil::kA;
  order.dropoff = testutil::kC;
  order.release = 0;
  order.deadline = 600;
  order.shortest_cost = 120;  // Penalty 480.
  std::vector<int> counts(4, 1);

  auto observe = [&](Time now, int action, bool expired, double detour) {
    DecisionObservation obs;
    obs.order = order.id;
    obs.order_ref = &order;
    obs.now = now;
    obs.action = action;
    obs.expired = expired;
    obs.detour = detour;
    obs.context = {&counts, &counts, &counts};
    collector.OnObservation(obs);
  };

  observe(5, 0, false, 0);    // First sight: pending only.
  EXPECT_EQ(replay.size(), 0u);
  observe(10, 0, false, 0);   // Wait transition 5 -> 10.
  EXPECT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay.at(0).action, 0);
  EXPECT_DOUBLE_EQ(replay.at(0).reward, -5.0);
  EXPECT_FALSE(replay.at(0).terminal);
  observe(20, 1, false, 30);  // Wait 10 -> 20 plus terminal dispatch.
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_DOUBLE_EQ(replay.at(1).reward, -10.0);
  EXPECT_EQ(replay.at(2).action, 1);
  EXPECT_DOUBLE_EQ(replay.at(2).reward, 480.0 - 30.0);
  EXPECT_TRUE(replay.at(2).terminal);
  EXPECT_EQ(collector.transitions(), 3);

  // A fresh order that expires.
  order.id = 2;
  observe(5, 0, false, 0);
  observe(30, 0, true, 0);  // Expiry: terminal wait with no future.
  ASSERT_EQ(replay.size(), 4u);
  EXPECT_TRUE(replay.at(3).terminal);
  EXPECT_DOUBLE_EQ(replay.at(3).reward, -25.0);
}

}  // namespace
}  // namespace watter
