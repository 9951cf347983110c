#include <gtest/gtest.h>

#include <vector>

#include "src/pool/order_pool.h"
#include "src/strategy/decision.h"
#include "src/strategy/threshold_provider.h"
#include "tests/test_util.h"

namespace watter {
namespace {

constexpr double kMin = 60.0;

TEST(DecisionTest, WaitLimitForcesDispatch) {
  DecisionInputs inputs;
  inputs.now = 100.0;
  inputs.earliest_wait_deadline = 99.0;  // Window already elapsed.
  inputs.average_extra_time = 1e9;       // Terrible group.
  inputs.average_threshold = -1e9;
  EXPECT_TRUE(MakeDispatchDecision(inputs));
}

TEST(DecisionTest, ThresholdComparisonOtherwise) {
  DecisionInputs inputs;
  inputs.now = 50.0;
  inputs.earliest_wait_deadline = 100.0;
  inputs.average_extra_time = 30.0;
  inputs.average_threshold = 30.0;
  EXPECT_TRUE(MakeDispatchDecision(inputs));  // te <= theta.
  inputs.average_threshold = 29.9;
  EXPECT_FALSE(MakeDispatchDecision(inputs));
}

TEST(ProviderTest, OnlineAlwaysDispatches) {
  OnlineThresholdProvider provider;
  Order order;
  PoolContext context;
  EXPECT_TRUE(std::isinf(provider.ThresholdFor(order, 0, context)));
  EXPECT_GT(provider.ThresholdFor(order, 0, context), 0);
  EXPECT_STREQ(provider.name(), "WATTER-online");
}

TEST(ProviderTest, TimeoutNeverDispatchesByThreshold) {
  TimeoutThresholdProvider provider;
  Order order;
  PoolContext context;
  EXPECT_TRUE(std::isinf(provider.ThresholdFor(order, 0, context)));
  EXPECT_LT(provider.ThresholdFor(order, 0, context), 0);
}

TEST(ProviderTest, FixedReturnsConstant) {
  FixedThresholdProvider provider(42.0);
  Order order;
  PoolContext context;
  EXPECT_DOUBLE_EQ(provider.ThresholdFor(order, 123.0, context), 42.0);
}

TEST(ProviderTest, GmmProviderScalesWithPenalty) {
  auto gmm = GaussianMixture::Create(
      {{.weight = 1.0, .mean = 120, .variance = 3600}});
  ASSERT_TRUE(gmm.ok());
  GmmThresholdProvider provider(std::move(gmm).value());
  PoolContext context;
  Order small;
  small.release = 0;
  small.deadline = 300;
  small.shortest_cost = 100;  // Penalty 200.
  Order large;
  large.release = 0;
  large.deadline = 2000;
  large.shortest_cost = 100;  // Penalty 1900.
  double theta_small = provider.ThresholdFor(small, 0, context);
  double theta_large = provider.ThresholdFor(large, 0, context);
  EXPECT_GT(theta_small, 0.0);
  EXPECT_GT(theta_large, theta_small);
  EXPECT_LE(theta_large, large.Penalty());
}

PoolOptions PermissivePoolOptions() {
  PoolOptions options;
  options.include_singletons = true;  // Decision logic is mode-agnostic.
  return options;
}

// theta for each member from `provider`, in member order, as the engines
// gather them before deciding.
std::vector<double> Thresholds(ThresholdProvider& provider,
                               const std::vector<const Order*>& members,
                               Time now) {
  std::vector<double> thresholds;
  for (const Order* member : members) {
    thresholds.push_back(provider.ThresholdFor(*member, now, PoolContext{}));
  }
  return thresholds;
}

class GroupDecisionTest : public testing::Test {
 protected:
  GroupDecisionTest()
      : graph_(testutil::MakeExample1Graph()),
        oracle_(&graph_),
        pool_(&oracle_, PermissivePoolOptions()) {}

  Graph graph_;
  DijkstraOracle oracle_;
  OrderPool pool_;
};

TEST_F(GroupDecisionTest, OnlineDispatchesBestGroupImmediately) {
  auto orders = testutil::MakeExample1Orders();
  ASSERT_TRUE(pool_.Insert(orders[0], orders[0].release).ok());
  const BestGroup* best = pool_.BestFor(orders[0].id, orders[0].release);
  ASSERT_NE(best, nullptr);
  OnlineThresholdProvider online;
  const std::vector<const Order*> members = {&orders[0]};
  const Time now = orders[0].release;
  EXPECT_TRUE(DecideGroupDispatch(*best, members,
                                  Thresholds(online, members, now), now,
                                  ExtraTimeWeights{}));
}

TEST_F(GroupDecisionTest, TimeoutHoldsUntilWaitDeadline) {
  auto orders = testutil::MakeExample1Orders();
  Order o = orders[0];  // wait_limit = 60 s.
  ASSERT_TRUE(pool_.Insert(o, o.release).ok());
  const BestGroup* best = pool_.BestFor(o.id, o.release);
  ASSERT_NE(best, nullptr);
  TimeoutThresholdProvider timeout;
  const std::vector<const Order*> members = {&o};
  // Before the window elapses: hold.
  const Time before = o.release + 59;
  EXPECT_FALSE(DecideGroupDispatch(*best, members,
                                   Thresholds(timeout, members, before),
                                   before, ExtraTimeWeights{}));
  // After: forced dispatch.
  const Time after = o.WaitDeadline() + 1;
  EXPECT_TRUE(DecideGroupDispatch(*best, members,
                                  Thresholds(timeout, members, after), after,
                                  ExtraTimeWeights{}));
}

TEST_F(GroupDecisionTest, FixedThresholdDispatchesOnceGroupGoodEnough) {
  // Two identical d->f trips: the pair has avg extra = beta * avg response.
  Order a{.id = 61, .pickup = testutil::kD, .dropoff = testutil::kF,
          .riders = 1, .release = 0, .deadline = 30 * kMin,
          .wait_limit = 5 * kMin, .shortest_cost = 2 * kMin};
  Order b = a;
  b.id = 62;
  b.release = 10;
  b.deadline = 10 + 30 * kMin;
  ASSERT_TRUE(pool_.Insert(a, 0).ok());
  ASSERT_TRUE(pool_.Insert(b, 10).ok());
  const BestGroup* best = pool_.BestFor(a.id, 10);
  ASSERT_NE(best, nullptr);
  ASSERT_EQ(best->size(), 2);
  FixedThresholdProvider strict(1.0);  // Avg response at t=10 is 5 s > 1.
  FixedThresholdProvider loose(10.0);
  const std::vector<const Order*> members = {&a, &b};
  EXPECT_FALSE(DecideGroupDispatch(*best, members,
                                   Thresholds(strict, members, 10), 10,
                                   ExtraTimeWeights{}));
  EXPECT_TRUE(DecideGroupDispatch(*best, members,
                                  Thresholds(loose, members, 10), 10,
                                  ExtraTimeWeights{}));
}

}  // namespace
}  // namespace watter
