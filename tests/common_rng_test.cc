#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"

namespace watter {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 6000; ++i) {
    int64_t v = rng.UniformInt(2, 7);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 7);
    ++counts[v - 2];
  }
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 expected per bucket.
}

TEST(RngTest, NormalMomentsApproximate) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double variance = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(variance), 2.0, 0.05);
}

TEST(RngTest, SampleIndexFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.SampleIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
  EXPECT_GT(counts[0], 1000);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += parent.Next() == child.Next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(37);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

}  // namespace
}  // namespace watter
