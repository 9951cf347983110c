// Property test of GroupPlanCache's reverse index against a std::set model.
// A random stream of Puts of new 2-4-member keys over 40 ids, re-Puts of
// cached keys (replan overwrites), and departures of ids both absent and
// present, whose ids later come back in new keys (as dropout recovery
// re-pools an order under its old id). After every step the cache must
// hold exactly the model's keys and have counted exactly its evictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/pool/group_plan_cache.h"

namespace watter {
namespace {

constexpr int kIds = 40;

GroupKey RandomKey(Rng* rng) {
  const size_t size = static_cast<size_t>(rng->UniformInt(2, 4));
  std::vector<OrderId> members;
  while (members.size() < size) {
    const OrderId id = rng->UniformInt(1, kIds);
    if (std::find(members.begin(), members.end(), id) == members.end()) {
      members.push_back(id);
    }
  }
  std::sort(members.begin(), members.end());
  return GroupKey(members);
}

// A cached outcome tagged with the step that wrote it.
CachedGroupPlan Tagged(int step) {
  CachedGroupPlan entry;
  entry.feasible = step % 3 != 0;
  entry.sum_release = step;
  return entry;
}

class GroupPlanCachePropertyTest : public testing::TestWithParam<uint64_t> {
};

TEST_P(GroupPlanCachePropertyTest, MatchesSetModelUnderRandomChurn) {
  Rng rng(GetParam());
  GroupPlanCache cache;
  std::set<GroupKey> model;
  std::set<GroupKey> ever_put;  // Every key Find must answer for.
  int64_t model_evictions = 0;
  for (int step = 0; step < 2000; ++step) {
    const double action = rng.Uniform();
    if (action < 0.5 || model.empty()) {
      const GroupKey key = RandomKey(&rng);
      cache.Put(key, Tagged(step));
      model.insert(key);
      ever_put.insert(key);
    } else if (action < 0.65) {
      // Overwrite a cached key; its reverse-index entries must not double.
      auto pick = model.begin();
      std::advance(pick, rng.UniformInt(
                             0, static_cast<int64_t>(model.size()) - 1));
      cache.Put(*pick, Tagged(step));
      const CachedGroupPlan* found = cache.Find(*pick);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->sum_release, step);
    } else {
      // Ids above kIds are never pooled: their departure is a no-op.
      const OrderId departed = rng.UniformInt(1, kIds + 5);
      cache.OnOrderRemoved(departed);
      model_evictions += static_cast<int64_t>(
          std::erase_if(model, [departed](const GroupKey& key) {
            const auto members = key.members();
            return std::find(members.begin(), members.end(), departed) !=
                   members.end();
          }));
    }

    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    ASSERT_EQ(cache.evictions(), model_evictions) << "step " << step;
    for (const GroupKey& key : ever_put) {
      ASSERT_EQ(cache.Find(key) != nullptr, model.count(key) > 0)
          << "step " << step << ", key of " << key.size << " starting "
          << key.ids[0];
    }
  }
  EXPECT_GT(model_evictions, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupPlanCachePropertyTest,
                         testing::Values(11, 12, 13));

}  // namespace
}  // namespace watter
