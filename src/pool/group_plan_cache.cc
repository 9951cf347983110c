#include "src/pool/group_plan_cache.h"

#include <algorithm>
#include <cassert>

namespace watter {

void GroupPlanCache::Put(const GroupKey& key, CachedGroupPlan entry) {
  auto [it, inserted] = entries_.try_emplace(key);
  it->second.cached = std::move(entry);
  if (!inserted) return;  // Re-plan overwrite: reverse index already set.
  for (int i = 0; i < key.size; ++i) {
    std::vector<Node*>& bucket = containing_[key.ids[static_cast<size_t>(i)]];
    it->second.bucket_pos[static_cast<size_t>(i)] =
        static_cast<uint32_t>(bucket.size());
    bucket.push_back(&*it);
  }
}

void GroupPlanCache::OnOrderRemoved(OrderId member) {
  auto bucket = containing_.find(member);
  if (bucket == containing_.end()) return;
  // Detach the bucket first: the per-entry cleanup below mutates
  // containing_, and the member's own bucket must not be re-created
  // mid-loop.
  std::vector<Node*> nodes = std::move(bucket->second);
  containing_.erase(bucket);
  for (Node* node : nodes) {
    // A copy: erase() must not take a reference into the node it destroys.
    const GroupKey key = node->first;
    for (int i = 0; i < key.size; ++i) {
      const OrderId other = key.ids[static_cast<size_t>(i)];
      if (other == member) continue;
      // Swap-pop at the recorded position, re-pointing the moved entry's
      // position for `other` (the exact index holds every entry once per
      // member, so the bucket exists).
      auto it = containing_.find(other);
      assert(it != containing_.end());
      std::vector<Node*>& other_bucket = it->second;
      const uint32_t pos = node->second.bucket_pos[static_cast<size_t>(i)];
      Node* moved = other_bucket.back();
      other_bucket[pos] = moved;
      const auto& moved_ids = moved->first.ids;
      const auto at = std::find(moved_ids.begin(), moved_ids.end(), other);
      moved->second.bucket_pos[static_cast<size_t>(at - moved_ids.begin())] =
          pos;
      other_bucket.pop_back();
      if (other_bucket.empty()) containing_.erase(it);
    }
    entries_.erase(key);
    ++evictions_;
  }
}

}  // namespace watter
