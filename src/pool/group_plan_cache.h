// Shared group-plan cache: one exact DAR plan per distinct member set.
//
// A GroupPlan is depart-time-*invariant* for a fixed member set in the
// following sense: deadlines only tighten as time passes, so the min-cost
// route feasible at time t0 is still the min-cost feasible route at any
// t in [t0, latest_departure], and a member set the planner rejects at t0
// stays infeasible forever. A plan computed once is therefore reusable by
// every anchor whose clique enumeration emits the same member set — today's
// pool re-planned the same clique up to k times per round (once per member
// acting as anchor), and again after every unrelated dirty event — with
// per-lookup feasibility reduced to a `latest_departure >= now` comparison.
// Entries whose cached route has expired are re-planned at the later
// depart time (a costlier route with more deadline slack may still exist)
// and overwritten; infeasible verdicts are cached permanently.
//
// The soundness of both rules requires lookups to use non-decreasing `now`
// timestamps, which simulation time guarantees (the same monotonicity the
// shareability graph's edge expiries already rely on).
//
// Invalidation: a reverse-membership index maps each member to a bucket of
// pointers to the cached entries containing it (unordered_map nodes never
// move on rehash). Each entry records its position in each of its members'
// buckets, so dropping it from a bucket is a swap-pop that re-points the
// entry moved into its place. A departure therefore evicts its entries in
// O(entries containing it x group size), with no search; the index stays
// exact, holding no key of an evicted entry.
//
// Concurrency: mutation is single-writer (the pool's serial commit phases);
// Find is const and safe to call concurrently from the parallel search
// phases as long as no writer runs, which BestGroupMap's frozen-scan /
// serial-commit structure guarantees.
#ifndef WATTER_POOL_GROUP_PLAN_CACHE_H_
#define WATTER_POOL_GROUP_PLAN_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/route_planner.h"
#include "src/core/types.h"

namespace watter {

/// Cache key: the sorted member ids of a candidate group, stored inline
/// (groups never exceed kMaxGroupSize members).
struct GroupKey {
  std::array<OrderId, kMaxGroupSize> ids;
  int size = 0;

  GroupKey() { ids.fill(kInvalidOrder); }

  /// `members` must be sorted and at most kMaxGroupSize long.
  explicit GroupKey(std::span<const OrderId> members) : GroupKey() {
    size = static_cast<int>(members.size());
    for (int i = 0; i < size; ++i) ids[static_cast<size_t>(i)] = members[i];
  }

  std::span<const OrderId> members() const {
    return std::span<const OrderId>(ids.data(), static_cast<size_t>(size));
  }

  /// Unused slots are kInvalidOrder-padded, so whole-array comparison is
  /// correct and gives the deterministic lexicographic order the batched
  /// planning phase sorts by.
  friend bool operator==(const GroupKey& a, const GroupKey& b) {
    return a.ids == b.ids;
  }
  friend bool operator<(const GroupKey& a, const GroupKey& b) {
    return a.ids < b.ids;
  }
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the member ids.
    for (int i = 0; i < key.size; ++i) {
      h ^= static_cast<uint64_t>(key.ids[static_cast<size_t>(i)]);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// One cached planning outcome. `sum_detour`/`sum_release` are the
/// member-set invariants BestGroup ranking needs, precomputed so cache hits
/// skip the per-member aggregation too.
struct CachedGroupPlan {
  bool feasible = false;
  GroupPlan plan;           ///< Valid when feasible.
  double sum_detour = 0.0;  ///< Sum over members of completion - shortest.
  double sum_release = 0.0; ///< Sum of member release times.
};

/// The shared plan cache with reverse-membership invalidation.
class GroupPlanCache {
 public:
  /// The cached outcome for `key`, or nullptr. Entries with
  /// `plan.latest_departure < now` are stale hits: the caller must re-plan
  /// at its current depart time and Put the result back.
  const CachedGroupPlan* Find(const GroupKey& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.cached;
  }

  /// Inserts or overwrites `key`'s outcome. The reverse index is updated on
  /// first insert only (overwrites keep the same member set by definition).
  void Put(const GroupKey& key, CachedGroupPlan entry);

  /// Drops every entry whose member set contains `member` and forgets the
  /// member's reverse-index bucket. Call on order departure.
  void OnOrderRemoved(OrderId member);

  size_t size() const { return entries_.size(); }
  int64_t evictions() const { return evictions_; }

 private:
  /// A cached outcome and its place in the reverse index: `bucket_pos[i]`
  /// is its index in the bucket of member `key.ids[i]`.
  struct Entry {
    CachedGroupPlan cached;
    std::array<uint32_t, kMaxGroupSize> bucket_pos{};
  };
  using Map = std::unordered_map<GroupKey, Entry, GroupKeyHash>;
  using Node = Map::value_type;

  Map entries_;
  /// member -> the cached entries containing it, in no particular order.
  std::unordered_map<OrderId, std::vector<Node*>> containing_;
  int64_t evictions_ = 0;
};

}  // namespace watter

#endif  // WATTER_POOL_GROUP_PLAN_CACHE_H_
