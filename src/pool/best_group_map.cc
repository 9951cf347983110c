#include "src/pool/best_group_map.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"

namespace watter {
namespace {

// Minimum number of work items before a refresh phase fans out; one
// anchor's clique enumeration or one group plan is the unit of work, so
// even small batches amortize the pool wake-up.
constexpr size_t kParallelGrain = 4;

}  // namespace

void BestGroupMap::OnOrderRemoved(OrderId member) {
  // Reverse-membership dirtying: O(owners of the departed member), where the
  // previous implementation scanned every cached best group in the map.
  auto bucket = owners_of_.find(member);
  if (bucket != owners_of_.end()) {
    for (OrderId owner : bucket->second) {
      if (owner == member) continue;
      ++reverse_index_fanout_;
      dirty_.insert(owner);
    }
  }
  RemoveOwnerEntries(member);
  owners_of_.erase(member);
  best_.erase(member);
  dirty_.erase(member);
  none_.erase(member);
  plan_cache_.OnOrderRemoved(member);
}

void BestGroupMap::RemoveOwnerEntries(OrderId owner) {
  auto it = best_.find(owner);
  if (it == best_.end()) return;
  for (OrderId member : it->second.members) {
    auto bucket = owners_of_.find(member);
    if (bucket == owners_of_.end()) continue;
    bucket->second.erase(owner);
    if (bucket->second.empty()) owners_of_.erase(bucket);
  }
}

bool BestGroupMap::NeedsRefresh(OrderId id, Time now) const {
  if (dirty_.count(id) > 0) return true;
  if (none_.count(id) > 0) return false;  // Known groupless until dirty.
  auto it = best_.find(id);
  if (it == best_.end()) return true;
  if (it->second.plan.latest_departure < now) return true;  // Group expired.
  return false;
}

const BestGroup* BestGroupMap::PeekBest(OrderId id, Time now) const {
  if (!graph_->Contains(id)) return nullptr;
  if (dirty_.count(id) > 0) return nullptr;  // Stale — caller must refresh.
  auto it = best_.find(id);
  if (it == best_.end()) return nullptr;
  if (it->second.plan.latest_departure < now) return nullptr;
  return &it->second;
}

const BestGroup* BestGroupMap::BestFor(OrderId id, Time now) {
  if (!graph_->Contains(id)) return nullptr;
  if (NeedsRefresh(id, now)) Recompute(id, now);
  auto it = best_.find(id);
  if (it == best_.end()) return nullptr;
  if (it->second.plan.latest_departure < now) return nullptr;
  return &it->second;
}

BestGroupMap::CandidateScan BestGroupMap::ScanCandidates(OrderId id,
                                                         Time now) const {
  CandidateScan scan;
  const Order* anchor = graph_->GetOrder(id);
  if (anchor == nullptr) return scan;

  auto classify = [&](std::span<const OrderId> members, int riders) {
    int64_t index = scan.groups_evaluated++;
    // Only plannable cliques: oversized ones (CliqueOptions::max_size above
    // kMaxGroupSize) must not reach the fixed-width GroupKey, and more
    // riders than the fleet capacity never fit.
    if (members.size() > static_cast<size_t>(kMaxGroupSize) ||
        riders > capacity_) {
      return;
    }
    GroupKey key(members);
    const CachedGroupPlan* entry = plan_cache_.Find(key);
    if (entry == nullptr) {
      ++scan.misses;
      scan.need_plan.emplace_back(key, index);
    } else if (!entry->feasible || entry->plan.latest_departure >= now) {
      // Cached verdict still answers the query (infeasibility is permanent;
      // an unexpired plan is still the min-cost feasible plan — see
      // group_plan_cache.h).
      ++scan.hits;
      Offer(key, index, entry, now, &scan.best_hit);
    } else {
      // The cached min-cost route expired; a costlier route with more
      // deadline slack may still exist, so re-plan at the current time.
      ++scan.replans;
      scan.need_plan.emplace_back(key, index);
    }
  };

  if (include_singletons_) {
    const OrderId self[] = {id};
    classify(std::span<const OrderId>(self), anchor->riders);
  }
  thread_local CliqueEnumerator enumerator;
  int visited = enumerator.Enumerate(
      *graph_, id, clique_options_, [&](std::span<const OrderId> members) {
        classify(members, enumerator.riders());
      });
  scan.truncated = visited >= clique_options_.max_visits;
  return scan;
}

void BestGroupMap::Offer(const GroupKey& key, int64_t index,
                         const CachedGroupPlan* entry, Time now,
                         Leader* leader) const {
  if (entry == nullptr || !entry->feasible) return;
  if (entry->plan.latest_departure < now) return;
  double size = static_cast<double>(key.size);
  double avg_detour = entry->sum_detour / size;
  double avg_response = now - entry->sum_release / size;
  double avg = weights_.alpha * avg_detour + weights_.beta * avg_response;
  if (leader->index < 0 || avg < leader->avg ||
      (avg == leader->avg && index < leader->index)) {
    *leader = Leader{key, avg, index};
  }
}

CachedGroupPlan BestGroupMap::PlanGroup(const GroupKey& key, Time now) const {
  CachedGroupPlan entry;
  std::vector<const Order*> orders;
  orders.reserve(static_cast<size_t>(key.size));
  for (OrderId member : key.members()) {
    const Order* order = graph_->GetOrder(member);
    if (order == nullptr) return entry;  // Unreachable: scan filtered these.
    orders.push_back(order);
  }
  auto plan = planner_->PlanBest(orders, now, capacity_);
  if (!plan.ok()) return entry;
  entry.feasible = true;
  for (size_t i = 0; i < orders.size(); ++i) {
    entry.sum_detour += plan->completion[i] - orders[i]->shortest_cost;
    entry.sum_release += orders[i]->release;
  }
  entry.plan = std::move(plan).value();
  return entry;
}

void BestGroupMap::Commit(OrderId id, const CandidateScan& scan, Time now) {
  // Phase 2 planned every set in need_plan; rank them against the best hit.
  Leader best = scan.best_hit;
  for (const auto& [key, index] : scan.need_plan) {
    Offer(key, index, plan_cache_.Find(key), now, &best);
  }

  ++recompute_count_;
  groups_evaluated_ += scan.groups_evaluated;
  dirty_.erase(id);
  RemoveOwnerEntries(id);
  best_.erase(id);
  none_.erase(id);
  if (best.index >= 0) {
    const CachedGroupPlan& entry = *plan_cache_.Find(best.key);
    BestGroup group;
    group.members.assign(best.key.members().begin(),
                         best.key.members().end());
    group.plan = entry.plan;  // Copied: the cache retains its entry.
    group.sum_detour = entry.sum_detour;
    group.sum_release = entry.sum_release;
    for (OrderId member : group.members) {
      owners_of_[member].insert(id);
    }
    best_.emplace(id, std::move(group));
  } else if (!scan.truncated) {
    // Only a complete search proves the order groupless (see none_ docs).
    none_.insert(id);
  }
}

void BestGroupMap::RefreshInternal(const std::vector<OrderId>& anchors,
                                   Time now) {
  if (anchors.empty()) return;

  // Phase 1: enumerate every anchor's candidates once, against the cache
  // frozen at batch entry. Lookups see only pre-batch state, so each
  // anchor's outcome — and every counter derived below — is a pure function
  // of (graph, cache, anchors, now), never of thread count or sibling
  // anchors.
  std::vector<CandidateScan> scans;
  std::vector<GroupKey> need;
  {
    WATTER_TRACE_SPAN("refresh.scan");
    executor_->ParallelMap(anchors.size(), kParallelGrain, &scans,
                           [&](size_t i) {
                             return ScanCandidates(anchors[i], now);
                           });

    // Merge: the distinct member sets needing a plan, in lexicographic key
    // order. This is the intra-batch dedupe — the k anchors sharing a
    // clique contribute the key k times but it is planned once.
    for (const CandidateScan& scan : scans) {
      plan_cache_hits_ += scan.hits;
      plan_cache_misses_ += scan.misses;
      plan_cache_replans_ += scan.replans;
      for (const auto& [key, index] : scan.need_plan) need.push_back(key);
    }
    std::sort(need.begin(), need.end());
    need.erase(std::unique(need.begin(), need.end()), need.end());
  }

  // Phase 2: plan each distinct member set exactly once, then commit the
  // outcomes serially in key order.
  {
    WATTER_TRACE_SPAN("refresh.plan");
    std::vector<CachedGroupPlan> planned;
    executor_->ParallelMap(need.size(), kParallelGrain, &planned,
                           [&](size_t i) { return PlanGroup(need[i], now); });
    for (size_t i = 0; i < need.size(); ++i) {
      plan_cache_.Put(need[i], std::move(planned[i]));
    }
  }

  // Phase 3: rank each anchor's planned sets against its best hit and
  // commit serially in `anchors` order — identical to a serial per-anchor
  // recompute.
  {
    WATTER_TRACE_SPAN("refresh.select");
    for (size_t i = 0; i < anchors.size(); ++i) {
      Commit(anchors[i], scans[i], now);
    }
  }
}

void BestGroupMap::SeedPlan(const Order& order, const Order& other,
                            const GroupPlan& plan) {
  const OrderId members[] = {std::min(order.id, other.id),
                             std::max(order.id, other.id)};
  GroupKey key{std::span<const OrderId>(members)};
  // Never overwrite: an existing entry is at least as fresh as the seed
  // (both are exact plans; Put's reverse index also assumes first-insert).
  if (plan_cache_.Find(key) != nullptr) return;

  CachedGroupPlan entry;
  entry.feasible = true;
  entry.plan = plan;
  if (order.id > other.id) {
    // PlanGroup aligns completion with the sorted member ids; the edge plan
    // was computed with input order {order, other}.
    std::swap(entry.plan.completion[0], entry.plan.completion[1]);
  }
  entry.sum_detour = (plan.completion[0] - order.shortest_cost) +
                     (plan.completion[1] - other.shortest_cost);
  entry.sum_release = order.release + other.release;
  plan_cache_.Put(key, std::move(entry));
  ++plan_cache_seeds_;
}

void BestGroupMap::Recompute(OrderId id, Time now) {
  RefreshInternal({id}, now);
}

void BestGroupMap::RefreshMany(const std::vector<OrderId>& ids, Time now) {
  // Freeze the stale set up front (in the caller's order) so the work list
  // does not depend on scheduling.
  std::vector<OrderId> stale;
  for (OrderId id : ids) {
    if (graph_->Contains(id) && NeedsRefresh(id, now)) stale.push_back(id);
  }
  RefreshInternal(stale, now);
}

}  // namespace watter
