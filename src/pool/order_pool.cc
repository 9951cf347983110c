#include "src/pool/order_pool.h"

namespace watter {

Status OrderPool::Insert(const Order& order, Time now) {
  std::vector<PairPlanSeed> seeds;
  auto gained = graph_.Insert(order, now, &seeds);
  if (!gained.ok()) return gained.status();
  // Seed the group-plan cache with the pair plans edge certification just
  // computed: the next RefreshBestGroups would otherwise re-plan exactly
  // these member sets as cache misses.
  for (const PairPlanSeed& seed : seeds) {
    const Order* other = graph_.GetOrder(seed.other);
    if (other != nullptr) best_.SeedPlan(order, *other, seed.plan);
  }
  best_.MarkDirty(order.id);
  for (OrderId neighbor : *gained) best_.MarkDirty(neighbor);
  return Status::Ok();
}

Status OrderPool::Remove(OrderId id) {
  auto neighbors = graph_.Remove(id);
  if (!neighbors.ok()) return neighbors.status();
  best_.OnOrderRemoved(id);
  return Status::Ok();
}

void OrderPool::ExpireEdges(Time now) {
  for (OrderId affected : graph_.ExpireEdges(now)) {
    best_.MarkDirty(affected);
  }
}

PoolStats OrderPool::Stats() const {
  return {.best_group_recomputes = best_.recompute_count(),
          .groups_evaluated = best_.groups_evaluated(),
          .planner_plans = planner_.plan_count(),
          .pair_tests = graph_.pair_tests(),
          .plan_cache_hits = best_.plan_cache_hits(),
          .plan_cache_misses = best_.plan_cache_misses(),
          .plan_cache_replans = best_.plan_cache_replans(),
          .plan_cache_seeds = best_.plan_cache_seeds(),
          .plan_cache_evictions = best_.plan_cache_evictions(),
          .reverse_index_fanout = best_.reverse_index_fanout()};
}

}  // namespace watter
