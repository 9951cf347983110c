#include "src/pool/order_pool.h"

namespace watter {

std::vector<Status> OrderPool::Insert(std::span<const Arrival> arrivals) {
  std::vector<InsertOutcome> outcomes = graph_.Insert(arrivals);
  std::vector<Status> statuses;
  statuses.reserve(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    InsertOutcome& outcome = outcomes[i];
    if (outcome.ok()) {
      const Order& order = arrivals[i].order;
      best_.MarkDirty(order.id);
      // Seed the group-plan cache with the pair plans edge certification
      // just computed: the next RefreshBestGroups would otherwise re-plan
      // exactly these member sets as cache misses.
      for (const PairPlanSeed& seed : outcome.edges) {
        best_.SeedPlan(order, *graph_.GetOrder(seed.other), seed.plan);
        best_.MarkDirty(seed.other);
      }
    }
    statuses.push_back(std::move(outcome.status));
  }
  return statuses;
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
