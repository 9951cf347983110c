#include "src/pool/shareability_graph.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "src/obs/trace.h"

namespace watter {
namespace {

// Minimum shard size before a maintenance loop fans out to the executor;
// below this the planner calls are cheaper than waking the pool.
constexpr size_t kParallelGrain = 16;

/// True if the route has riders of two different orders on board for a
/// strictly positive duration (i.e. pooling actually happens; a pickup at
/// the exact node where a partner alights does not count).
bool RouteInterleaves(const Route& route) {
  int onboard_orders = 0;
  for (size_t s = 0; s + 1 < route.stops.size(); ++s) {
    onboard_orders += route.stops[s].is_pickup ? 1 : -1;
    if (onboard_orders >= 2 &&
        route.offsets[s + 1] > route.offsets[s]) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<std::vector<OrderId>> ShareabilityGraph::Insert(
    const Order& order, Time now, std::vector<PairPlanSeed>* pair_plans) {
  WATTER_TRACE_SPAN_HOT("graph.insert");
  if (entries_.count(order.id) > 0) {
    return Status::AlreadyExists("order " + std::to_string(order.id) +
                                 " already pooled");
  }
  Entry entry;
  entry.order = order;
  entry.inserted_at = now;

  // Candidate partners in ascending-id order, quick-rejected up front: an
  // order past its latest dispatch can never be part of a feasible route,
  // and the planner would discover that the expensive way. The sorted list
  // fixes the commit order below for any thread count; see the
  // ParallelMaintenanceMatchesSerial property.
  std::vector<OrderId> candidates;
  if (now <= order.LatestDispatch()) {
    candidates.reserve(entries_.size());
    for (const auto& [other_id, other] : entries_) {
      if (now > other.order.LatestDispatch()) continue;
      candidates.push_back(other_id);
    }
    std::sort(candidates.begin(), candidates.end());
  }
  pair_tests_ += static_cast<int64_t>(candidates.size());

  // Fan-out phase: pair-feasibility tests are pure (planner + oracle are
  // thread-safe; the graph is not mutated), each writing only its own slot.
  struct TestedEdge {
    ShareEdge edge;
    GroupPlan plan;
  };
  auto test_pair = [&](size_t i) -> std::optional<TestedEdge> {
    const Order& candidate = entries_.find(candidates[i])->second.order;
    auto plan = planner_->PlanBest({&entry.order, &candidate}, now,
                                   options_.capacity);
    if (!plan.ok()) return std::nullopt;
    if (options_.require_overlap && !RouteInterleaves(plan->route)) {
      return std::nullopt;
    }
    ShareEdge edge{candidates[i], plan->latest_departure, plan->total_cost};
    return TestedEdge{edge, std::move(plan).value()};
  };
  std::vector<std::optional<TestedEdge>> tested;
  executor_->ParallelMap(candidates.size(), kParallelGrain, &tested,
                         test_pair);

  // Ordered commit: mirror each surviving edge on both endpoints, ascending
  // by candidate id, and surface the plan behind it for cache seeding.
  std::vector<OrderId> gained;
  for (std::optional<TestedEdge>& t : tested) {
    if (!t.has_value()) continue;
    entry.edges.push_back(t->edge);
    entries_.find(t->edge.other)
        ->second.edges.push_back(
            ShareEdge{order.id, t->edge.expiry, t->edge.pair_cost});
    ++edge_count_;
    gained.push_back(t->edge.other);
    if (pair_plans != nullptr) {
      pair_plans->push_back(PairPlanSeed{t->edge.other, std::move(t->plan)});
    }
  }
  entries_.emplace(order.id, std::move(entry));
  return gained;
}

Result<std::vector<OrderId>> ShareabilityGraph::Remove(OrderId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("order " + std::to_string(id) + " not pooled");
  }
  std::vector<OrderId> neighbors;
  neighbors.reserve(it->second.edges.size());
  for (const ShareEdge& edge : it->second.edges) {
    neighbors.push_back(edge.other);
    RemoveEdgeTo(edge.other, id);
    --edge_count_;
  }
  entries_.erase(it);
  return neighbors;
}

void ShareabilityGraph::RemoveEdgeTo(OrderId from, OrderId to) {
  auto it = entries_.find(from);
  if (it == entries_.end()) return;
  auto& edges = it->second.edges;
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [to](const ShareEdge& e) {
                               return e.other == to;
                             }),
              edges.end());
}

std::vector<OrderId> ShareabilityGraph::ExpireEdges(Time now) {
  // Shard by entry — each task trims exactly one adjacency list, so shards
  // touch disjoint state. The snapshot is sorted so the affected list is
  // identical for any thread count.
  std::vector<OrderId> ids = OrderIds();
  std::sort(ids.begin(), ids.end());
  std::vector<int64_t> kept(ids.size(), 0);
  std::vector<char> trimmed(ids.size(), 0);
  executor_->ParallelFor(
      ids.size(), kParallelGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          auto& edges = entries_.find(ids[i])->second.edges;
          size_t before = edges.size();
          edges.erase(std::remove_if(edges.begin(), edges.end(),
                                     [now](const ShareEdge& e) {
                                       return e.expiry < now;
                                     }),
                      edges.end());
          kept[i] = static_cast<int64_t>(edges.size());
          trimmed[i] = edges.size() != before ? 1 : 0;
        }
      });

  // Ordered reduction: rebuild the affected list and the edge count from
  // the per-entry results.
  std::vector<OrderId> affected;
  int64_t directed = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (trimmed[i]) affected.push_back(ids[i]);
    directed += kept[i];
  }
  // Each expired edge was trimmed from both endpoints.
  edge_count_ = directed / 2;
  return affected;
}

const Order* ShareabilityGraph::GetOrder(OrderId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.order;
}

Time ShareabilityGraph::InsertedAt(OrderId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? -1.0 : it->second.inserted_at;
}

const std::vector<ShareEdge>& ShareabilityGraph::Neighbors(OrderId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? empty_ : it->second.edges;
}

bool ShareabilityGraph::HasEdge(OrderId a, OrderId b) const {
  for (const ShareEdge& edge : Neighbors(a)) {
    if (edge.other == b) return true;
  }
  return false;
}

std::vector<OrderId> ShareabilityGraph::OrderIds() const {
  std::vector<OrderId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

}  // namespace watter
