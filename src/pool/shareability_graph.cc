#include "src/pool/shareability_graph.h"

#include <algorithm>
#include <cassert>
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

std::vector<InsertOutcome> ShareabilityGraph::Insert(
    std::span<const Arrival> arrivals) {
  WATTER_TRACE_SPAN_HOT("graph.insert");
  std::vector<InsertOutcome> outcomes(arrivals.size());

  // Residents in ascending-id order, listed once for the whole batch.
  auto by_id = [](const Order* a, const Order* b) { return a->id < b->id; };
  std::vector<const Order*> residents;
  residents.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) residents.push_back(&entry.order);
  std::sort(residents.begin(), residents.end(), by_id);

  // Candidate partners of each arrival, quick-rejected up front: an order
  // past its latest dispatch can never be part of a feasible route, and
  // the planner would discover that the expensive way. An arrival's
  // candidates are the residents and the earlier admitted arrivals of the
  // batch — exactly the pool a sequential insert would see, since nothing
  // else changes between arrivals — sorted by id, which fixes the commit
  // order below for any thread count (ParallelMaintenanceMatchesSerial,
  // BatchInsertMatchesSequential). Arrival i's tests are
  // pairs[first[i], first[i + 1]).
  struct PairTest {
    const Order* arrival;
    const Order* partner;
    Time now;
  };
  std::vector<PairTest> pairs;
  std::vector<size_t> first(arrivals.size() + 1, 0);
  std::vector<const Order*> admitted;
  std::vector<const Order*> candidates;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    first[i] = pairs.size();
    const Order& order = arrivals[i].order;
    const Time now = arrivals[i].now;
    const bool taken =
        entries_.count(order.id) > 0 ||
        std::any_of(admitted.begin(), admitted.end(),
                    [&order](const Order* a) { return a->id == order.id; });
    if (taken) {
      outcomes[i].status = Status::AlreadyExists(
          "order " + std::to_string(order.id) + " already pooled");
      continue;
    }
    if (now <= order.LatestDispatch()) {
      candidates.clear();
      for (const Order* other : residents) {
        if (now <= other->LatestDispatch()) candidates.push_back(other);
      }
      for (const Order* other : admitted) {
        if (now <= other->LatestDispatch()) candidates.push_back(other);
      }
      std::sort(candidates.begin(), candidates.end(), by_id);
      for (const Order* partner : candidates) {
        pairs.push_back(PairTest{&order, partner, now});
      }
    }
    admitted.push_back(&order);
  }
  first[arrivals.size()] = pairs.size();
  pair_tests_ += static_cast<int64_t>(pairs.size());

  // Fan-out phase: one fork-join for the whole batch. Pair-feasibility
  // tests are pure (they read only the two orders, and the planner and
  // oracle are thread-safe; the graph is not mutated), each writing only
  // its own slot.
  auto test_pair = [&](size_t k) -> std::optional<PairPlanSeed> {
    const PairTest& test = pairs[k];
    auto plan = planner_->PlanBest({test.arrival, test.partner}, test.now,
                                   options_.capacity);
    if (!plan.ok()) return std::nullopt;
    if (options_.require_overlap && !RouteInterleaves(plan->route)) {
      return std::nullopt;
    }
    return PairPlanSeed{test.partner->id, std::move(plan).value()};
  };
  std::vector<std::optional<PairPlanSeed>> tested;
  executor_->ParallelMap(pairs.size(), kParallelGrain, &tested, test_pair);

  // Ordered commit, arrival by arrival: mirror each surviving edge on both
  // endpoints, ascending by partner id, and surface the plan behind it for
  // cache seeding. An earlier arrival's entry exists before a later one
  // links to it.
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (!outcomes[i].ok()) continue;
    Entry entry;
    entry.order = arrivals[i].order;
    entry.slot = AcquireSlot(entry.order.riders);
    for (size_t k = first[i]; k < first[i + 1]; ++k) {
      if (!tested[k].has_value()) continue;
      PairPlanSeed& seed = *tested[k];
      Entry& partner = entries_.find(seed.other)->second;
      const Time expiry = seed.plan.latest_departure;
      const double cost = seed.plan.total_cost;
      entry.edges.push_back(ShareEdge{seed.other, partner.slot, expiry, cost});
      partner.edges.push_back(
          ShareEdge{entry.order.id, entry.slot, expiry, cost});
      SetBit(Row(entry.slot), partner.slot);
      SetBit(Row(partner.slot), entry.slot);
      ++edge_count_;
      outcomes[i].edges.push_back(std::move(seed));
    }
    entries_.emplace(entry.order.id, std::move(entry));
  }
  return outcomes;
}

uint32_t ShareabilityGraph::AcquireSlot(int riders) {
  if (free_slots_.empty()) {
    // Double the capacity (64 slots at first): copy each row to the new
    // stride, whose added words start zero, and free the new slots.
    const size_t old_capacity = riders_.size();
    const size_t old_words = words_per_row_;
    words_per_row_ = std::max<size_t>(1, 2 * old_words);
    const size_t capacity = 64 * words_per_row_;
    std::vector<uint64_t> grown(capacity * words_per_row_, 0);
    for (size_t row = 0; row < old_capacity; ++row) {
      std::copy_n(&adjacency_[row * old_words], old_words,
                  &grown[row * words_per_row_]);
    }
    adjacency_ = std::move(grown);
    riders_.resize(capacity);
    for (size_t slot = capacity; slot > old_capacity; --slot) {
      free_slots_.push_back(static_cast<uint32_t>(slot - 1));
    }
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  assert(std::all_of(Row(slot), Row(slot) + words_per_row_,
                     [](uint64_t word) { return word == 0; }));
  riders_[slot] = riders;
  return slot;
}

Result<std::vector<OrderId>> ShareabilityGraph::Remove(OrderId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("order " + std::to_string(id) + " not pooled");
  }
  const uint32_t slot = it->second.slot;
  std::vector<OrderId> neighbors;
  neighbors.reserve(it->second.edges.size());
  for (const ShareEdge& edge : it->second.edges) {
    neighbors.push_back(edge.other);
    RemoveEdgeTo(edge.other, id);
    ClearBit(Row(slot), edge.other_slot);
    ClearBit(Row(edge.other_slot), slot);
    --edge_count_;
  }
  free_slots_.push_back(slot);
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
  // Shard by entry — each task trims exactly one adjacency list and clears
  // bits in that entry's row only, so shards touch disjoint state. Both
  // directions of an edge carry the same expiry, so the partner's task
  // clears the mirror bit. The snapshot is sorted so the affected list is
  // identical for any thread count.
  std::vector<OrderId> ids = OrderIds();
  std::sort(ids.begin(), ids.end());
  std::vector<int64_t> kept(ids.size(), 0);
  std::vector<char> trimmed(ids.size(), 0);
  executor_->ParallelFor(
      ids.size(), kParallelGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          Entry& entry = entries_.find(ids[i])->second;
          uint64_t* row = Row(entry.slot);
          const size_t removed =
              std::erase_if(entry.edges, [&](const ShareEdge& e) {
                const bool expired = e.expiry < now;
                if (expired) ClearBit(row, e.other_slot);
                return expired;
              });
          kept[i] = static_cast<int64_t>(entry.edges.size());
          trimmed[i] = removed > 0 ? 1 : 0;
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

const std::vector<ShareEdge>& ShareabilityGraph::Neighbors(OrderId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? empty_ : it->second.edges;
}

bool ShareabilityGraph::HasEdge(OrderId a, OrderId b) const {
  const std::optional<uint32_t> slot_a = SlotOf(a);
  const std::optional<uint32_t> slot_b = SlotOf(b);
  return slot_a.has_value() && slot_b.has_value() &&
         Adjacent(*slot_a, *slot_b);
}

std::optional<uint32_t> ShareabilityGraph::SlotOf(OrderId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second.slot;
}

std::vector<OrderId> ShareabilityGraph::OrderIds() const {
  std::vector<OrderId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

}  // namespace watter
