#include "src/baseline/gas.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/core/route_planner.h"
#include "src/geo/grid_index.h"
#include "src/sim/fleet.h"

namespace watter {
namespace {

class GasSimulation {
 public:
  GasSimulation(Scenario* scenario, const GasOptions& options)
      : scenario_(scenario),
        options_(options),
        metrics_(options.metrics),
        planner_(scenario->oracle.get()),
        fleet_(scenario->workers, &scenario->city->graph,
               options.grid_cells),
        waiting_index_(scenario->city->graph.MinCorner(),
                       scenario->city->graph.MaxCorner(),
                       options.grid_cells) {}

  MetricsReport Run() {
    Stopwatch algorithm_time;
    {
      ScopedTimer timer(&algorithm_time);
      const std::vector<Order>& orders = scenario_->orders;
      size_t next_order = 0;
      Time batch_time = orders.empty()
                            ? 0.0
                            : orders.front().release + options_.batch_period;
      while (next_order < orders.size() || !waiting_.empty()) {
        Time arrival = next_order < orders.size()
                           ? orders[next_order].release
                           : kInfCost;
        if (waiting_.empty() && arrival > batch_time) {
          batch_time = arrival + options_.batch_period;
        }
        if (arrival <= batch_time) {
          const Order& order = orders[next_order];
          waiting_.emplace(order.id, order);
          waiting_index_.Insert(
              order.id, scenario_->city->graph.node_point(order.pickup));
          ++next_order;
        } else {
          fleet_.ReleaseUntil(batch_time);
          RunBatch(batch_time);
          last_batch_ = batch_time;
          batch_time += options_.batch_period;
        }
      }
      if (!orders.empty()) {
        metrics_.SetFleetInfo(fleet_.size(),
                              last_batch_ - orders.front().release);
      }
    }
    metrics_.AddAlgorithmTime(algorithm_time.ElapsedSeconds());
    return metrics_.Report();
  }

 private:
  struct Group {
    std::vector<const Order*> members;
    GroupPlan plan;
    double utility = 0.0;  // Sum of member fares (shortest costs).
  };

  void RemoveWaiting(OrderId id) {
    waiting_.erase(id);
    // waiting_ and waiting_index_ are inserted into together, so the index
    // must still hold the id.
    WATTER_CHECK_OK(waiting_index_.Remove(id));
  }

  void RunBatch(Time now) {
    // Expire orders that can no longer be feasibly dispatched.
    std::vector<OrderId> expired;
    for (const auto& [id, order] : waiting_) {
      if (now > order.LatestDispatch()) expired.push_back(id);
    }
    std::sort(expired.begin(), expired.end());
    for (OrderId id : expired) {
      metrics_.RecordRejected(waiting_.at(id));
      RemoveWaiting(id);
    }
    if (waiting_.empty()) return;

    for (WorkerId worker_id : fleet_.IdleWorkerIds()) {
      if (waiting_.empty()) break;
      const Worker& worker = fleet_.worker(worker_id);
      Group best = BestGroupForWorker(worker, now);
      if (best.members.empty()) continue;
      DispatchGroup(worker_id, best, now);
    }
  }

  Group BestGroupForWorker(const Worker& worker, Time now) {
    // Candidate orders: nearest waiting pickups to the worker.
    auto candidate_ids = waiting_index_.KNearest(
        options_.candidate_orders,
        scenario_->city->graph.node_point(worker.location));
    std::vector<const Order*> candidates;
    candidates.reserve(candidate_ids.size());
    for (int64_t id : candidate_ids) {
      candidates.push_back(&waiting_.at(id));
    }

    Group best;
    int evaluated = 0;
    // Additive tree: frontier of feasible groups, extended one order at a
    // time. Candidate indices are strictly increasing within a group, so no
    // group is generated twice.
    struct TreeNode {
      std::vector<int> member_idx;
      int riders = 0;
    };
    std::vector<TreeNode> frontier;
    for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
      frontier.push_back({{i}, candidates[i]->riders});
    }
    while (!frontier.empty() && evaluated < options_.max_groups_per_worker) {
      TreeNode node = frontier.back();
      frontier.pop_back();
      if (node.riders > worker.capacity) continue;
      std::vector<const Order*> members;
      members.reserve(node.member_idx.size());
      double utility = 0.0;
      for (int idx : node.member_idx) {
        members.push_back(candidates[idx]);
        utility += candidates[idx]->shortest_cost;
      }
      ++evaluated;
      auto plan = planner_.PlanBest(members, now, worker.capacity);
      if (!plan.ok()) continue;  // Infeasible: additive property prunes.
      if (best.members.empty() || utility > best.utility ||
          (utility == best.utility &&
           plan->total_cost < best.plan.total_cost)) {
        best.members = members;
        best.plan = std::move(plan).value();
        best.utility = utility;
      }
      if (static_cast<int>(node.member_idx.size()) < kMaxGroupSize) {
        for (int next = node.member_idx.back() + 1;
             next < static_cast<int>(candidates.size()); ++next) {
          frontier.push_back({node.member_idx, node.riders});
          frontier.back().member_idx.push_back(next);
          frontier.back().riders += candidates[next]->riders;
        }
      }
    }
    return best;
  }

  void DispatchGroup(WorkerId worker_id, const Group& group, Time now) {
    const Worker& worker = fleet_.worker(worker_id);
    NodeId first_stop = group.plan.route.stops.front().node;
    double pickup_delay =
        scenario_->oracle->Cost(worker.location, first_stop);
    if (pickup_delay == kInfCost) return;
    for (size_t i = 0; i < group.members.size(); ++i) {
      const Order& member = *group.members[i];
      double response = now - member.release;
      double detour =
          std::max(0.0, group.plan.completion[i] - member.shortest_cost);
      metrics_.RecordServed(member, response, detour,
                            static_cast<int>(group.members.size()));
    }
    metrics_.AddWorkerTravel(pickup_delay + group.plan.total_cost);
    // The worker came from this step's idle probe, so it is still idle.
    WATTER_CHECK_OK(fleet_.Dispatch(worker_id,
                                    now + pickup_delay + group.plan.total_cost,
                                    group.plan.route.stops.back().node));
    for (const Order* member : group.members) RemoveWaiting(member->id);
  }

  Scenario* scenario_;
  GasOptions options_;
  MetricsCollector metrics_;
  RoutePlanner planner_;
  Fleet fleet_;
  GridIndex waiting_index_;
  std::unordered_map<OrderId, Order> waiting_;
  Time last_batch_ = 0.0;
};

}  // namespace

MetricsReport RunGas(Scenario* scenario, const GasOptions& options) {
  GasSimulation simulation(scenario, options);
  return simulation.Run();
}

}  // namespace watter
