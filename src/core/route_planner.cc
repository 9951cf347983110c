#include "src/core/route_planner.h"

#include <algorithm>
#include <array>
#include <string>

namespace watter {
namespace {

// State encoding: (picked mask, dropped mask, last stop index). Stop index
// s in [0, k) is pickup of order s; s in [k, 2k) is drop-off of order s - k.
constexpr int kMaxStops = 2 * kMaxGroupSize;

struct DpCell {
  double cost = kInfCost;
  int8_t prev_last = -1;  // Last stop of the predecessor state.
};

inline int StateIndex(int picked, int dropped, int last, int k) {
  return (picked << k | dropped) * (2 * k) + last;
}

}  // namespace

Result<GroupPlan> RoutePlanner::PlanBest(
    const std::vector<const Order*>& orders, Time depart_time, int capacity) {
  plan_count_.Add(1);
  const int k = static_cast<int>(orders.size());
  if (k == 0) return Status::InvalidArgument("cannot plan an empty group");
  if (k > kMaxGroupSize) {
    return Status::InvalidArgument("group size " + std::to_string(k) +
                                   " exceeds kMaxGroupSize");
  }

  // Stop locations and rider deltas.
  std::array<NodeId, kMaxStops> stop_node{};
  for (int i = 0; i < k; ++i) {
    stop_node[i] = orders[i]->pickup;
    stop_node[k + i] = orders[i]->dropoff;
  }
  // Pairwise leg costs between stops (up to 10x10).
  std::array<std::array<double, kMaxStops>, kMaxStops> leg{};
  for (int a = 0; a < 2 * k; ++a) {
    for (int b = 0; b < 2 * k; ++b) {
      leg[a][b] = a == b ? 0.0 : oracle_->Cost(stop_node[a], stop_node[b]);
    }
  }

  const int full = (1 << k) - 1;
  std::vector<DpCell> dp(static_cast<size_t>(1 << k) * (1 << k) * (2 * k));

  // Seed: start at any pickup (the route's first stop costs nothing;
  // T(L) is measured from l1 per Definition 3).
  for (int i = 0; i < k; ++i) {
    if (orders[i]->riders > capacity) {
      return Status::Infeasible("order exceeds vehicle capacity alone");
    }
    dp[StateIndex(1 << i, 0, i, k)].cost = 0.0;
  }

  // Relax in lexicographic (picked, dropped) order: every transition
  // strictly grows one of the two masks, so this is a topological sweep.
  for (int picked = 1; picked <= full; ++picked) {
    for (int dropped = picked;; dropped = (dropped - 1) & picked) {
      // Iterate submasks of `picked` from `picked` down to 0; process in
      // increasing order via the complement trick below.
      int d = picked & ~dropped;  // Visit small dropped masks first.
      int onboard = 0;
      for (int i = 0; i < k; ++i) {
        if ((picked >> i & 1) && !(d >> i & 1)) onboard += orders[i]->riders;
      }
      for (int last = 0; last < 2 * k; ++last) {
        const DpCell& cell = dp[StateIndex(picked, d, last, k)];
        if (cell.cost == kInfCost) continue;
        // Transition 1: pick up order j.
        for (int j = 0; j < k; ++j) {
          if (picked >> j & 1) continue;
          if (onboard + orders[j]->riders > capacity) continue;
          double cost = cell.cost + leg[last][j];
          if (cost == kInfCost) continue;
          // Prune: even the direct leg to j's drop-off cannot make the
          // deadline any more.
          if (depart_time + cost + leg[j][k + j] > orders[j]->deadline) {
            continue;
          }
          DpCell& next = dp[StateIndex(picked | 1 << j, d, j, k)];
          if (cost < next.cost) {
            next.cost = cost;
            next.prev_last = static_cast<int8_t>(last);
          }
        }
        // Transition 2: drop off order j (must be on board).
        for (int j = 0; j < k; ++j) {
          if (!(picked >> j & 1) || (d >> j & 1)) continue;
          double cost = cell.cost + leg[last][k + j];
          if (cost == kInfCost) continue;
          if (depart_time + cost > orders[j]->deadline) continue;
          DpCell& next = dp[StateIndex(picked, d | 1 << j, k + j, k)];
          if (cost < next.cost) {
            next.cost = cost;
            next.prev_last = static_cast<int8_t>(last);
          }
        }
      }
      if (dropped == 0) break;
    }
  }

  // Best final state: everything picked and dropped.
  double best_cost = kInfCost;
  int best_last = -1;
  for (int last = k; last < 2 * k; ++last) {
    const DpCell& cell = dp[StateIndex(full, full, last, k)];
    if (cell.cost < best_cost) {
      best_cost = cell.cost;
      best_last = last;
    }
  }
  if (best_last < 0) {
    return Status::Infeasible("no route meets the deadline constraints");
  }

  // Reconstruct the stop sequence by walking predecessors.
  std::vector<int> sequence;
  sequence.reserve(2 * k);
  int picked = full, dropped = full, last = best_last;
  while (last >= 0) {
    sequence.push_back(last);
    int prev = dp[StateIndex(picked, dropped, last, k)].prev_last;
    if (last >= k) {
      dropped &= ~(1 << (last - k));
    } else {
      picked &= ~(1 << last);
    }
    last = prev;
  }
  std::reverse(sequence.begin(), sequence.end());

  GroupPlan plan;
  plan.total_cost = best_cost;
  plan.route.stops.reserve(sequence.size());
  plan.route.offsets.reserve(sequence.size());
  double cumulative = 0.0;
  int prev_stop = -1;
  for (int stop : sequence) {
    if (prev_stop >= 0) cumulative += leg[prev_stop][stop];
    plan.route.stops.push_back(Stop{stop_node[stop],
                                    orders[stop % k]->id, stop < k});
    plan.route.offsets.push_back(cumulative);
    prev_stop = stop;
  }
  plan.completion.assign(k, kInfCost);
  for (size_t s = 0; s < plan.route.stops.size(); ++s) {
    if (!plan.route.stops[s].is_pickup) {
      plan.completion[sequence[s] - k] = plan.route.offsets[s];
    }
  }
  plan.latest_departure = kInfCost;
  for (int i = 0; i < k; ++i) {
    plan.latest_departure =
        std::min(plan.latest_departure,
                 orders[i]->deadline - plan.completion[i]);
  }
  return plan;
}

}  // namespace watter
