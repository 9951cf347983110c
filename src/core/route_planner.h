// Exact small-k dial-a-ride route planner.
//
// Given up to kMaxGroupSize orders, finds the minimum-total-cost stop
// sequence that picks every rider up before dropping them off, never exceeds
// the vehicle capacity, and — for a given departure time — meets every
// order's drop-off deadline. Exactness matters: the paper's shareability
// edges, group expiries (Eq. 3) and extra-time accounting all reference the
// *minimal travel cost* feasible route.
//
// Algorithm: dynamic programming over states (picked-set, dropped-set,
// last-stop). With k <= 5 there are at most 3^k * 2k reachable states, so a
// plan costs microseconds.
#ifndef WATTER_CORE_ROUTE_PLANNER_H_
#define WATTER_CORE_ROUTE_PLANNER_H_

#include <vector>

#include "src/common/per_thread_counter.h"
#include "src/common/result.h"
#include "src/core/route.h"
#include "src/core/types.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {

/// The outcome of planning a group's route.
struct GroupPlan {
  Route route;

  /// T(L): total travel cost of the route.
  double total_cost = 0.0;

  /// completion[i] = T(L^(i)) for input order i: travel cost from the first
  /// stop through order i's drop-off.
  std::vector<double> completion;

  /// Latest departure timestamp from the first stop such that every order
  /// still meets its deadline: min_i (deadline_i - completion_i). The pool
  /// uses this as the group/edge expiry (Eq. 3).
  Time latest_departure = 0.0;
};

/// Plans minimum-cost feasible routes for small order groups.
///
/// Thread safety: PlanBest keeps all working state on the stack, so
/// concurrent calls are safe as long as the bound oracle is (all oracles
/// are; see travel_time_oracle.h).
class RoutePlanner {
 public:
  /// Binds to a travel-time oracle (not owned).
  explicit RoutePlanner(TravelTimeOracle* oracle) : oracle_(oracle) {}

  /// Returns the cheapest feasible route for `orders` departing the first
  /// stop at `depart_time` with the given vehicle `capacity`.
  ///
  /// Errors: InvalidArgument for empty/oversized groups, Infeasible when no
  /// route satisfies the deadline + capacity constraints.
  Result<GroupPlan> PlanBest(const std::vector<const Order*>& orders,
                             Time depart_time, int capacity);

  /// Number of PlanBest calls. Exact: each call adds one to the calling
  /// thread's own slot, so the pool threads' pair tests share no line.
  int64_t plan_count() const { return plan_count_.value(); }

 private:
  TravelTimeOracle* oracle_;
  PerThreadCounter plan_count_;
};

}  // namespace watter

#endif  // WATTER_CORE_ROUTE_PLANNER_H_
