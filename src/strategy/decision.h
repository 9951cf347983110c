// Algorithm 2 (the average extra-time threshold-based grouping strategy)
// and the batched dispatch offer machinery (docs/DISPATCH.md): offer
// generation is split from the commit so a check round can propose offers
// in parallel and resolve conflicts in one deterministic sorted pass — the
// KIT sorted-offers scheme.
#ifndef WATTER_STRATEGY_DECISION_H_
#define WATTER_STRATEGY_DECISION_H_

#include <vector>

#include "src/core/route_planner.h"
#include "src/core/types.h"
#include "src/pool/best_group_map.h"

namespace watter {

/// Inputs of one hold/dispatch decision for a candidate group.
struct DecisionInputs {
  double average_extra_time = 0.0;        ///< \bar{te} (Algorithm 2 line 4).
  double average_threshold = 0.0;         ///< \bar{theta} (line 5).
  Time earliest_wait_deadline = 0.0;      ///< min_i (t(i) + eta(i)) (line 1).
  Time now = 0.0;                         ///< System timestamp ts.
};

/// Algorithm 2: dispatch when the earliest member's waiting window has
/// elapsed, or when the group's average extra time is within the average
/// expected threshold.
inline bool MakeDispatchDecision(const DecisionInputs& inputs) {
  if (inputs.now > inputs.earliest_wait_deadline) return true;  // Lines 2-3.
  return inputs.average_extra_time <= inputs.average_threshold;  // Line 6.
}

/// Algorithm 2 for a concrete best group: `thresholds[i]` is theta for
/// `members[i]`. Both engines query their (stateful, non-thread-safe)
/// provider serially and pass the answers here; the batched engine then
/// decides in its parallel propose phase.
bool DecideGroupDispatch(const BestGroup& group,
                         const std::vector<const Order*>& members,
                         const std::vector<double>& thresholds, Time now,
                         const ExtraTimeWeights& weights);

/// One candidate dispatch of a check round: a group (or solo order) bound
/// to a concrete worker, with the cost that ranks it in the commit pass.
/// Offers are produced in parallel against frozen pool and fleet state;
/// `anchor` (the proposing pooled order) is unique per offer and is what
/// makes the sort below a total order.
struct DispatchOffer {
  OrderId anchor = kInvalidOrder;
  std::vector<OrderId> members;     ///< Sorted; includes the anchor.
  int riders = 0;                   ///< Seats the members need.
  WorkerId worker = kInvalidWorker;
  double pickup_delay = 0.0;        ///< Worker location -> first stop.
  double cost = 0.0;                ///< Ranking key: pickup delay + route.
  GroupPlan plan;                   ///< Copied: survives pool mutation.
};

/// The sorted-offers total order: cheapest first; ties broken by anchor id
/// then worker id. Anchor ids are unique within a round, so the order is
/// total and the sorted sequence — hence the whole commit pass — is
/// independent of the (thread-count-dependent) propose completion order.
bool OfferBefore(const DispatchOffer& a, const DispatchOffer& b);

/// Outcome of conflict resolution for one offer.
enum class OfferOutcome {
  kCommitted,       ///< Won its worker and all its members.
  kWorkerConflict,  ///< Worker already claimed by a cheaper offer.
  kOrderConflict,   ///< Some member already dispatched by a cheaper offer.
};

/// The deterministic commit-pass core: sorts `offers` in place by
/// OfferBefore, then greedily accepts each offer whose worker is still
/// unclaimed and whose members are all still undispatched. Returns one
/// outcome per offer, aligned with the *sorted* order. Pure — the platform
/// applies kCommitted outcomes to the real fleet/pool, and the conflict
/// tests (a case table and a random-round property test) exercise this
/// function directly.
std::vector<OfferOutcome> ResolveOffers(std::vector<DispatchOffer>* offers);

}  // namespace watter

#endif  // WATTER_STRATEGY_DECISION_H_
