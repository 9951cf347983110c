#include "src/strategy/decision.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace watter {

bool DecideGroupDispatch(const BestGroup& group,
                         const std::vector<const Order*>& members,
                         const std::vector<double>& thresholds, Time now,
                         const ExtraTimeWeights& weights) {
  DecisionInputs inputs;
  inputs.now = now;
  inputs.average_extra_time = group.AverageExtraTime(now, weights);
  inputs.earliest_wait_deadline = std::numeric_limits<double>::infinity();
  double threshold_sum = 0.0;
  for (size_t i = 0; i < members.size(); ++i) {
    inputs.earliest_wait_deadline =
        std::min(inputs.earliest_wait_deadline, members[i]->WaitDeadline());
    threshold_sum += thresholds[i];
  }
  inputs.average_threshold =
      threshold_sum / static_cast<double>(members.size());
  return MakeDispatchDecision(inputs);
}

bool OfferBefore(const DispatchOffer& a, const DispatchOffer& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.anchor != b.anchor) return a.anchor < b.anchor;
  return a.worker < b.worker;
}

std::vector<OfferOutcome> ResolveOffers(std::vector<DispatchOffer>* offers) {
  std::sort(offers->begin(), offers->end(), OfferBefore);
  std::vector<OfferOutcome> outcomes(offers->size());
  std::unordered_set<WorkerId> claimed_workers;
  std::unordered_set<OrderId> dispatched_orders;
  for (size_t i = 0; i < offers->size(); ++i) {
    const DispatchOffer& offer = (*offers)[i];
    // Order overlap beats worker contention in the classification: an offer
    // whose riders already left the pool has nothing to dispatch, whoever
    // holds the worker.
    bool member_gone = false;
    for (OrderId member : offer.members) {
      if (dispatched_orders.count(member) > 0) {
        member_gone = true;
        break;
      }
    }
    if (member_gone) {
      outcomes[i] = OfferOutcome::kOrderConflict;
      continue;
    }
    if (claimed_workers.count(offer.worker) > 0) {
      outcomes[i] = OfferOutcome::kWorkerConflict;
      continue;
    }
    claimed_workers.insert(offer.worker);
    dispatched_orders.insert(offer.members.begin(), offer.members.end());
    outcomes[i] = OfferOutcome::kCommitted;
  }
  return outcomes;
}

}  // namespace watter
