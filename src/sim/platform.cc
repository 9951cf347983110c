#include "src/sim/platform.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/obs/histogram_registry.h"
#include "src/obs/trace.h"

namespace watter {
namespace {

PoolOptions MergePoolOptions(PoolOptions base, const Scenario& scenario) {
  base.capacity = scenario.options.max_capacity;
  return base;
}

// WorkloadOptions::num_threads stays a fallback only while
// benchmark/watter_bench.cc sets it (ROADMAP.md item C's benchmark-only
// change removes it).
int ResolveThreads(const SimOptions& options, const Scenario& scenario) {
  int threads =
      options.num_threads != 0 ? options.num_threads
                               : scenario.options.num_threads;
  return threads <= 0 ? ThreadPool::DefaultThreads() : threads;
}

FaultSpec ParseFaults(const std::string& spec) {
  if (spec.empty()) return FaultSpec{};
  Result<FaultSpec> parsed = ParseFaultSpec(spec);
  // The CLI validates specs before construction; an invalid spec reaching
  // an embedder is a configuration programmer error.
  WATTER_CHECK(parsed.ok(), parsed.status().ToString().c_str());
  return std::move(parsed).value();
}

// Fault event times are drawn over the arrival window, derived from
// workload options only (never run state), so the schedule is
// engine- and thread-invariant. Workloads sample release times as
// time-of-day, so the window starts at `start_hour`, not zero; the window
// length is the arrival duration, so every injected event lands while
// orders are still arriving (the pool is guaranteed non-empty, so check
// rounds are still running). Scheduled *returns* may spill past it into
// the drain tail — or past the last round entirely, in which case the
// worker simply never comes back.
double FaultWindowStart(const Scenario& scenario) {
  return scenario.options.start_hour * 3600.0;
}

double FaultHorizon(const Scenario& scenario) {
  return scenario.options.duration;
}

// Work-unit charge for one planner plan, relative to a single candidate
// probe (a plan is a small combinatorial search; a probe is one batched
// oracle query). Calibration matters less than determinism: any fixed
// constant yields a deterministic shed set.
constexpr int64_t kPlanWorkUnits = 8;

// Accumulates the enclosing scope's wall-clock into `*slot` when armed;
// disarmed it reads no clock at all (the timeline contract: sampling off is
// free, sampling on touches only diagnostic state).
class PhaseTimer {
 public:
  PhaseTimer(bool armed, double* slot) : slot_(armed ? slot : nullptr) {
    if (slot_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (slot_ != nullptr) {
      *slot_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* slot_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

WatterPlatform::WatterPlatform(Scenario* scenario, ThresholdProvider* provider,
                               SimOptions options)
    : scenario_(scenario),
      provider_(provider),
      options_(options),
      fault_spec_(ParseFaults(options.faults)),
      injector_(fault_spec_.any()
                    ? std::make_unique<FaultInjector>(
                          fault_spec_,
                          static_cast<int>(scenario->workers.size()),
                          FaultHorizon(*scenario),
                          FaultWindowStart(*scenario))
                    : nullptr),
      degraded_oracle_(fault_spec_.brownouts > 0
                           ? std::make_unique<DegradedOracle>(
                                 scenario->oracle.get())
                           : nullptr),
      oracle_(degraded_oracle_
                  ? static_cast<TravelTimeOracle*>(degraded_oracle_.get())
                  : scenario->oracle.get()),
      executor_(ResolveThreads(options, *scenario)),
      pool_(oracle_, MergePoolOptions(options.pool, *scenario)),
      fleet_(scenario->workers, &scenario->city->graph, options.grid_cells),
      metrics_(options.metrics),
      rng_(options.sim_seed),
      pooled_pickups_(fleet_.IdleCellCounts().size(), 0),
      pooled_dropoffs_(pooled_pickups_.size(), 0) {
  pool_.set_executor(&executor_);
  track_trips_ = injector_ != nullptr && fault_spec_.has_dropouts();
  if (!options_.timeline_path.empty()) {
    std::vector<std::string> columns;
    VisitCounters(MetricsReport{}, [&columns](const char* name, int64_t) {
      columns.emplace_back(name);
    });
    counter_base_.assign(columns.size(), 0);
    timeline_ = std::make_unique<obs::TimelineSampler>(std::move(columns));
    sampling_ = true;
  }
}

void WatterPlatform::Observe(const Order& order, Time now, int action,
                             bool expired, double detour) {
  if (!observer_) return;
  DecisionObservation obs;
  obs.order = order.id;
  obs.order_ref = &order;
  obs.now = now;
  obs.action = action;
  obs.expired = expired;
  obs.detour = detour;
  obs.demand_pickup = &demand_pickup_counts_;
  obs.demand_dropoff = &demand_dropoff_counts_;
  obs.supply = &supply_counts_;
  observer_(obs);
}

void WatterPlatform::InsertArrivals(std::span<const Arrival> arrivals) {
  const std::vector<Status> statuses = pool_.Insert(arrivals);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (!statuses[i].ok()) continue;
    ++pooled_pickups_[fleet_.CellOf(arrivals[i].order.pickup)];
    ++pooled_dropoffs_[fleet_.CellOf(arrivals[i].order.dropoff)];
  }
}

void WatterPlatform::UncountDemand(const Order& order) {
  // Every pooled order was counted by InsertArrivals, so a negative count
  // would mean the pool and the demand counts have diverged.
  const int pickups = --pooled_pickups_[fleet_.CellOf(order.pickup)];
  const int dropoffs = --pooled_dropoffs_[fleet_.CellOf(order.dropoff)];
  WATTER_CHECK(pickups >= 0 && dropoffs >= 0,
               "demand counts diverged from the pool");
}

void WatterPlatform::RejectOrder(const Order& order, Time now,
                                 bool cancelled) {
  Observe(order, now, /*action=*/0, /*expired=*/true, 0.0);
  if (cancelled) {
    metrics_.RecordCancelled(order);
  } else {
    metrics_.RecordRejected(order);
  }
  UncountDemand(order);
  WATTER_CHECK_OK(pool_.Remove(order.id));
}

bool WatterPlatform::ExpireIfDue(const Order& order, Time now) {
  // Impatience: past the watching window the rider may cancel at any check
  // (hazard model; counted as an expiration like the paper). Both engines
  // call this serially in ascending id order, so the RNG draw sequence is
  // thread-invariant.
  if (options_.cancellation_hazard > 0.0 && now > order.WaitDeadline() &&
      rng_.Bernoulli(1.0 - std::exp(-options_.cancellation_hazard *
                                    options_.check_period))) {
    RejectOrder(order, now, /*cancelled=*/true);
    return true;
  }
  if (now > order.LatestDispatch()) {
    // No feasible service remains.
    RejectOrder(order, now);
    return true;
  }
  return false;
}

bool WatterPlatform::BindWorker(DispatchOffer* offer) const {
  // Bind the closest capacity-feasible idle worker at the pickup cost its
  // probe measured; no reachable worker, no bid.
  const IdleMatch match =
      fleet_.FindClosestIdle(offer->plan.route.stops.front().node,
                             offer->riders, oracle_,
                             options_.worker_candidates);
  if (match.worker == kInvalidWorker) return false;
  offer->worker = match.worker;
  offer->pickup_delay = match.cost;
  offer->cost = match.cost + offer->plan.total_cost;
  return true;
}

template <typename ThresholdOf>
bool WatterPlatform::GroupOffer(OrderId anchor, const BestGroup& group,
                                Time now, ThresholdOf threshold_of,
                                DispatchOffer* offer) const {
  std::vector<const Order*> members;
  members.reserve(group.members.size());
  int riders = 0;
  for (OrderId member : group.members) {
    const Order* m = pool_.GetOrder(member);
    if (m == nullptr) return false;
    members.push_back(m);
    riders += m->riders;
  }
  // Thresholds only once every member resolved, one per member in member
  // order: a stateful provider sees the same calls in both engines.
  std::vector<double> thresholds;
  thresholds.reserve(members.size());
  for (const Order* m : members) thresholds.push_back(threshold_of(*m));
  // Algorithm 2, or feasibility-forced dispatch: holding past the next
  // check would let the group expire.
  const bool go = DecideGroupDispatch(group, members, thresholds, now,
                                      pool_.options().weights) ||
                  group.plan.latest_departure < now + options_.check_period;
  if (!go) return false;
  offer->anchor = anchor;
  offer->members = group.members;
  offer->riders = riders;
  offer->plan = group.plan;  // Copy: survives this round's pool removals.
  return true;
}

bool WatterPlatform::SoloOffer(const Order& order, Time now,
                               DispatchOffer* offer) {
  if (!options_.solo_fallback || !SoloEligible(order, now)) return false;
  auto solo = pool_.planner().PlanBest({&order}, now,
                                       pool_.options().capacity);
  if (!solo.ok()) return false;
  offer->anchor = order.id;
  offer->members = {order.id};
  offer->riders = order.riders;
  offer->plan = std::move(solo).value();
  return true;
}

void WatterPlatform::RunCheck(Time now) {
  WATTER_TRACE_SPAN("round");
  std::chrono::steady_clock::time_point round_start;
  if (sampling_) {
    round_sample_ = obs::RoundSample{};
    round_start = std::chrono::steady_clock::now();
  }

  // Fault events due at this round boundary fire first, serially, so the
  // snapshots below already see dropped/returned workers and the round runs
  // under the current brownout factor.
  ApplyFaults(now);

  PoolContext context{&demand_pickup_counts_, &demand_dropoff_counts_,
                      &supply_counts_};
  std::vector<OrderId> ids;
  {
    // Maintenance phase. Edge expiry shards per graph entry inside the
    // pool. The three grid snapshots stay serial on purpose: each is
    // O(cells) of trivial work, far below the pool's wake/join cost.
    WATTER_TRACE_SPAN("round.maintenance");
    PhaseTimer timer(sampling_, &round_sample_.maintenance_s);
    pool_.ExpireEdges(now);
    demand_pickup_counts_ = pooled_pickups_;
    demand_dropoff_counts_ = pooled_dropoffs_;
    supply_counts_ = fleet_.IdleCellCounts();
    ids = pool_.SortedOrderIds();  // Arrival-ordered.
  }

  {
    // Phase A: recompute every stale best group in parallel against the
    // frozen graph. The decision phase below then runs against a warm
    // cache; in serial mode, groups invalidated by this round's own
    // dispatches are lazily recomputed in-loop, exactly as in the serial
    // algorithm.
    //
    // This phase runs at EVERY thread count, including 1 — do not
    // "optimize" it away in serial mode. A lazy recompute at loop position
    // sees the post-dispatch graph; when the clique visit budget truncates
    // enumeration, that can select a different group than the pre-dispatch
    // phase-A value, and metrics would then depend on the thread count.
    // Keeping the algorithm fixed costs ~7% serial time on dense workloads
    // and is what makes the determinism contract unconditional.
    WATTER_TRACE_SPAN("round.refresh");
    PhaseTimer timer(sampling_, &round_sample_.refresh_s);
    pool_.RefreshBestGroups(ids, now);
  }

  // Overload-degradation pre-pass: under a work budget, only the most
  // urgent prefix of the pool bids this round; the rest is shed to the next
  // round. Computed serially from frozen post-refresh state, so the shed
  // set is a pure function of the round state (never of wall-clock).
  std::vector<OrderId> budgeted;
  const std::vector<OrderId>* propose_ids = &ids;
  if (options_.round_work_budget > 0) {
    budgeted = BudgetedIds(ids, now);
    propose_ids = &budgeted;
  }

  // Phase B: the decision/dispatch phase, in the configured engine.
  if (options_.dispatch == DispatchMode::kBatched) {
    RunDecisionLoopBatched(ids, *propose_ids, now, context);
  } else {
    RunDecisionLoopSerial(ids, *propose_ids, now, context);
    // The serial engine has no resolve/commit seam; late dropouts land
    // after its decision loop instead.
    ApplyLateFaults(now);
  }

  if (sampling_) {
    FinishRoundSample(now, std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - round_start)
                               .count());
  }
}

void WatterPlatform::RunDecisionLoopSerial(
    const std::vector<OrderId>& ids, const std::vector<OrderId>& propose_ids,
    Time now, const PoolContext& context) {
  // The sequential decision/dispatch loop. Each dispatch consumes workers
  // and removes partner orders, which changes the problem every later order
  // sees — that chained re-evaluation is this engine's semantics. The whole
  // loop lands in the timeline's commit_s: this engine has no
  // propose/resolve/sweep split to attribute separately.
  WATTER_TRACE_SPAN("round.commit");
  PhaseTimer timer(sampling_, &round_sample_.commit_s);
  // Shed orders (budget pre-pass) keep their arrival-order slot but skip
  // all decision work — they only see the wait/expiry path below. With the
  // budget off, propose_ids aliases ids and this stays a no-op.
  const bool shedding = propose_ids.size() != ids.size();
  std::unordered_set<OrderId> eligible;
  if (shedding) eligible.insert(propose_ids.begin(), propose_ids.end());
  // A serial dispatch is the batched engine's worker binding plus its
  // commit routine. The loop mutates the fleet only through its own commits
  // (late faults land after it), so a just-bound worker is always idle and
  // the commit cannot fail.
  const auto dispatch = [this, now](DispatchOffer* offer) {
    if (!BindWorker(offer)) return false;
    WATTER_CHECK_OK(CommitOffer(*offer, now));
    return true;
  };
  // The serial engine asks the provider itself, in loop order.
  const auto threshold_of = [this, now, &context](const Order& member) {
    return provider_->ThresholdFor(member, now, context);
  };
  for (OrderId id : ids) {
    if (!pool_.Contains(id)) continue;  // Dispatched earlier this round.
    const Order order_copy = *pool_.GetOrder(id);  // Stable across removal.
    bool dispatched = false;
    const bool shed = shedding && eligible.count(id) == 0;

    const BestGroup* group = shed ? nullptr : pool_.BestFor(id, now);
    if (group != nullptr) {
      DispatchOffer offer;
      dispatched =
          GroupOffer(id, *group, now, threshold_of, &offer) && dispatch(&offer);
    }
    if (dispatched || ExpireIfDue(order_copy, now)) continue;

    if (!shed && group == nullptr) {
      // Watching window elapsed — or feasibility about to expire — without
      // a shared group: serve alone.
      DispatchOffer offer;
      dispatched = SoloOffer(order_copy, now, &offer) && dispatch(&offer);
    }
    if (!dispatched) {
      Observe(order_copy, now, /*action=*/0, /*expired=*/false, 0.0);
    }
  }
}

DispatchOffer WatterPlatform::ProposeOffer(
    OrderId id, Time now,
    const std::unordered_map<OrderId, double>& thresholds) {
  // Pure against frozen state: reads the pool caches (PeekBest, GetOrder),
  // the idle fleet, and the oracle; mutates nothing. Runs concurrently for
  // distinct ids in the propose phase.
  DispatchOffer offer;
  const Order* order = pool_.GetOrder(id);
  if (order == nullptr) return offer;
  const BestGroup* group = pool_.PeekBest(id, now);
  // The prologue covered every member of every group PeekBest returns on
  // this frozen state, so a missing theta is a broken invariant. Without a
  // group the solo offer follows the serial engine's eligibility (a due
  // rejection is left to the sweep).
  const bool bid =
      group != nullptr
          ? GroupOffer(id, *group, now,
                       [&thresholds](const Order& member) {
                         return thresholds.at(member.id);
                       },
                       &offer)
          : SoloOffer(*order, now, &offer);
  if (bid) BindWorker(&offer);
  return offer;
}

Status WatterPlatform::CommitOffer(const DispatchOffer& offer, Time now) {
  // The caller guarantees the worker idle and every member still pooled
  // (conflict resolution in the batched engine, the bind-then-commit step
  // in the serial loop), and the fleet only changes through commits —
  // except when a late-dropout fault takes the worker offline between
  // resolution and commit. Then Dispatch fails and changes nothing: the
  // offer is abandoned and its members stay pooled for the sweep.
  Status dispatched = fleet_.Dispatch(
      offer.worker, now + offer.pickup_delay + offer.plan.total_cost,
      offer.plan.route.stops.back().node);
  if (!dispatched.ok()) return dispatched;
  // Record outcomes per member (response = notification wait, Definition 4;
  // detour per Definition 5).
  ActiveTrip trip;
  for (size_t i = 0; i < offer.members.size(); ++i) {
    const Order* member = pool_.GetOrder(offer.members[i]);
    // A missing member is a broken invariant (resolution guarantees member
    // exclusivity; faults never remove pooled orders), not a recoverable
    // condition.
    WATTER_CHECK(member != nullptr,
                 "commit: dispatched member left the pool");
    double response = now - member->release;
    // Clamp: float rounding in matrix oracles can yield -1e-5 "detours".
    double detour =
        std::max(0.0, offer.plan.completion[i] - member->shortest_cost);
    metrics_.RecordServed(*member, response, detour,
                          static_cast<int>(offer.members.size()));
    Observe(*member, now, /*action=*/1, /*expired=*/false, detour);
    if (track_trips_) {
      trip.members.push_back({*member, response, detour,
                              now + offer.pickup_delay +
                                  offer.plan.completion[i]});
    }
  }
  metrics_.AddWorkerTravel(offer.pickup_delay + offer.plan.total_cost);
  if (track_trips_) {
    trip.dispatch_time = now;
    trip.travel = offer.pickup_delay + offer.plan.total_cost;
    trip.group_size = static_cast<int>(offer.members.size());
    TrackTrip(offer.worker, std::move(trip));
  }
  for (OrderId member : offer.members) {
    const Order* m = pool_.GetOrder(member);
    UncountDemand(*m);
    WATTER_CHECK_OK(pool_.Remove(member));
  }
  return Status::Ok();
}

std::unordered_map<OrderId, double> WatterPlatform::PrecomputeThresholds(
    const std::vector<OrderId>& ids, Time now, const PoolContext& context) {
  // Thresholds for every order appearing in some cached best group.
  // Providers are stateful (memo tables, feature scratch), so they are
  // queried once per member here, in ascending id order, and the parallel
  // propose phase reads only the resulting immutable map.
  std::vector<OrderId> member_ids;
  for (OrderId id : ids) {
    const BestGroup* group = pool_.PeekBest(id, now);
    if (group == nullptr) continue;
    member_ids.insert(member_ids.end(), group->members.begin(),
                      group->members.end());
  }
  std::sort(member_ids.begin(), member_ids.end());
  member_ids.erase(std::unique(member_ids.begin(), member_ids.end()),
                   member_ids.end());
  std::unordered_map<OrderId, double> thresholds;
  thresholds.reserve(member_ids.size());
  for (OrderId member : member_ids) {
    const Order* order = pool_.GetOrder(member);
    if (order == nullptr) continue;
    thresholds.emplace(member, provider_->ThresholdFor(*order, now, context));
  }
  return thresholds;
}

void WatterPlatform::RunDecisionLoopBatched(
    const std::vector<OrderId>& ids, const std::vector<OrderId>& propose_ids,
    Time now, const PoolContext& context) {
  // Serial prologue. Attributed to the propose phase: thresholds are inputs
  // to the offers. Computed over the budget-eligible anchors only — their
  // groups' members (which may include shed orders) all get thresholds.
  std::unordered_map<OrderId, double> thresholds;
  {
    WATTER_TRACE_SPAN("round.thresholds");
    PhaseTimer timer(sampling_, &round_sample_.propose_s);
    thresholds = PrecomputeThresholds(propose_ids, now, context);
  }

  // Parallel propose: one offer slot per eligible pooled order, each a pure
  // function of the frozen pool/fleet/threshold state (ordered-map pattern,
  // see thread_pool.h).
  std::vector<DispatchOffer> offers;
  {
    WATTER_TRACE_SPAN("round.propose");
    PhaseTimer timer(sampling_, &round_sample_.propose_s);
    executor_.ParallelMap(propose_ids.size(), 4, &offers, [&](size_t i) {
      return ProposeOffer(propose_ids[i], now, thresholds);
    });
  }

  // Drop the non-bids, then resolve conflicts in one greedy scan of the
  // sorted-offers total order. The outcomes are a pure function of the
  // offer set, never of the thread count.
  std::vector<OfferOutcome> outcomes;
  {
    WATTER_TRACE_SPAN("round.resolve");
    PhaseTimer timer(sampling_, &round_sample_.resolve_s);
    offers.erase(std::remove_if(offers.begin(), offers.end(),
                                [](const DispatchOffer& offer) {
                                  return offer.worker == kInvalidWorker;
                                }),
                 offers.end());
    outcomes = ResolveOffers(&offers);
  }
  dispatch_stats_.offers += static_cast<int64_t>(offers.size());

  // Late dropouts land on the resolve/commit seam: resolution has already
  // picked winners against the pre-fault fleet, so a winner whose worker
  // just vanished fails its dispatch below and is abandoned.
  ApplyLateFaults(now);

  // Commit the winners serially in the sorted order.
  {
    WATTER_TRACE_SPAN("round.commit");
    PhaseTimer timer(sampling_, &round_sample_.commit_s);
    for (size_t i = 0; i < offers.size(); ++i) {
      switch (outcomes[i]) {
        case OfferOutcome::kCommitted:
          if (CommitOffer(offers[i], now).ok()) {
            ++dispatch_stats_.committed;
          } else {
            ++fault_stats_.aborted_commits;
          }
          break;
        case OfferOutcome::kWorkerConflict:
          ++dispatch_stats_.worker_conflicts;
          break;
        case OfferOutcome::kOrderConflict:
          ++dispatch_stats_.order_conflicts;
          break;
      }
    }
  }

  // Serial post-sweep in ascending id order over the orders that did not
  // dispatch: expiry (hazard cancellation, then rejection once no feasible
  // service remains) and wait observations for everyone else.
  WATTER_TRACE_SPAN("round.sweep");
  PhaseTimer sweep_timer(sampling_, &round_sample_.sweep_s);
  for (OrderId id : ids) {
    if (!pool_.Contains(id)) continue;  // Dispatched this round.
    const Order order_copy = *pool_.GetOrder(id);
    if (!ExpireIfDue(order_copy, now)) {
      Observe(order_copy, now, /*action=*/0, /*expired=*/false, 0.0);
    }
  }
}

void WatterPlatform::ApplyFaults(Time now) {
  if (injector_ == nullptr) return;
  WATTER_TRACE_SPAN("round.faults");
  for (const FaultEvent& event : injector_->TakeDue(now)) {
    switch (event.kind) {
      case FaultKind::kDropout:
        HandleDropout(event.worker, now, /*late=*/false);
        break;
      case FaultKind::kReturn: {
        // Benign no-op when the worker is not offline: its dropout hit an
        // already-offline worker, or an overlapping return already fired.
        Status status = fleet_.BringOnline(event.worker, now);
        if (status.ok()) ++fault_stats_.returns;
        break;
      }
      case FaultKind::kBrownoutStart:
        ++brownout_depth_;
        if (degraded_oracle_) {
          degraded_oracle_->SetFactor(fault_spec_.brownout_factor);
        }
        break;
      case FaultKind::kBrownoutEnd:
        if (brownout_depth_ > 0) --brownout_depth_;
        if (brownout_depth_ == 0 && degraded_oracle_) {
          degraded_oracle_->SetFactor(1.0);
        }
        break;
      case FaultKind::kLateDropout:
        // Late dropouts live in their own queue (TakeLateDue); one showing
        // up here means the injector's partitioning broke.
        WATTER_CHECK(false, "late dropout in the round-boundary queue");
        break;
    }
  }
  if (brownout_depth_ > 0) ++fault_stats_.brownout_rounds;
}

void WatterPlatform::ApplyLateFaults(Time now) {
  if (injector_ == nullptr) return;
  for (const FaultEvent& event : injector_->TakeLateDue(now)) {
    HandleDropout(event.worker, now, /*late=*/true);
  }
}

void WatterPlatform::HandleDropout(WorkerId id, Time now, bool late) {
  WorkerTake take = fleet_.TakeOffline(id);
  if (take == WorkerTake::kOffline) return;  // Already down; nothing new.
  if (late) {
    ++fault_stats_.late_dropouts;
  } else {
    ++fault_stats_.dropouts;
  }
  if (take == WorkerTake::kBusy) {
    ++fault_stats_.midroute_dropouts;
    RecoverTrip(id, now);
  }
  // kIdle needs no recovery: an evicted idle worker had no riders. A late
  // dropout of a resolved winner's worker surfaces as that offer's failed
  // Dispatch (an aborted commit).
}

void WatterPlatform::RecoverTrip(WorkerId id, Time now) {
  auto it = active_trips_.find(id);
  // Dispatches overwrite the entry and only busy workers reach here, so
  // the tracked trip is always the interrupted one.
  WATTER_CHECK(it != active_trips_.end(),
               "dropout recovery: no tracked trip for a busy worker");
  ActiveTrip trip = std::move(it->second);
  active_trips_.erase(it);

  // The worker stops driving now: credit back the unfinished remainder of
  // the recorded trip travel.
  double elapsed = now - trip.dispatch_time;
  double remaining = std::max(0.0, trip.travel - elapsed);
  if (remaining > 0.0) metrics_.AddWorkerTravel(-remaining);

  for (const AboardMember& member : trip.members) {
    if (member.dropoff_time <= now) continue;  // Delivered before the drop.
    metrics_.ReverseServed(member.order, member.response, member.detour,
                           trip.group_size);
    Order order = member.order;
    // Grace-extended re-insert: the rider tolerates `grace` extra seconds
    // after a dropout. If even the extended deadline leaves no feasible
    // dispatch, the service has failed terminally — penalized with the
    // ORIGINAL order's penalty, like a rejection.
    order.deadline = std::max(order.deadline, now) + fault_spec_.grace;
    if (order.LatestDispatch() >= now) {
      const Arrival arrival{order, now};
      InsertArrivals(std::span(&arrival, 1));
      ++fault_stats_.recovered_orders;
    } else {
      metrics_.RecordFailedService(member.order);
      Observe(member.order, now, /*action=*/0, /*expired=*/true, 0.0);
    }
  }
}

void WatterPlatform::TrackTrip(WorkerId worker, ActiveTrip trip) {
  active_trips_[worker] = std::move(trip);
}

bool WatterPlatform::SoloEligible(const Order& order, Time now) const {
  if (now > order.LatestDispatch()) return false;  // Reject, not solo.
  return now > order.WaitDeadline() ||
         now + options_.check_period > order.LatestDispatch();
}

int64_t WatterPlatform::EstimateWorkUnits(OrderId id, Time now) const {
  // Mirrors what ProposeOffer would do for this order: a group bid costs
  // the candidate probe plus the worker-candidate refinement; an eligible
  // solo bid additionally pays a planner plan; everything else is one probe
  // of bookkeeping. Estimated from the same frozen post-refresh caches the
  // propose phase reads, so the charge is deterministic.
  const Order* order = pool_.GetOrder(id);
  if (order == nullptr) return 1;
  if (pool_.PeekBest(id, now) != nullptr) {
    return 1 + options_.worker_candidates;
  }
  if (options_.solo_fallback && SoloEligible(*order, now)) {
    return 1 + kPlanWorkUnits + options_.worker_candidates;
  }
  return 1;
}

std::vector<OrderId> WatterPlatform::BudgetedIds(
    const std::vector<OrderId>& ids, Time now) {
  WATTER_TRACE_SPAN("round.budget");
  // Urgency order: earliest latest-dispatch first, id as the tiebreak.
  // Charging in this order means the budget always funds the orders
  // closest to expiry.
  std::vector<std::pair<Time, OrderId>> urgency;
  urgency.reserve(ids.size());
  for (OrderId id : ids) {
    urgency.emplace_back(pool_.GetOrder(id)->LatestDispatch(), id);
  }
  std::sort(urgency.begin(), urgency.end());

  int64_t spent = 0;
  int64_t shed = 0;
  std::vector<OrderId> eligible;
  eligible.reserve(ids.size());
  for (size_t i = 0; i < urgency.size(); ++i) {
    OrderId id = urgency[i].second;
    int64_t units = EstimateWorkUnits(id, now);
    // Always fund at least one order per round — a budget below the
    // cheapest single bid must still make progress.
    if (spent + units > options_.round_work_budget && !eligible.empty()) {
      shed = static_cast<int64_t>(urgency.size() - i);
      break;
    }
    spent += units;
    eligible.push_back(id);
  }
  fault_stats_.work_units += spent;
  if (shed > 0) {
    fault_stats_.shed_orders += shed;
    ++fault_stats_.degraded_rounds;
  }
  // Ascending id: a canonical order for the engines' membership tests and
  // the batched propose (conflict resolution re-sorts offers anyway).
  std::sort(eligible.begin(), eligible.end());
  return eligible;
}

void WatterPlatform::FinishRoundSample(Time now, double total_seconds) {
  if (!sampling_) return;
  obs::RoundSample& sample = round_sample_;
  sample.round = ++round_counter_;
  sample.now = now;
  sample.total_s = total_seconds;

  // End-of-round state.
  sample.pool_size = static_cast<int64_t>(pool_.size());
  sample.shareability_edges = pool_.graph().edge_count();

  // Per-round deltas of every cumulative report counter.
  size_t column = 0;
  VisitCounters(CurrentReport(), [&](const char*, int64_t value) {
    sample.counters.push_back(value - counter_base_[column]);
    counter_base_[column++] = value;
  });

  // Phase-duration histograms ride on the same sampling pass (the registry
  // is armed whenever a trace or timeline was requested).
  obs::RecordLatency("round.total_s", sample.total_s, /*hi_seconds=*/60.0);
  obs::RecordLatency("round.maintenance_s", sample.maintenance_s, 60.0);
  obs::RecordLatency("round.refresh_s", sample.refresh_s, 60.0);
  obs::RecordLatency("round.propose_s", sample.propose_s, 60.0);
  obs::RecordLatency("round.resolve_s", sample.resolve_s, 60.0);
  obs::RecordLatency("round.commit_s", sample.commit_s, 60.0);
  obs::RecordLatency("round.sweep_s", sample.sweep_s, 60.0);
  timeline_->Record(std::move(sample));
}

MetricsReport WatterPlatform::Run() {
  // Arm the process-global observability sinks before the first round.
  // Both stay enabled for the rest of the process (they accumulate across
  // runs by design; see docs/OBSERVABILITY.md "Lifecycle") — the platform
  // merely exports the current state at the end of this run.
  const std::string& trace_path = options_.trace_path;
  if (!trace_path.empty()) {
    obs::TraceRecorder::Global().SetCurrentThreadName("main");
    obs::TraceRecorder::Global().Enable();
  }
  if (!trace_path.empty() || sampling_) {
    obs::HistogramRegistry::Global().Enable();
  }
  Stopwatch algorithm_time;
  {
    ScopedTimer timer(&algorithm_time);
    const std::vector<Order>& orders = scenario_->orders;
    size_t next_order = 0;
    Time next_check =
        orders.empty() ? 0.0 : orders.front().release + options_.check_period;
    Time last_event = orders.empty() ? 0.0 : orders.front().release;
    while (next_order < orders.size() || pool_.size() > 0) {
      Time arrival = next_order < orders.size() ? orders[next_order].release
                                                : kInfCost;
      if (pool_.size() == 0 && arrival > next_check) {
        // Nothing to check; fast-forward to the next arrival.
        next_check = arrival + options_.check_period;
      }
      if (arrival <= next_check) {
        // An arrival only joins the shareability graph, and nothing reads
        // the pool before the next check, so every order released by then
        // is pooled as one batch: one pair-test fan-out, committed exactly
        // as one insert per order would be (ShareabilityGraph::Insert).
        // The fleet releases its finished trips in time order either way.
        std::vector<Arrival> batch;
        for (; next_order < orders.size() &&
               orders[next_order].release <= next_check;
             ++next_order) {
          batch.push_back(
              Arrival{orders[next_order], orders[next_order].release});
        }
        last_event = batch.back().now;
        fleet_.ReleaseUntil(last_event);
        InsertArrivals(batch);
      } else {
        fleet_.ReleaseUntil(next_check);
        RunCheck(next_check);
        last_event = next_check;
        next_check += options_.check_period;
      }
    }
    if (!orders.empty()) {
      metrics_.SetFleetInfo(fleet_.size(),
                            last_event - orders.front().release);
    }
  }
  metrics_.AddAlgorithmTime(algorithm_time.ElapsedSeconds());
  MetricsReport report = CurrentReport();

  // Export the observability artifacts last, after the pool's final
  // fan-in — every traced thread has synchronized with this one, so the
  // recorder is quiescent (trace.h). Failures only warn:
  // diagnostics must never fail a run.
  if (timeline_) {
    const std::string& path = options_.timeline_path;
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    bool ok = csv ? timeline_->WriteCsv(path) : timeline_->WriteJson(path);
    if (!ok) {
      std::fprintf(stderr, "warning: could not write timeline to %s\n",
                   path.c_str());
    }
  }
  if (!trace_path.empty() &&
      !obs::TraceRecorder::Global().ExportChromeTrace(trace_path)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 trace_path.c_str());
  }
  return report;
}

MetricsReport WatterPlatform::CurrentReport() const {
  MetricsReport report = metrics_.Report();
  report.pool = pool_.Stats();
  // Oracle-side counters: diagnostic only (unsynchronized per-thread adds,
  // backend-specific totals); cumulative since oracle construction, so they
  // include scenario generation's shortest-cost sampling.
  const TravelTimeOracle& oracle = *scenario_->oracle;
  report.geo = {oracle.query_count(), oracle.batch_count(),
                oracle.batch_points(), oracle.bucket_build_seconds()};
  report.dispatch = dispatch_stats_;
  report.faults = fault_stats_;
  return report;
}

MetricsReport RunWatter(Scenario* scenario, ThresholdProvider* provider,
                        const SimOptions& options) {
  WatterPlatform platform(scenario, provider, options);
  return platform.Run();
}

}  // namespace watter
