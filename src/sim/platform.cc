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

int ResolveThreads(const SimOptions& options, const Scenario& scenario) {
  int threads =
      options.num_threads != 0 ? options.num_threads
                               : scenario.options.num_threads;
  return threads <= 0 ? ThreadPool::DefaultThreads() : threads;
}

int ResolveShards(const SimOptions& options, const Scenario& scenario) {
  int shards = options.num_shards != 0 ? options.num_shards
                                       : scenario.options.num_shards;
  return std::max(1, shards);
}

FaultSpec ResolveFaultSpec(const SimOptions& options,
                           const Scenario& scenario) {
  const std::string& spec = !options.faults.empty()
                                ? options.faults
                                : scenario.options.faults;
  if (spec.empty()) return FaultSpec{};
  Result<FaultSpec> parsed = ParseFaultSpec(spec);
  // The CLI validates specs before construction; an invalid spec reaching
  // an embedder is a configuration programmer error.
  WATTER_CHECK(parsed.ok(), parsed.status().ToString().c_str());
  return std::move(parsed).value();
}

int64_t ResolveBudget(const SimOptions& options, const Scenario& scenario) {
  int64_t budget = options.round_work_budget != 0
                       ? options.round_work_budget
                       : scenario.options.round_work_budget;
  return budget < 0 ? 0 : budget;  // Negative = force unlimited.
}

// Fault event times are drawn over the arrival window, derived from
// workload options only (never run state), so the schedule is
// engine/thread/shard-invariant. Workloads sample release times as
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

// Floor the watchdog can clamp the effective budget to — rounds always
// retain enough budget to make progress on the most urgent orders.
constexpr int64_t kMinWatchdogBudget = 64;

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
      num_shards_(ResolveShards(options, *scenario)),
      fault_spec_(ResolveFaultSpec(options, *scenario)),
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
      demand_pickup_index_(scenario->city->graph.MinCorner(),
                           scenario->city->graph.MaxCorner(),
                           options.grid_cells),
      demand_dropoff_index_(scenario->city->graph.MinCorner(),
                            scenario->city->graph.MaxCorner(),
                            options.grid_cells) {
  pool_.set_executor(&executor_);
  track_trips_ = injector_ != nullptr && fault_spec_.has_dropouts();
  work_budget_ = ResolveBudget(options_, *scenario);
  effective_budget_ = work_budget_;
  budgeting_ = work_budget_ > 0 || options_.watchdog_ms > 0.0;
  // Observability knobs: SimOptions wins when set, else the scenario's
  // workload options (the CLI/bench path).
  trace_path_ = !options_.trace_path.empty() ? options_.trace_path
                                             : scenario->options.trace_path;
  timeline_path_ = !options_.timeline_path.empty()
                       ? options_.timeline_path
                       : scenario->options.timeline_path;
  if (!timeline_path_.empty()) {
    timeline_ = std::make_unique<obs::TimelineSampler>();
    sampling_ = true;
  }
}

int WatterPlatform::ShardOfNode(NodeId node) const {
  // The idle index carries the feature-grid geometry; all three platform
  // grids share it, so any of them defines the same region partition.
  return fleet_.idle_index().RegionOf(
      scenario_->city->graph.node_point(node), num_shards_);
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

void WatterPlatform::InsertArrival(const Order& order, Time now) {
  if (!pool_.Insert(order, now).ok()) return;
  const Graph& graph = scenario_->city->graph;
  demand_pickup_index_.Insert(order.id, graph.node_point(order.pickup));
  demand_dropoff_index_.Insert(order.id, graph.node_point(order.dropoff));
}

void WatterPlatform::RemoveFromIndexes(const Order& order) {
  // Every pooled order was indexed by InsertArrival, so absence here would
  // mean the pool and the demand indexes have diverged.
  WATTER_CHECK_OK(demand_pickup_index_.Remove(order.id));
  WATTER_CHECK_OK(demand_dropoff_index_.Remove(order.id));
}

void WatterPlatform::RejectOrder(const Order& order, Time now,
                                 bool cancelled) {
  Observe(order, now, /*action=*/0, /*expired=*/true, 0.0);
  if (cancelled) {
    metrics_.RecordCancelled(order);
  } else {
    metrics_.RecordRejected(order);
  }
  RemoveFromIndexes(order);
  WATTER_CHECK_OK(pool_.Remove(order.id));
}

bool WatterPlatform::ExpireIfDue(const Order& order, Time now) {
  // Impatience: past the watching window the rider may cancel at any check
  // (hazard model; counted as an expiration like the paper). Both engines
  // call this serially in ascending id order, so the RNG draw sequence is
  // thread- and shard-invariant.
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

bool WatterPlatform::BindWorker(DispatchOffer* offer, int riders) const {
  // Bind the closest capacity-feasible idle worker at the pickup cost its
  // probe measured; no reachable worker, no bid.
  const IdleMatch match =
      fleet_.FindClosestIdle(offer->plan.route.stops.front().node, riders,
                             oracle_, options_.worker_candidates);
  if (match.worker == kInvalidWorker) return false;
  offer->worker = match.worker;
  offer->pickup_delay = match.cost;
  offer->cost = match.cost + offer->plan.total_cost;
  return true;
}

void WatterPlatform::RunCheck(Time now) {
  WATTER_TRACE_SPAN("round");
  std::chrono::steady_clock::time_point round_start;
  if (sampling_) {
    round_sample_ = obs::RoundSample{};
    round_start = std::chrono::steady_clock::now();
  }
  std::chrono::steady_clock::time_point watchdog_start;
  if (options_.watchdog_ms > 0.0) {
    watchdog_start = std::chrono::steady_clock::now();
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
    demand_pickup_counts_ = demand_pickup_index_.CellCounts();
    demand_dropoff_counts_ = demand_dropoff_index_.CellCounts();
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

  // Overload-degradation pre-pass: when budgeting is armed, only the most
  // urgent prefix of the pool bids this round; the rest is shed to the next
  // round. Computed serially from frozen post-refresh state, so the shed
  // set is a pure function of the round state (never of wall-clock).
  std::vector<OrderId> budgeted;
  const std::vector<OrderId>* propose_ids = &ids;
  if (budgeting_) {
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

  if (options_.watchdog_ms > 0.0) {
    AdjustWatchdog(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - watchdog_start)
                       .count());
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
  // (late faults land after it), so a just-bound worker is always
  // claimable and the commit cannot fail.
  const auto dispatch = [this, now](DispatchOffer offer, int riders) {
    if (!BindWorker(&offer, riders)) return false;
    WATTER_CHECK_OK(CommitOffer(offer, now));
    return true;
  };
  for (OrderId id : ids) {
    if (!pool_.Contains(id)) continue;  // Dispatched earlier this round.
    const Order order_copy = *pool_.GetOrder(id);  // Stable across removal.
    bool dispatched = false;
    const bool shed = shedding && eligible.count(id) == 0;

    const BestGroup* group = shed ? nullptr : pool_.BestFor(id, now);
    if (group != nullptr) {
      std::vector<const Order*> members;
      members.reserve(group->members.size());
      int riders = 0;
      bool resolved = true;
      for (OrderId member : group->members) {
        const Order* m = pool_.GetOrder(member);
        if (m == nullptr) {
          resolved = false;
          break;
        }
        members.push_back(m);
        riders += m->riders;
      }
      if (resolved) {
        bool go = DecideGroupDispatch(*group, members, now,
                                      pool_.options().weights, provider_,
                                      context);
        // Feasibility-forced dispatch: holding past the next check would
        // let the group expire.
        if (!go && group->plan.latest_departure < now + options_.check_period) {
          go = true;
        }
        if (go) {
          DispatchOffer offer;
          offer.anchor = id;
          offer.members = group->members;
          offer.plan = group->plan;
          dispatched = dispatch(std::move(offer), riders);
        }
      }
    }
    if (dispatched || ExpireIfDue(order_copy, now)) continue;

    if (!shed && options_.solo_fallback && group == nullptr &&
        SoloEligible(order_copy, now)) {
      // Watching window elapsed — or feasibility about to expire — without
      // a shared group: serve alone.
      auto solo = pool_.planner().PlanBest({pool_.GetOrder(id)}, now,
                                           pool_.options().capacity);
      if (solo.ok()) {
        DispatchOffer offer;
        offer.anchor = id;
        offer.members = {id};
        offer.plan = std::move(solo).value();
        dispatched = dispatch(std::move(offer), order_copy.riders);
      }
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
  offer.anchor = id;
  const Order* order = pool_.GetOrder(id);
  if (order == nullptr) return offer;

  const BestGroup* group = pool_.PeekBest(id, now);
  int riders = 0;
  if (group != nullptr) {
    std::vector<const Order*> members;
    std::vector<double> member_thresholds;
    members.reserve(group->members.size());
    member_thresholds.reserve(group->members.size());
    for (OrderId member : group->members) {
      const Order* m = pool_.GetOrder(member);
      auto it = thresholds.find(member);
      if (m == nullptr || it == thresholds.end()) return offer;
      members.push_back(m);
      member_thresholds.push_back(it->second);
      riders += m->riders;
    }
    bool go = DecideGroupDispatchPrecomputed(*group, members,
                                             member_thresholds, now,
                                             pool_.options().weights);
    // Feasibility-forced dispatch: holding past the next check would let
    // the group expire (same rule as the serial engine).
    if (!go && group->plan.latest_departure < now + options_.check_period) {
      go = true;
    }
    if (!go) return offer;
    offer.members = group->members;
    offer.plan = group->plan;  // Copy: survives this round's pool removals.
  } else {
    // Solo fallback as an offer, with the serial engine's eligibility (a
    // due rejection is left to the sweep).
    if (!options_.solo_fallback || !SoloEligible(*order, now)) return offer;
    auto solo = pool_.planner().PlanBest({order}, now,
                                         pool_.options().capacity);
    if (!solo.ok()) return offer;
    offer.members = {id};
    offer.plan = std::move(solo).value();
    riders = order->riders;
  }
  BindWorker(&offer, riders);
  return offer;
}

Status WatterPlatform::CommitOffer(const DispatchOffer& offer, Time now) {
  // The caller guarantees the worker unclaimed and every member still
  // pooled (conflict resolution in the batched engine, the bind-then-commit
  // step in the serial loop), and the fleet only changes through commits —
  // except when a late-dropout fault takes the worker offline between
  // resolution and commit. That is a recoverable conflict: the offer is
  // abandoned and its members stay pooled for the sweep.
  if (!fleet_.TryClaim(offer.worker)) {
    return Status::FailedPrecondition(
        "commit: offered worker no longer claimable (worker " +
        std::to_string(offer.worker) + ")");
  }
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
  WATTER_CHECK_OK(fleet_.CommitClaim(
      offer.worker, now + offer.pickup_delay + offer.plan.total_cost,
      offer.plan.route.stops.back().node));
  if (track_trips_) {
    trip.dispatch_time = now;
    trip.travel = offer.pickup_delay + offer.plan.total_cost;
    trip.group_size = static_cast<int>(offer.members.size());
    TrackTrip(offer.worker, std::move(trip));
  }
  for (OrderId member : offer.members) {
    const Order* m = pool_.GetOrder(member);
    RemoveFromIndexes(*m);
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

  // Drop the non-bids, then resolve conflicts in the sorted-offers total
  // order. With N > 1 shards, interior offers resolve per region in
  // parallel and border components in one serial reconciliation scan (home
  // shard = worker's region, member shards = pickup regions); at N = 1 this
  // is the global greedy scan. Either way the outcomes equal ResolveOffers,
  // a pure function of the offer set — never of the thread or shard count.
  // Both callbacks read only frozen round state.
  ShardedResolution resolution;
  {
    WATTER_TRACE_SPAN("round.resolve");
    PhaseTimer timer(sampling_, &round_sample_.resolve_s);
    offers.erase(std::remove_if(offers.begin(), offers.end(),
                                [](const DispatchOffer& offer) {
                                  return offer.worker == kInvalidWorker;
                                }),
                 offers.end());
    OfferShardMap shard_map;
    shard_map.num_shards = num_shards_;
    shard_map.worker_shard = [this](WorkerId worker) {
      return ShardOfNode(fleet_.worker(worker).location);
    };
    shard_map.order_shard = [this](OrderId member) {
      return ShardOfNode(pool_.GetOrder(member)->pickup);
    };
    resolution = ResolveOffersSharded(&offers, shard_map, &executor_);
  }
  dispatch_stats_.offers += static_cast<int64_t>(offers.size());
  dispatch_stats_.border_offers += resolution.border_offers;
  dispatch_stats_.border_affected += resolution.border_affected;

  // Late dropouts land on the resolve/commit seam: resolution has already
  // picked winners against the pre-fault fleet, so a winner whose worker
  // just vanished fails its claim below and is abandoned.
  ApplyLateFaults(now);

  // Commit the winners serially in the sorted order.
  {
    WATTER_TRACE_SPAN("round.commit");
    PhaseTimer timer(sampling_, &round_sample_.commit_s);
    for (size_t i = 0; i < offers.size(); ++i) {
      switch (resolution.outcomes[i]) {
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
  // kIdle and kClaimed need no recovery: an evicted idle worker had no
  // riders, and the platform holds no claim at a fault point (CommitOffer
  // claims and commits in one step). A late dropout of a resolved winner's
  // worker surfaces as that offer's failed claim (an aborted commit).
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
      InsertArrival(order, now);
      ++fault_stats_.recovered_orders;
    } else {
      metrics_.RecordFailedService(member.order);
      ++fault_stats_.failed_services;
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

  const int64_t limit = effective_budget_;
  int64_t spent = 0;
  int64_t shed = 0;
  std::vector<OrderId> eligible;
  eligible.reserve(ids.size());
  for (size_t i = 0; i < urgency.size(); ++i) {
    OrderId id = urgency[i].second;
    int64_t units = EstimateWorkUnits(id, now);
    // Always fund at least one order per round — a budget below the
    // cheapest single bid must still make progress.
    if (limit > 0 && spent + units > limit && !eligible.empty()) {
      shed = static_cast<int64_t>(urgency.size() - i);
      break;
    }
    spent += units;
    eligible.push_back(id);
  }
  round_units_ = spent;
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

void WatterPlatform::AdjustWatchdog(double round_ms) {
  if (round_ms > options_.watchdog_ms) {
    ++fault_stats_.watchdog_trips;
    // Multiplicative decrease. When currently unlimited, start from what
    // the overrun round actually spent (or a small floor if unknown).
    int64_t base = effective_budget_ > 0
                       ? effective_budget_
                       : std::max(round_units_, int64_t{2} * kMinWatchdogBudget);
    effective_budget_ = std::max(kMinWatchdogBudget, base / 2);
  } else if (effective_budget_ > 0) {
    // Additive-ish recovery: ~25% growth per compliant round, back toward
    // the configured budget — or all the way to unlimited when none is set.
    int64_t grown = effective_budget_ + effective_budget_ / 4 + 1;
    if (work_budget_ > 0) {
      effective_budget_ = std::min(grown, work_budget_);
    } else if (grown > (int64_t{1} << 40)) {
      effective_budget_ = 0;  // Fully recovered: unlimited again.
    } else {
      effective_budget_ = grown;
    }
  }
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

  // Per-round deltas of the cumulative counters; counter_base_ reuses the
  // sample fields to hold the previous round's cumulative values.
  const auto delta = [](int64_t current, int64_t& base) {
    int64_t d = current - base;
    base = current;
    return d;
  };
  obs::RoundSample& base = counter_base_;
  sample.offers = delta(dispatch_stats_.offers, base.offers);
  sample.committed = delta(dispatch_stats_.committed, base.committed);
  sample.worker_conflicts =
      delta(dispatch_stats_.worker_conflicts, base.worker_conflicts);
  sample.order_conflicts =
      delta(dispatch_stats_.order_conflicts, base.order_conflicts);
  sample.planner_plans =
      delta(pool_.planner().plan_count(), base.planner_plans);
  sample.pair_tests = delta(pool_.graph().pair_tests(), base.pair_tests);
  sample.recomputes =
      delta(pool_.best_groups().recompute_count(), base.recomputes);
  sample.plan_cache_hits =
      delta(pool_.best_groups().plan_cache_hits(), base.plan_cache_hits);
  sample.plan_cache_misses =
      delta(pool_.best_groups().plan_cache_misses(), base.plan_cache_misses);
  sample.geo_queries = delta(scenario_->oracle->query_count(),
                             base.geo_queries);
  sample.geo_batches = delta(scenario_->oracle->batch_count(),
                             base.geo_batches);
  // Robustness columns: deltas of the cumulative fault counters, plus the
  // current brownout state. All stay zero when faults/budget are off.
  sample.fault_events = delta(fault_stats_.dropouts +
                                  fault_stats_.late_dropouts +
                                  fault_stats_.returns,
                              base.fault_events);
  sample.recovered = delta(fault_stats_.recovered_orders, base.recovered);
  sample.failed = delta(fault_stats_.failed_services, base.failed);
  sample.shed = delta(fault_stats_.shed_orders, base.shed);
  sample.degraded = brownout_depth_ > 0 ? 1 : 0;
  sample.work_units = delta(fault_stats_.work_units, base.work_units);

  timeline_->Record(sample);

  // Phase-duration histograms ride on the same sampling pass (the registry
  // is armed whenever a trace or timeline was requested).
  obs::RecordLatency("round.total_s", sample.total_s, /*hi_seconds=*/60.0);
  obs::RecordLatency("round.maintenance_s", sample.maintenance_s, 60.0);
  obs::RecordLatency("round.refresh_s", sample.refresh_s, 60.0);
  obs::RecordLatency("round.propose_s", sample.propose_s, 60.0);
  obs::RecordLatency("round.resolve_s", sample.resolve_s, 60.0);
  obs::RecordLatency("round.commit_s", sample.commit_s, 60.0);
  obs::RecordLatency("round.sweep_s", sample.sweep_s, 60.0);
}

MetricsReport WatterPlatform::Run() {
  // Arm the process-global observability sinks before the first round.
  // Both stay enabled for the rest of the process (they accumulate across
  // runs by design; see docs/OBSERVABILITY.md "Lifecycle") — the platform
  // merely exports the current state at the end of this run.
  if (!trace_path_.empty()) {
    obs::TraceRecorder::Global().SetCurrentThreadName("main");
    obs::TraceRecorder::Global().Enable();
  }
  if (!trace_path_.empty() || sampling_) {
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
        fleet_.ReleaseUntil(arrival);
        InsertArrival(orders[next_order], arrival);
        ++next_order;
        last_event = arrival;
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
  MetricsReport report = metrics_.Report();
  // Pool-side work counters: deterministic for a fixed scenario, so bench
  // baselines can diff them across PRs (docs/PERFORMANCE.md).
  report.pool.best_group_recomputes = pool_.best_groups().recompute_count();
  report.pool.groups_evaluated = pool_.best_groups().groups_evaluated();
  report.pool.planner_plans = pool_.planner().plan_count();
  report.pool.pair_tests = pool_.graph().pair_tests();
  report.pool.plan_cache_hits = pool_.best_groups().plan_cache_hits();
  report.pool.plan_cache_misses = pool_.best_groups().plan_cache_misses();
  report.pool.plan_cache_replans = pool_.best_groups().plan_cache_replans();
  report.pool.plan_cache_evictions =
      pool_.best_groups().plan_cache_evictions();
  report.pool.plan_cache_seeds = pool_.best_groups().plan_cache_seeds();
  report.pool.reverse_index_fanout =
      pool_.best_groups().reverse_index_fanout();
  // Oracle-side counters: diagnostic only (racy increments, backend-specific
  // totals); cumulative since oracle construction, so they include scenario
  // generation's shortest-cost sampling.
  const TravelTimeOracle& oracle = *scenario_->oracle;
  report.geo.queries = oracle.query_count();
  report.geo.batches = oracle.batch_count();
  report.geo.batch_points = oracle.batch_points();
  report.geo.bucket_build_seconds = oracle.bucket_build_seconds();
  // Batched-engine counters (zero under kSerial). Offer/outcome totals are
  // deterministic across threads AND shards; the border splits describe the
  // shard layout itself (metrics.h).
  report.dispatch = dispatch_stats_;
  // Fault/degradation counters (all zero when faults and the budget are
  // off). Deterministic except watchdog_trips (metrics.h).
  report.faults = fault_stats_;

  // Export the observability artifacts last, after the pool's final
  // fan-in — every traced thread has synchronized with this one, so the
  // recorder is quiescent (trace.h). Failures only warn:
  // diagnostics must never fail a run.
  if (timeline_) {
    const bool csv = timeline_path_.size() >= 4 &&
                     timeline_path_.compare(timeline_path_.size() - 4, 4,
                                            ".csv") == 0;
    bool ok = csv ? timeline_->WriteCsv(timeline_path_)
                  : timeline_->WriteJson(timeline_path_);
    if (!ok) {
      std::fprintf(stderr, "warning: could not write timeline to %s\n",
                   timeline_path_.c_str());
    }
  }
  if (!trace_path_.empty() &&
      !obs::TraceRecorder::Global().ExportChromeTrace(trace_path_)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 trace_path_.c_str());
  }
  return report;
}

MetricsReport RunWatter(Scenario* scenario, ThresholdProvider* provider,
                        const SimOptions& options) {
  WatterPlatform platform(scenario, provider, options);
  return platform.Run();
}

}  // namespace watter
