// Best-group map Gb (Algorithm 1).
//
// For every pooled order we cache the *best group*: the clique-derived,
// planner-verified group with the smallest average extra time among all
// shareable groups containing the order (Section IV-A). Lookups are O(1);
// recomputation is dirty-driven, triggered by exactly the paper's four update
// situations: order arrival, order departure, edge expiry and group expiry.
//
// A key property keeps this cheap: between graph updates, every candidate
// group's average extra time grows at the same rate (beta per second of
// waiting, uniformly), so the *ranking* of groups is time-invariant and a
// cached best group stays best until the graph changes or the group expires.
//
// Maintenance is incremental end-to-end (docs/ARCHITECTURE.md, "Incremental
// pool maintenance"):
//  - a reverse-membership index (member -> owners whose cached best group
//    contains it) makes departures O(owners) instead of a full-map scan;
//  - a shared GroupPlanCache holds one exact plan per distinct member set,
//    so re-searches after unrelated dirty events — and the k anchors that
//    enumerate the same clique — reuse instead of re-planning;
//  - a refresh enumerates each stale anchor's cliques once, ranking the
//    cache hits on the spot against the cache frozen at batch entry; it
//    then plans the distinct missing member sets once each, and a serial
//    commit ranks each anchor's planned sets against its best hit. Every
//    counter is therefore thread-count-invariant.
//
// Timestamps passed to BestFor/Recompute/RefreshMany must be non-decreasing
// across calls: the plan cache's permanent-infeasibility rule (like the
// shareability graph's edge expiries) relies on deadlines only tightening.
#ifndef WATTER_POOL_BEST_GROUP_MAP_H_
#define WATTER_POOL_BEST_GROUP_MAP_H_

#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/route_planner.h"
#include "src/core/types.h"
#include "src/pool/clique_enumerator.h"
#include "src/pool/group_plan_cache.h"
#include "src/pool/shareability_graph.h"

namespace watter {

/// A verified candidate group for dispatch.
struct BestGroup {
  std::vector<OrderId> members;  ///< Sorted; includes the owner order.
  GroupPlan plan;                ///< Min-cost feasible route and expiry.
  double sum_detour = 0.0;       ///< Sum over members of completion - shortest.
  double sum_release = 0.0;      ///< Sum of member release times.

  int size() const { return static_cast<int>(members.size()); }

  /// Average extra time of the group if dispatched at `now`
  /// (Definition 6 averaged over members; Algorithm 2 line 4).
  double AverageExtraTime(Time now, const ExtraTimeWeights& weights) const {
    double avg_detour = sum_detour / size();
    double avg_response = now - sum_release / size();
    return weights.alpha * avg_detour + weights.beta * avg_response;
  }

  /// Earliest release among members (whose wait limit fires first is
  /// computed by the strategy from member orders).
  Time latest_departure() const { return plan.latest_departure; }
};

/// Maintains the best group of every pooled order.
///
/// By default only *shared* groups (size >= 2) are considered, matching the
/// paper's semantics: a lone order has no "group arrangement" to rate
/// against its threshold and waits for partners until its watching window
/// elapses (solo service is the platform's timeout fallback, not a pool
/// group). Set `include_singletons` for the permissive variant.
class BestGroupMap {
 public:
  BestGroupMap(const ShareabilityGraph* graph, RoutePlanner* planner,
               ExtraTimeWeights weights, int capacity, CliqueOptions cliques,
               bool include_singletons = false)
      : graph_(graph),
        planner_(planner),
        weights_(weights),
        capacity_(capacity),
        clique_options_(cliques),
        include_singletons_(include_singletons) {}

  /// Installs the executor RefreshMany fans out on. Null (default) or a
  /// 1-thread pool keeps recomputation on the calling thread. Not owned.
  void set_executor(ThreadPool* executor) {
    executor_ = executor != nullptr ? executor : &ThreadPool::Inline();
  }

  /// Marks an order's cached best group stale.
  void MarkDirty(OrderId id) { dirty_.insert(id); }

  /// Marks every order whose cached best group contains `member` stale (via
  /// the reverse-membership index: O(owners), not a map scan), forgets
  /// `member`'s own entry, and evicts the member's cached plans. Call on
  /// departure.
  void OnOrderRemoved(OrderId member);

  /// Returns the current best group of `id` at time `now`, recomputing if
  /// stale or expired; nullptr if the order has no feasible group anymore
  /// (not even serving it alone) or is unknown.
  const BestGroup* BestFor(OrderId id, Time now);

  /// Pure cached lookup: the best group of `id` if its entry is fresh
  /// (clean, unexpired) at `now`, else nullptr. Never recomputes, never
  /// mutates — safe to call concurrently from the batched propose phase.
  /// After RefreshMany over the live ids, PeekBest and BestFor agree for
  /// every refreshed id until the graph next changes.
  const BestGroup* PeekBest(OrderId id, Time now) const;

  /// Seeds the shared plan cache with a pair plan the shareability graph
  /// already computed while certifying the edge {order, other} (see
  /// PairPlanSeed). `plan.completion` must be aligned to the input order
  /// {order, other}; it is re-aligned to sorted member ids here, matching
  /// what PlanGroup would produce. No-op if the pair is already cached, so
  /// seeding never clobbers a fresher entry.
  void SeedPlan(const Order& order, const Order& other, const GroupPlan& plan);

  /// Forces recomputation of `id` at `now` (used by tests/benches).
  void Recompute(OrderId id, Time now);

  /// Refreshes every stale entry among `ids` (callers pass them sorted for
  /// a deterministic commit order), fanning the pure per-order searches out
  /// over the executor and committing results serially in `ids` order. After
  /// this, BestFor on any id in `ids` is a cache hit until the graph next
  /// changes. Results — including the diagnostic counters — are identical
  /// for any thread count: each phase runs against state frozen before its
  /// fan-out, and all commits are serial in a fixed order.
  void RefreshMany(const std::vector<OrderId>& ids, Time now);

  int64_t recompute_count() const { return recompute_count_; }
  int64_t groups_evaluated() const { return groups_evaluated_; }
  /// Plan-cache traffic. A hit is a lookup answered from the cache
  /// (including cached-infeasible verdicts); a miss planned a fresh member
  /// set; a replan re-planned an entry whose cached route had expired.
  int64_t plan_cache_hits() const { return plan_cache_hits_; }
  int64_t plan_cache_misses() const { return plan_cache_misses_; }
  int64_t plan_cache_replans() const { return plan_cache_replans_; }
  /// Pair plans adopted from ShareabilityGraph::Insert instead of being
  /// re-planned by a refresh (SeedPlan calls that actually inserted).
  int64_t plan_cache_seeds() const { return plan_cache_seeds_; }
  int64_t plan_cache_evictions() const { return plan_cache_.evictions(); }
  size_t plan_cache_size() const { return plan_cache_.size(); }
  /// Owners dirtied through the reverse-membership index by departures.
  int64_t reverse_index_fanout() const { return reverse_index_fanout_; }

 private:
  /// True if `group` is missing, expired, or references departed orders.
  bool NeedsRefresh(OrderId id, Time now) const;

  /// The leading candidate of one anchor's ranking: the smallest average
  /// extra time at `now`, ties going to the earlier enumeration index. That
  /// is the group a strict-`<` scan in enumeration order keeps, whichever
  /// order the candidates are offered in.
  struct Leader {
    GroupKey key;
    double avg = kInfCost;
    int64_t index = -1;  ///< Enumeration index; -1 until a candidate leads.
  };

  /// Phase-1 outcome for one anchor: its only clique enumeration, against
  /// the frozen graph + cache (pure; safe to run concurrently). Feasible,
  /// unexpired cache hits are ranked on the spot into `best_hit`; the
  /// member sets still to plan (cache misses and expired entries) wait in
  /// `need_plan`, in enumeration order with their enumeration index, for
  /// the commit to rank once phase 2 has planned them.
  struct CandidateScan {
    std::vector<std::pair<GroupKey, int64_t>> need_plan;
    Leader best_hit;
    int64_t groups_evaluated = 0;
    /// True when clique enumeration hit the visit budget: the search saw
    /// only a prefix of the candidate groups.
    bool truncated = false;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t replans = 0;
  };

  CandidateScan ScanCandidates(OrderId id, Time now) const;

  /// Makes candidate `index` (member set `key`, cache outcome `entry`) the
  /// leader if it is feasible and unexpired at `now` and ranks ahead.
  void Offer(const GroupKey& key, int64_t index,
             const CachedGroupPlan* entry, Time now, Leader* leader) const;

  /// Plans one member set exactly at depart time `now` (pure).
  CachedGroupPlan PlanGroup(const GroupKey& key, Time now) const;

  /// The refresh shared by Recompute and RefreshMany (so the serial and
  /// batched paths cannot diverge): scan -> plan distinct missing member
  /// sets -> rank the planned sets + ordered serial commit.
  void RefreshInternal(const std::vector<OrderId>& anchors, Time now);

  /// Ranks `scan`'s planned member sets against its best hit and installs
  /// the winner into the caches and the reverse-membership index.
  void Commit(OrderId id, const CandidateScan& scan, Time now);

  /// Detaches `owner` from its cached group's member buckets in the
  /// reverse-membership index (no-op if it has no cached group).
  void RemoveOwnerEntries(OrderId owner);

  const ShareabilityGraph* graph_;
  RoutePlanner* planner_;
  ExtraTimeWeights weights_;
  int capacity_;
  CliqueOptions clique_options_;
  bool include_singletons_;
  ThreadPool* executor_ = &ThreadPool::Inline();  // Never null; not owned.
  std::unordered_map<OrderId, BestGroup> best_;
  std::unordered_set<OrderId> dirty_;
  /// Reverse-membership index: member -> owners whose cached best group in
  /// `best_` contains it (owners include themselves). Maintained by Commit
  /// and OnOrderRemoved; what makes departures O(owners).
  std::unordered_map<OrderId, std::unordered_set<OrderId>> owners_of_;
  /// Shared plan cache: one exact plan per distinct admissible member set,
  /// reused across anchors and rounds; invalidated through its own reverse
  /// index on departure (see group_plan_cache.h).
  GroupPlanCache plan_cache_;
  // Negative-result cache: orders whose last search found no feasible group
  // after *complete* (untruncated) clique enumeration. Sound until the next
  // graph change: with deadlines only tightening, a later search over an
  // unchanged-or-smaller graph can only find fewer groups, and every event
  // that could add a group (an arrival creating an edge) marks the order
  // dirty. Truncated searches are never cached as negative — when the visit
  // budget clips enumeration, removing a neighbor can pull previously
  // unseen (and feasible) cliques inside the budget, so "none among the
  // visited prefix" is not monotone. The group-plan cache is orthogonal to
  // this rule: it caches per-member-set planner verdicts (exact regardless
  // of truncation), never "no group exists for this order" — so a truncated
  // search stays re-runnable, merely with warm plans. Without this cache,
  // hopeless orders would re-run the full clique search every check round.
  std::unordered_set<OrderId> none_;
  int64_t recompute_count_ = 0;
  int64_t groups_evaluated_ = 0;
  int64_t plan_cache_hits_ = 0;
  int64_t plan_cache_misses_ = 0;
  int64_t plan_cache_replans_ = 0;
  int64_t plan_cache_seeds_ = 0;
  int64_t reverse_index_fanout_ = 0;
};

}  // namespace watter

#endif  // WATTER_POOL_BEST_GROUP_MAP_H_
