// Fleet: worker availability tracking and closest-idle-worker lookup.
//
// WATTER workers serve one order group at a time (paper Section II); a
// dispatched worker is busy until the route completes, then reappears idle
// at the route's last stop. Idle workers are indexed in the spatial grid so
// "assign the group to the closest available worker" is a cheap k-NN probe
// refined by exact travel costs.
//
// Fault injection (docs/ROBUSTNESS.md) adds an offline dimension: a worker
// can be taken offline from any state — idle, claimed, or mid-route — and
// later brought back online at its recorded location. Mid-route takedowns
// invalidate the worker's busy-heap entry via a per-worker trip epoch
// instead of heap surgery: the entry stays in the heap but is skipped when
// popped, because its recorded epoch no longer matches.
#ifndef WATTER_SIM_FLEET_H_
#define WATTER_SIM_FLEET_H_

#include <cstdint>
#include <queue>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/core/types.h"
#include "src/geo/graph.h"
#include "src/geo/grid_index.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {

/// The state a worker was in when TakeOffline removed it.
enum class WorkerTake {
  kIdle,     // Was idle; removed from the spatial index.
  kClaimed,  // Was claimed but uncommitted; the claim was discarded.
  kBusy,     // Was mid-route; the caller owns trip recovery.
  kOffline,  // Was already offline; the call was a no-op.
};

/// FindClosestIdle's answer: the chosen worker and its travel time to the
/// probe target (kInvalidWorker and kInfCost when none qualifies).
struct IdleMatch {
  WorkerId worker = kInvalidWorker;
  double cost = kInfCost;
};

/// Manages worker state over simulated time.
class Fleet {
 public:
  /// `graph` supplies node locations for the spatial index; must outlive
  /// the fleet. All workers start idle at their initial locations.
  Fleet(std::vector<Worker> workers, const Graph* graph, int grid_cells);

  /// Moves every worker whose delivery finished by `now` back to idle.
  void ReleaseUntil(Time now);

  /// Returns the idle worker closest (by travel time to `target`) among the
  /// `candidates` nearest by Euclidean distance, with capacity >=
  /// `min_capacity`, together with that travel time; a worker is only
  /// chosen at a finite cost, so kInvalidWorker means none qualifies or
  /// none can reach `target`. Pure read: safe to call concurrently (the
  /// batched propose phase probes the frozen idle set in parallel) as long
  /// as `oracle` is thread-safe — all are.
  IdleMatch FindClosestIdle(NodeId target, int min_capacity,
                            TravelTimeOracle* oracle,
                            int candidates = 8) const;

  /// Two-phase dispatch, used by the platform's commit routine
  /// (docs/DISPATCH.md):
  ///
  ///   TryClaim(w)          reserve an idle worker; later probes skip it
  ///   CommitClaim(w, ...)  finalize: busy until `until` at `final_node`
  ///   ReleaseClaim(w)      roll back an unfinalized claim; idle again
  ///
  /// TryClaim returns false when the worker is not currently idle (claimed,
  /// driving, or offline) — the caller's offer then loses the
  /// worker-contention conflict. Claims are serial-phase only; they are not
  /// thread-safe.
  ///
  /// CommitClaim and ReleaseClaim return FailedPrecondition instead of
  /// aborting when the worker holds no claim — reachable when a fault takes
  /// a claimed worker offline between resolution and commit, so the platform
  /// loop handles it as a recoverable conflict (docs/ROBUSTNESS.md).
  bool TryClaim(WorkerId id);
  Status CommitClaim(WorkerId id, Time until, NodeId final_node);
  Status ReleaseClaim(WorkerId id);

  /// Unfinalized claims currently outstanding.
  int claimed_count() const { return static_cast<int>(claimed_.size()); }

  /// One-shot claim + commit for the serial dispatch path. Fails with
  /// FailedPrecondition when the worker is not currently idle.
  Status Dispatch(WorkerId id, Time until, NodeId final_node);

  /// Takes a worker offline from whatever state it is in and reports that
  /// state. Idle workers leave the spatial index; claimed workers lose
  /// their claim (the commit pass sees the claim vanish and must treat the
  /// offer as lost); busy workers get their trip epoch bumped so the
  /// busy-heap entry is ignored — the caller is responsible for recovering
  /// the interrupted trip's riders. Serial-phase only.
  WorkerTake TakeOffline(WorkerId id);

  /// Brings an offline worker back online, idle at its recorded location.
  /// FailedPrecondition if the worker is not offline.
  Status BringOnline(WorkerId id, Time now);

  /// Workers currently offline.
  int offline_count() const { return offline_count_; }

  const Worker& worker(WorkerId id) const { return workers_[id - 1]; }
  int idle_count() const { return static_cast<int>(idle_index_.size()); }
  int size() const { return static_cast<int>(workers_.size()); }

  /// Idle workers per grid cell (the RL supply feature sW).
  std::vector<int> IdleCellCounts() const { return idle_index_.CellCounts(); }

  /// Ids of all currently idle workers, ascending.
  std::vector<WorkerId> IdleWorkerIds() const;

  /// The spatial grid geometry (shared with demand features).
  const GridIndex& idle_index() const { return idle_index_; }

 private:
  std::vector<Worker> workers_;  // Indexed by id - 1.
  const Graph* graph_;
  GridIndex idle_index_;
  // Min-heap of (available_at, worker id, trip epoch) for busy workers.
  // Entries whose epoch no longer matches trip_epoch_[id - 1] are stale
  // (their trip was cancelled by TakeOffline) and skipped on pop.
  using BusyEntry = std::tuple<Time, WorkerId, uint32_t>;
  std::priority_queue<BusyEntry, std::vector<BusyEntry>,
                      std::greater<BusyEntry>>
      busy_;
  // Workers claimed but not yet committed/released (commit-pass state).
  std::unordered_set<WorkerId> claimed_;
  std::vector<uint32_t> trip_epoch_;  // Indexed by id - 1.
  int offline_count_ = 0;
};

}  // namespace watter

#endif  // WATTER_SIM_FLEET_H_
