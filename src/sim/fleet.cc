#include "src/sim/fleet.h"

#include <algorithm>

#include "src/common/status.h"

namespace watter {

Fleet::Fleet(std::vector<Worker> workers, const Graph* graph, int grid_cells)
    : workers_(std::move(workers)),
      graph_(graph),
      idle_index_(graph->MinCorner(), graph->MaxCorner(), grid_cells),
      trip_epoch_(workers_.size(), 0) {
  for (const Worker& worker : workers_) {
    idle_index_.Insert(worker.id, graph_->node_point(worker.location));
  }
}

void Fleet::ReleaseUntil(Time now) {
  while (!busy_.empty() && std::get<0>(busy_.top()) <= now) {
    auto [until, id, epoch] = busy_.top();
    busy_.pop();
    // A mismatched epoch marks a trip cancelled by TakeOffline: the worker
    // is no longer driving this route, so the entry is dead weight.
    if (epoch != trip_epoch_[id - 1]) continue;
    Worker& worker = workers_[id - 1];
    worker.busy = false;
    idle_index_.Insert(id, graph_->node_point(worker.location));
  }
}

IdleMatch Fleet::FindClosestIdle(NodeId target, int min_capacity,
                                 TravelTimeOracle* oracle,
                                 int candidates) const {
  auto nearby = idle_index_.KNearest(
      candidates, graph_->node_point(target),
      [this, min_capacity](int64_t id) {
        return workers_[id - 1].capacity >= min_capacity;
      });
  // Exact refinement of the Euclidean pre-filter, issued as one many-to-one
  // batch: all candidate workers share `target`, which is exactly the shape
  // the bucket-CH backend answers with K forward spaces + 1 backward sweep
  // instead of K bidirectional queries. Batch results equal the Cost() loop
  // bitwise, so the selection below is backend-independent and the winner's
  // batch slot is exactly the pickup cost a Cost() call would return.
  // Buffers are local because the batched dispatch engine probes
  // concurrently.
  std::vector<NodeId> probe_locations;
  probe_locations.reserve(nearby.size());
  for (int64_t id : nearby) {
    probe_locations.push_back(workers_[id - 1].location);
  }
  std::vector<double> probe_costs(probe_locations.size());
  oracle->ManyToOne(probe_locations, target, probe_costs);
  IdleMatch best;
  for (size_t i = 0; i < nearby.size(); ++i) {
    if (probe_costs[i] < best.cost) {
      best = {workers_[nearby[i] - 1].id, probe_costs[i]};
    }
  }
  return best;
}

std::vector<WorkerId> Fleet::IdleWorkerIds() const {
  std::vector<WorkerId> ids;
  ids.reserve(idle_index_.size());
  for (int64_t id : idle_index_.AllIds()) {
    ids.push_back(static_cast<WorkerId>(id));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool Fleet::TryClaim(WorkerId id) {
  // A worker is claimable exactly while it sits in the idle index: driving
  // workers left it in CommitClaim, claimed ones in a previous TryClaim,
  // offline ones in TakeOffline.
  if (!idle_index_.Contains(id)) return false;
  WATTER_CHECK_OK(idle_index_.Remove(id));
  workers_[id - 1].busy = true;
  claimed_.insert(id);
  return true;
}

Status Fleet::CommitClaim(WorkerId id, Time until, NodeId final_node) {
  // The claim can legitimately be gone: a fault may have taken the claimed
  // worker offline between resolution and commit. The caller treats this
  // like losing the worker-contention conflict.
  if (claimed_.erase(id) != 1) {
    return Status::FailedPrecondition("commit of unclaimed worker " +
                                      std::to_string(id));
  }
  Worker& worker = workers_[id - 1];
  worker.available_at = until;
  worker.location = final_node;
  busy_.push({until, id, trip_epoch_[id - 1]});
  return Status::Ok();
}

Status Fleet::ReleaseClaim(WorkerId id) {
  if (claimed_.erase(id) != 1) {
    return Status::FailedPrecondition("release of unclaimed worker " +
                                      std::to_string(id));
  }
  Worker& worker = workers_[id - 1];
  worker.busy = false;
  idle_index_.Insert(id, graph_->node_point(worker.location));
  return Status::Ok();
}

Status Fleet::Dispatch(WorkerId id, Time until, NodeId final_node) {
  if (!TryClaim(id)) {
    return Status::FailedPrecondition("dispatch of non-idle worker " +
                                      std::to_string(id));
  }
  return CommitClaim(id, until, final_node);
}

WorkerTake Fleet::TakeOffline(WorkerId id) {
  Worker& worker = workers_[id - 1];
  if (worker.offline) return WorkerTake::kOffline;
  worker.offline = true;
  ++offline_count_;
  if (idle_index_.Contains(id)) {
    WATTER_CHECK_OK(idle_index_.Remove(id));
    worker.busy = false;
    return WorkerTake::kIdle;
  }
  if (claimed_.erase(id) == 1) {
    // The claim dies with the worker; the commit pass notices when its
    // CommitClaim/ReleaseClaim comes back FailedPrecondition.
    worker.busy = false;
    return WorkerTake::kClaimed;
  }
  // Mid-route: cancel the trip by bumping the epoch; the busy-heap entry
  // recorded the old epoch and will be skipped when it surfaces.
  ++trip_epoch_[id - 1];
  worker.busy = false;
  return WorkerTake::kBusy;
}

Status Fleet::BringOnline(WorkerId id, Time now) {
  Worker& worker = workers_[id - 1];
  if (!worker.offline) {
    return Status::FailedPrecondition("worker " + std::to_string(id) +
                                      " is not offline");
  }
  worker.offline = false;
  worker.busy = false;
  worker.available_at = now;
  --offline_count_;
  idle_index_.Insert(id, graph_->node_point(worker.location));
  return Status::Ok();
}

}  // namespace watter
