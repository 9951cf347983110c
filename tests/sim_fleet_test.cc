// Direct tests of the Fleet worker lifecycle (fleet.h): Dispatch, the one
// way to send a worker, and the offline/online transitions fault injection
// drives (docs/ROBUSTNESS.md). The platform suites exercise dispatch end to
// end; this file pins down the state each transition leaves behind and the
// FailedPrecondition statuses that let the platform treat a worker lost to
// a late dropout as an aborted commit instead of aborting the process.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/fleet.h"

namespace watter {
namespace {

// A 4-node path graph with one worker per node.
class FleetFixture {
 public:
  FleetFixture() {
    g_.AddNode({0, 0});
    g_.AddNode({1, 0});
    g_.AddNode({2, 0});
    g_.AddNode({3, 0});
    g_.AddBidirectionalEdge(0, 1, 5.0);
    g_.AddBidirectionalEdge(1, 2, 5.0);
    g_.AddBidirectionalEdge(2, 3, 5.0);
    EXPECT_TRUE(g_.Finalize().ok());
    std::vector<Worker> workers = {{1, 0, 4, false, 0.0},
                                   {2, 1, 4, false, 0.0},
                                   {3, 2, 4, false, 0.0},
                                   {4, 3, 4, false, 0.0}};
    fleet_ = std::make_unique<Fleet>(workers, &g_, 4);
  }

  Fleet& fleet() { return *fleet_; }

 private:
  Graph g_;
  std::unique_ptr<Fleet> fleet_;
};

TEST(FleetLifecycleTest, DispatchedWorkerLeavesIdleSetUntilRouteEnds) {
  FleetFixture fx;
  ASSERT_TRUE(fx.fleet().Dispatch(2, 50.0, 3).ok());
  EXPECT_EQ(fx.fleet().idle_count(), 3);
  EXPECT_TRUE(fx.fleet().worker(2).busy);
  EXPECT_EQ(fx.fleet().worker(2).available_at, 50.0);
  EXPECT_EQ(fx.fleet().IdleWorkerIds(), (std::vector<WorkerId>{1, 3, 4}));
  fx.fleet().ReleaseUntil(49.0);
  EXPECT_TRUE(fx.fleet().worker(2).busy);
  // The route ends: the worker reappears idle at its final node and can be
  // dispatched again.
  fx.fleet().ReleaseUntil(50.0);
  EXPECT_FALSE(fx.fleet().worker(2).busy);
  EXPECT_EQ(fx.fleet().worker(2).location, 3);
  EXPECT_EQ(fx.fleet().IdleWorkerIds(), (std::vector<WorkerId>{1, 2, 3, 4}));
  EXPECT_TRUE(fx.fleet().Dispatch(2, 80.0, 0).ok());
  EXPECT_EQ(fx.fleet().worker(2).location, 0);
}

TEST(FleetLifecycleTest, DispatchOnDrivingOrOfflineWorkerChangesNothing) {
  FleetFixture fx;
  ASSERT_TRUE(fx.fleet().Dispatch(1, 20.0, 2).ok());
  // A driving worker keeps its trip.
  EXPECT_EQ(fx.fleet().Dispatch(1, 30.0, 3).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fx.fleet().worker(1).available_at, 20.0);
  EXPECT_EQ(fx.fleet().worker(1).location, 2);
  fx.fleet().ReleaseUntil(25.0);
  EXPECT_EQ(fx.fleet().worker(1).location, 2);
  EXPECT_FALSE(fx.fleet().worker(1).busy);
  // An offline worker — the late-dropout case an aborted commit meets —
  // stays offline, out of the idle set and where it was.
  EXPECT_EQ(fx.fleet().TakeOffline(2), WorkerTake::kIdle);
  EXPECT_EQ(fx.fleet().Dispatch(2, 30.0, 3).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fx.fleet().worker(2).offline);
  EXPECT_FALSE(fx.fleet().worker(2).busy);
  EXPECT_EQ(fx.fleet().worker(2).location, 1);
  EXPECT_EQ(fx.fleet().IdleWorkerIds(), (std::vector<WorkerId>{1, 3, 4}));
  fx.fleet().ReleaseUntil(100.0);
  EXPECT_TRUE(fx.fleet().worker(2).offline);
}

TEST(FleetLifecycleTest, TakeOfflineIdleWorkerLeavesIdleSet) {
  FleetFixture fx;
  EXPECT_EQ(fx.fleet().TakeOffline(2), WorkerTake::kIdle);
  EXPECT_EQ(fx.fleet().offline_count(), 1);
  EXPECT_EQ(fx.fleet().idle_count(), 3);
  EXPECT_TRUE(fx.fleet().worker(2).offline);
  // A second takedown is a no-op.
  EXPECT_EQ(fx.fleet().TakeOffline(2), WorkerTake::kOffline);
  EXPECT_EQ(fx.fleet().offline_count(), 1);
  // BringOnline restores the worker, idle at its recorded location.
  EXPECT_TRUE(fx.fleet().BringOnline(2, 30.0).ok());
  EXPECT_EQ(fx.fleet().offline_count(), 0);
  EXPECT_EQ(fx.fleet().worker(2).location, 1);
  EXPECT_EQ(fx.fleet().IdleWorkerIds(), (std::vector<WorkerId>{1, 2, 3, 4}));
  EXPECT_TRUE(fx.fleet().Dispatch(2, 40.0, 0).ok());
}

TEST(FleetLifecycleTest, TakeOfflineBusyWorkerCancelsTheTrip) {
  // Mid-route takedown: the busy-heap entry goes stale via the trip epoch,
  // so the worker must NOT pop back to idle when its route would have
  // completed — it stays offline until explicitly brought back.
  FleetFixture fx;
  ASSERT_TRUE(fx.fleet().Dispatch(4, 40.0, 0).ok());
  EXPECT_EQ(fx.fleet().TakeOffline(4), WorkerTake::kBusy);
  fx.fleet().ReleaseUntil(100.0);  // Past the cancelled trip's end.
  EXPECT_TRUE(fx.fleet().worker(4).offline);
  EXPECT_EQ(fx.fleet().idle_count(), 3);
  EXPECT_EQ(fx.fleet().Dispatch(4, 110.0, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fx.fleet().BringOnline(4, 120.0).ok());
  EXPECT_FALSE(fx.fleet().worker(4).busy);
  EXPECT_EQ(fx.fleet().idle_count(), 4);
  // A fresh dispatch after the comeback completes normally.
  ASSERT_TRUE(fx.fleet().Dispatch(4, 150.0, 1).ok());
  fx.fleet().ReleaseUntil(150.0);
  EXPECT_FALSE(fx.fleet().worker(4).busy);
  EXPECT_EQ(fx.fleet().worker(4).location, 1);
}

TEST(FleetLifecycleTest, BringOnlineRequiresOffline) {
  FleetFixture fx;
  EXPECT_EQ(fx.fleet().BringOnline(1, 5.0).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace watter
