#include "src/baseline/nonsharing.h"

#include <deque>

#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/sim/fleet.h"

namespace watter {

MetricsReport RunNonSharing(Scenario* scenario,
                            const NonSharingOptions& options) {
  MetricsCollector metrics(options.metrics);
  Fleet fleet(scenario->workers, &scenario->city->graph, options.grid_cells);
  std::deque<Order> queue;

  Stopwatch algorithm_time;
  {
    ScopedTimer timer(&algorithm_time);
    auto drain_queue = [&](Time now) {
      fleet.ReleaseUntil(now);
      while (!queue.empty()) {
        const Order& order = queue.front();
        if (now > order.LatestDispatch()) {
          metrics.RecordRejected(order);
          queue.pop_front();
          continue;
        }
        const IdleMatch match =
            fleet.FindClosestIdle(order.pickup, order.riders,
                                  scenario->oracle.get(),
                                  options.worker_candidates);
        if (match.worker == kInvalidWorker) break;  // FIFO: wait for a worker.
        const double pickup_delay = match.cost;
        double response = now - order.release;
        metrics.RecordServed(order, response, /*detour=*/0.0,
                             /*group_size=*/1);
        metrics.AddWorkerTravel(pickup_delay + order.shortest_cost);
        // The worker came from the idle probe just above.
        WATTER_CHECK_OK(fleet.Dispatch(match.worker,
                                       now + pickup_delay + order.shortest_cost,
                                       order.dropoff));
        queue.pop_front();
      }
    };

    size_t next_order = 0;
    const std::vector<Order>& orders = scenario->orders;
    // Event times: arrivals plus a coarse drain tick so queued orders are
    // retried as workers free up.
    Time tick = orders.empty() ? 0.0 : orders.front().release;
    while (next_order < orders.size() || !queue.empty()) {
      Time arrival =
          next_order < orders.size() ? orders[next_order].release : kInfCost;
      if (queue.empty() && arrival > tick) tick = arrival;
      if (arrival <= tick) {
        queue.push_back(orders[next_order]);
        ++next_order;
        drain_queue(arrival);
      } else {
        drain_queue(tick);
        tick += 5.0;
      }
    }
  }
  metrics.AddAlgorithmTime(algorithm_time.ElapsedSeconds());
  return metrics.Report();
}

}  // namespace watter
