// Temporal shareability graph (Definition 8).
//
// Nodes are waiting orders; an edge (o_i, o_j, tau_e) certifies that the two
// orders admit a feasible *beneficially shared* route if dispatched before
// timestamp tau_e. Edges are computed exactly with the route planner when an
// order is inserted: deadlines only tighten as time passes, so a pair that is
// infeasible now can never become feasible later, and a feasible pair stays
// feasible exactly until its latest departure — which becomes the edge
// expiry.
//
// "Beneficially shared" means the minimum-cost pair route interleaves the
// riders (someone is on board while the other is picked up). Purely
// sequential chaining satisfies the route constraints but provides no pooling
// benefit and would make the graph near-complete; the paper's shareability
// notion ("orders that can be shared in a group") is interpreted as true
// sharing. See docs/ARCHITECTURE.md, "Design decisions".
#ifndef WATTER_POOL_SHAREABILITY_GRAPH_H_
#define WATTER_POOL_SHAREABILITY_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/route_planner.h"
#include "src/core/types.h"

namespace watter {

/// One shareability edge from the perspective of a node.
struct ShareEdge {
  OrderId other = kInvalidOrder;
  uint32_t other_slot = 0;  ///< `other`'s dense slot (see ShareabilityGraph).
  Time expiry = 0.0;       ///< tau_e: latest departure keeping the pair feasible.
  double pair_cost = 0.0;  ///< Minimal travel cost of the shared route.
};

/// A pair plan Insert computed while certifying an edge, surfaced so the
/// caller can seed the group-plan cache instead of re-planning the same pair
/// during the next RefreshBestGroups. `plan.completion` is aligned to the
/// input order {inserted order, other}, not to sorted member ids.
struct PairPlanSeed {
  OrderId other = kInvalidOrder;
  GroupPlan plan;
};

/// An order joining the pool at time `now` (its release, or a later
/// re-insertion time).
struct Arrival {
  Order order;
  Time now = 0.0;
};

/// What Insert did with one arrival.
struct InsertOutcome {
  /// Ok, or AlreadyExists when the id was resident or an earlier arrival
  /// of the same batch took it.
  Status status;
  /// One entry per new edge, ascending by partner id: the resident that
  /// gained the edge (its best group may improve) and the pair plan that
  /// certified it, so callers can seed their plan caches.
  std::vector<PairPlanSeed> edges;

  bool ok() const { return status.ok(); }
};

/// Configuration of edge creation.
struct ShareabilityOptions {
  /// Vehicle capacity assumed when testing pair routes (the fleet's max).
  int capacity = 4;
  /// Require the min-cost pair route to interleave riders (see file header).
  bool require_overlap = true;
};

/// The dynamic order pool graph.
///
/// Concurrency model: the graph itself is single-writer — all mutation
/// happens on the caller's thread. Insert and ExpireEdges fan their pure
/// per-pair/per-entry work out over the executor and commit the results
/// serially (arrival by arrival, each ascending by partner id), so the
/// resulting graph is bitwise identical for any thread count (see
/// thread_pool.h, determinism contract).
///
/// Dense slots: every resident order holds a slot in [0, slot capacity),
/// taken from a free list by Insert's serial commit and returned by Remove.
/// Per slot the graph keeps the order's riders and an adjacency row of
/// 64-bit words (bit b of row a set iff slots a and b share an edge), so
/// the clique enumerator tests adjacency with one bit test. The rows take
/// capacity^2 / 8 bytes; the capacity doubles when the free list runs dry.
/// Free slots keep all-zero rows and columns: Remove clears the bits of the
/// edges it drops, and ExpireEdges those of the edges it trims. No result
/// depends on a slot number.
class ShareabilityGraph {
 public:
  ShareabilityGraph(RoutePlanner* planner, ShareabilityOptions options)
      : planner_(planner), options_(options) {}

  /// Installs the executor used to parallelize Insert's pair-feasibility
  /// tests and ExpireEdges' per-entry trims. Null (the default) or a
  /// 1-thread pool keeps everything on the calling thread. Not owned.
  void set_executor(ThreadPool* executor) {
    executor_ = executor != nullptr ? executor : &ThreadPool::Inline();
  }

  /// Inserts `arrivals` in order, with exactly the edges, counters and
  /// adjacency order that one Insert call per arrival would produce: each
  /// arrival is tested against the residents and the earlier admitted
  /// arrivals of the batch. All of the batch's pair tests run in one
  /// fan-out. Returns one outcome per arrival, in input order.
  std::vector<InsertOutcome> Insert(std::span<const Arrival> arrivals);

  /// A batch of one.
  InsertOutcome Insert(const Order& order, Time now) {
    const Arrival arrival{order, now};
    return std::move(Insert(std::span(&arrival, 1)).front());
  }

  /// Removes an order and all its edges. Returns the ids of former
  /// neighbors. NotFound if absent.
  Result<std::vector<OrderId>> Remove(OrderId id);

  /// Drops all edges with expiry < now. Returns the ids of orders that lost
  /// at least one edge.
  std::vector<OrderId> ExpireEdges(Time now);

  bool Contains(OrderId id) const { return entries_.count(id) > 0; }
  const Order* GetOrder(OrderId id) const;

  /// Adjacency of `id` (empty if unknown).
  const std::vector<ShareEdge>& Neighbors(OrderId id) const;

  /// True if an edge not yet trimmed by ExpireEdges links a and b.
  bool HasEdge(OrderId a, OrderId b) const;

  /// The dense slot of a resident order; nullopt if `id` is not pooled.
  std::optional<uint32_t> SlotOf(OrderId id) const;

  /// True if the orders in slots `a` and `b` share an edge (both must be
  /// resident orders' slots).
  bool Adjacent(uint32_t a, uint32_t b) const {
    return (adjacency_[a * words_per_row_ + (b >> 6)] >> (b & 63)) & 1;
  }

  /// Riders of the order in `slot`.
  int RidersAt(uint32_t slot) const { return riders_[slot]; }

  /// Ids of all resident orders (unspecified order).
  std::vector<OrderId> OrderIds() const;

  size_t size() const { return entries_.size(); }
  int64_t edge_count() const { return edge_count_; }
  int64_t pair_tests() const { return pair_tests_; }

 private:
  struct Entry {
    Order order;
    uint32_t slot = 0;
    std::vector<ShareEdge> edges;
  };

  void RemoveEdgeTo(OrderId from, OrderId to);

  /// A free slot for an order of `riders` riders, doubling the capacity
  /// when none is free. Serial commits only.
  uint32_t AcquireSlot(int riders);

  uint64_t* Row(uint32_t slot) { return &adjacency_[slot * words_per_row_]; }
  static void SetBit(uint64_t* row, uint32_t b) {
    row[b >> 6] |= 1ull << (b & 63);
  }
  static void ClearBit(uint64_t* row, uint32_t b) {
    row[b >> 6] &= ~(1ull << (b & 63));
  }

  RoutePlanner* planner_;
  ShareabilityOptions options_;
  ThreadPool* executor_ = &ThreadPool::Inline();  // Never null; not owned.
  std::unordered_map<OrderId, Entry> entries_;
  /// Slot capacity x words_per_row_ words; row a holds a's adjacency bits.
  std::vector<uint64_t> adjacency_;
  size_t words_per_row_ = 0;          // Slot capacity / 64.
  std::vector<int> riders_;           // By slot; its size is the capacity.
  std::vector<uint32_t> free_slots_;  // Popped from the back.
  int64_t edge_count_ = 0;   // Undirected edges currently present.
  int64_t pair_tests_ = 0;   // Pair plans attempted (diagnostics).
  std::vector<ShareEdge> empty_;
};

}  // namespace watter

#endif  // WATTER_POOL_SHAREABILITY_GRAPH_H_
