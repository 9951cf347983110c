// TravelTimeOracle: the single cost abstraction the whole framework uses.
//
// Every algorithm in the paper (pool management, route planning, GDP, GAS,
// RL features) only ever needs cost(l_i, l_j), the shortest travel time
// between two locations. Oracles answer that query from an APSP matrix, a
// contraction hierarchy, or on-demand Dijkstra with caching — all behind one
// interface so scenarios can pick the right trade-off for their city size.
#ifndef WATTER_GEO_TRAVEL_TIME_ORACLE_H_
#define WATTER_GEO_TRAVEL_TIME_ORACLE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/per_thread_counter.h"
#include "src/geo/apsp.h"
#include "src/geo/contraction_hierarchy.h"
#include "src/geo/graph.h"

namespace watter {

/// Abstract shortest-travel-time provider.
///
/// Besides the point-to-point Cost(), every oracle answers *batch* queries —
/// ManyToOne / OneToMany / ManyToMany — because the framework's two hottest
/// access patterns are inherently batched: a fleet probe rates all candidate
/// workers against one pickup, and a pool insertion rates one order against
/// all resident candidates. The base class implements the batch calls as
/// Cost() loops (exactly the code the callers used to inline), so every
/// backend is batch-callable; BucketChOracle overrides them with genuinely
/// batched bucket-CH searches that share work across the batch.
///
/// Thread safety: all queries may be called concurrently from the platform's
/// parallel check/maintenance loops. MatrixOracle is wait-free (const table
/// reads) and BucketChOracle is lock-free (published search spaces, an
/// atomic pair memo, per-thread scratch); ChOracle and DijkstraOracle
/// serialize behind an internal mutex.
class TravelTimeOracle {
 public:
  virtual ~TravelTimeOracle() = default;

  /// Shortest travel time (seconds) from `from` to `to`; kInfCost if
  /// unreachable. Implementations may cache internally. Safe to call from
  /// multiple threads.
  virtual double Cost(NodeId from, NodeId to) = 0;

  /// Batch query: out[i] = Cost(sources[i], target). `out` must have
  /// sources.size() slots. Results are exactly the values the equivalent
  /// Cost() loop would produce (the equivalence suite pins this for the
  /// bucket backend).
  virtual void ManyToOne(std::span<const NodeId> sources, NodeId target,
                         std::span<double> out);

  /// Batch query: out[j] = Cost(source, targets[j]). `out` must have
  /// targets.size() slots.
  virtual void OneToMany(NodeId source, std::span<const NodeId> targets,
                         std::span<double> out);

  /// Batch query: out[i * targets.size() + j] = Cost(sources[i],
  /// targets[j]) (row-major). `out` must have sources.size() *
  /// targets.size() slots.
  virtual void ManyToMany(std::span<const NodeId> sources,
                          std::span<const NodeId> targets,
                          std::span<double> out);

  /// True when the batch calls are genuinely batched rather than the base
  /// class's Cost() loops. Wrappers forward it, so a harness can confirm
  /// which backend it is measuring.
  virtual bool NativeBatch() const { return false; }

  /// Seconds spent building memoized search spaces (bucket-CH only; 0
  /// elsewhere). Accumulated atomically once per published space.
  virtual double bucket_build_seconds() const { return 0.0; }

  /// Number of point queries answered, batched or not (diagnostics).
  int64_t query_count() const { return query_count_.value(); }

  /// Number of batch calls answered (diagnostics).
  int64_t batch_count() const { return batch_count_.value(); }

  /// Total batched endpoints across all batch calls: sources for
  /// many-to-one, targets for one-to-many, both for many-to-many. Divided
  /// by batch_count() this is the mean batch width the consumers achieve.
  int64_t batch_points() const { return batch_points_.value(); }

 protected:
  // Cost() is the hottest call in the tree, made from every pool thread at
  // once, so each count is a plain load and store on the calling thread's
  // own cache line (PerThreadCounter::AddUnshared): no lock prefix and no
  // line shared between threads. The counts are diagnostic; they are exact
  // while at most PerThreadCounter::kSlots threads have counted at once.
  void CountQuery() { CountQueries(1); }

  void CountQueries(int64_t n) { query_count_.AddUnshared(n); }

  void CountBatch(int64_t points) {
    batch_count_.AddUnshared(1);
    batch_points_.AddUnshared(points);
  }

 private:
  PerThreadCounter query_count_;
  PerThreadCounter batch_count_;
  PerThreadCounter batch_points_;
};

/// Oracle backed by a dense all-pairs matrix: O(1) per query.
class MatrixOracle : public TravelTimeOracle {
 public:
  explicit MatrixOracle(std::shared_ptr<const CostMatrix> matrix)
      : matrix_(std::move(matrix)) {}

  double Cost(NodeId from, NodeId to) override {
    CountQuery();
    return matrix_->Cost(from, to);
  }

 private:
  std::shared_ptr<const CostMatrix> matrix_;
};

/// Oracle backed by a contraction hierarchy with a small memo cache.
class ChOracle : public TravelTimeOracle {
 public:
  ChOracle(std::shared_ptr<const ContractionHierarchy> ch,
           size_t cache_capacity = 1 << 20)
      : ch_(std::move(ch)), cache_capacity_(cache_capacity) {}

  double Cost(NodeId from, NodeId to) override;

  size_t cache_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }

 private:
  std::shared_ptr<const ContractionHierarchy> ch_;
  size_t cache_capacity_;
  mutable std::mutex mu_;  // Guards cache_.
  std::unordered_map<uint64_t, double> cache_;
};

/// Oracle running full Dijkstra per distinct source, LRU-bounded.
///
/// Amortizes well when many queries share sources (e.g. one order's pickup
/// probed against many candidate partners).
class DijkstraOracle : public TravelTimeOracle {
 public:
  explicit DijkstraOracle(const Graph* graph, size_t max_cached_sources = 256);

  double Cost(NodeId from, NodeId to) override;

 private:
  const std::vector<double>& RowFor(NodeId source);

  const Graph* graph_;
  size_t max_cached_sources_;
  std::mutex mu_;  // Guards rows_ and the LRU bookkeeping.
  std::unordered_map<NodeId, std::vector<double>> rows_;
  std::list<NodeId> lru_;  // Front = most recent.
  std::unordered_map<NodeId, std::list<NodeId>::iterator> lru_pos_;
};

}  // namespace watter

#endif  // WATTER_GEO_TRAVEL_TIME_ORACLE_H_
