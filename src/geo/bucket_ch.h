// Bucket contraction hierarchies: batched one-to-many / many-to-one /
// many-to-many distance queries over an existing CH.
//
// A point-to-point CH query runs one forward upward search from the source
// and one backward upward search from the target. When one endpoint is
// shared across a batch — a fleet probe rates K workers against one pickup,
// a pool insertion rates one order against all resident candidates — the
// per-query oracle repeats the shared half K times. The bucket technique
// (Knopp et al., "Computing Many-to-Many Shortest Paths Using Highway
// Hierarchies", ALENEX 2007; applied to large-scale dispatching by the KIT
// scalable-dispatcher line of work) computes each endpoint's upward search
// space exactly once: the spaces of one batch side are scattered into
// per-node buckets, and a single sweep from the other side joins against
// the buckets. A K-source many-to-one batch costs K forward spaces + 1
// backward space instead of K full bidirectional queries, and an |S| x |T|
// many-to-many costs |S| + |T| searches instead of |S| * |T|.
//
// Search spaces are also *node-deterministic*: the full upward space of a
// node never changes, so the oracle computes each (node, direction) space
// once and publishes it for every later caller (within a bounded entry
// budget). Across batches the dispatch workload revisits the same endpoints
// constantly — every idle worker is probed by many orders — and a revisit
// turns the Dijkstra into an array append, which is where the bulk of the
// batch speedup comes from. A point query is the same join over two
// published spaces, behind a memo of the pairs already answered.
//
// Exactness: the result for a pair is min over meeting nodes v of
// dist_up(s, v) + dist_down(v, t), computed from the same upward/downward
// search graphs and the same Dijkstra relaxations as
// ContractionHierarchy::Query — so results are bitwise identical to the
// per-query oracle (geo_oracle_equivalence_test pins this, including
// unreachable pairs, source == target, and concurrent callers).
#ifndef WATTER_GEO_BUCKET_CH_H_
#define WATTER_GEO_BUCKET_CH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/geo/contraction_hierarchy.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {

/// Batch-first, lock-free oracle over a contraction hierarchy.
///
/// Point and batch queries share one mechanism: join memoized upward search
/// spaces. Every answered pair is also kept in a fixed-size pair memo, so a
/// repeated point query is one hash probe.
///
/// Thread safety: every query may run concurrently with every other, and
/// none takes a lock. The hierarchy is only read. Each published search
/// space is immutable once a compare-and-swap makes it visible, and a racing
/// builder of the same space discards its identical copy. The pair memo is
/// an insert-only open-addressing table of atomic slots. Dijkstra, join and
/// bucket scratch is per thread. The oracle never calls the hierarchy's
/// Query(), so it may share a hierarchy with a ChOracle.
class BucketChOracle : public TravelTimeOracle {
 public:
  /// `cache_capacity` bounds the pair memo: min(cache_capacity, nodes^2)
  /// rounded up to a power of two slots (16 bytes each), of which at most
  /// three quarters are filled; past that, pairs are answered without being
  /// stored. `space_budget` caps the total entries (~16 bytes each) of the
  /// published search spaces; past it, spaces are recomputed into per-thread
  /// scratch instead. The defaults cover every node of the generated cities
  /// many times over. Answers never depend on either bound.
  explicit BucketChOracle(std::shared_ptr<const ContractionHierarchy> ch,
                          size_t cache_capacity = 1 << 20,
                          size_t space_budget = 1 << 22);
  ~BucketChOracle() override;

  BucketChOracle(const BucketChOracle&) = delete;
  BucketChOracle& operator=(const BucketChOracle&) = delete;

  double Cost(NodeId from, NodeId to) override;
  void ManyToOne(std::span<const NodeId> sources, NodeId target,
                 std::span<double> out) override;
  void OneToMany(NodeId source, std::span<const NodeId> targets,
                 std::span<double> out) override;
  void ManyToMany(std::span<const NodeId> sources,
                  std::span<const NodeId> targets,
                  std::span<double> out) override;

  bool NativeBatch() const override { return true; }

  /// Cumulative seconds spent running the search-space Dijkstras that got
  /// published: each (node, direction) counts at most once, and neither a
  /// racing builder's discarded copy nor an over-budget scratch rebuild
  /// counts. Kept as an atomic nanosecond total, so it is exact under
  /// concurrent callers.
  double bucket_build_seconds() const override {
    return static_cast<double>(build_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// Distinct pairs stored in the pair memo (exact when no query is in
  /// flight).
  size_t cache_size() const {
    return memo_used_.load(std::memory_order_relaxed);
  }

  /// Total entries across the published search spaces.
  size_t space_entries() const {
    return space_entries_.load(std::memory_order_relaxed);
  }

 private:
  /// One search-space label: the settled node and its upward distance from
  /// (or to) the space's root, in settle order.
  struct SpaceEntry {
    NodeId node;
    double dist;
  };
  using Space = std::vector<SpaceEntry>;

  /// One pair-memo slot. `key` is PairKey(from, to), 0 while empty (0 is
  /// the pair 0->0, which is never stored), or key | kPending while its
  /// writer is storing `value`.
  struct MemoSlot {
    std::atomic<uint64_t> key{0};
    std::atomic<double> value{0.0};
  };

  /// Per-thread query scratch (defined in bucket_ch.cc).
  struct Scratch;

  /// This thread's scratch, sized for this oracle.
  Scratch& LocalScratch() const;

  /// `root`'s full upward search space in the given direction. Published
  /// spaces live as long as the oracle; an over-budget space is built into
  /// the thread's overflow buffer for that direction and is valid until the
  /// next SpaceOf call in the same direction on this thread.
  const Space& SpaceOf(NodeId root, bool forward, Scratch& scratch);

  /// Shared core of ManyToOne/OneToMany: answers all (batch[i], apex) or
  /// (apex, batch[i]) pairs, `batch_is_sources` naming the batch side.
  void BatchAgainstApex(std::span<const NodeId> batch, NodeId apex,
                        bool batch_is_sources, std::span<double> out);

  bool MemoLookup(NodeId from, NodeId to, double* cost) const;
  void MemoInsert(NodeId from, NodeId to, double cost);

  std::shared_ptr<const ContractionHierarchy> ch_;
  // Keys the thread-local scratch. Taken from a global counter rather than
  // `this`, so an oracle allocated at a freed oracle's address never
  // inherits scratch sized for its predecessor.
  const uint64_t id_;

  // Published search spaces, one cell per node and direction; null until
  // the first build wins the compare-and-swap. Owned (freed in the
  // destructor).
  std::vector<std::atomic<const Space*>> spaces_f_;
  std::vector<std::atomic<const Space*>> spaces_b_;
  const size_t space_budget_;
  std::atomic<size_t> space_entries_{0};
  std::atomic<int64_t> build_ns_{0};

  // Pair memo: memo_mask_ + 1 slots (none when the capacity is 0), filled to
  // at most memo_limit_. memo_used_ counts stored pairs plus in-flight
  // reservations; it sits on its own cache line so that inserts do not
  // evict the fields every lookup reads.
  std::unique_ptr<MemoSlot[]> memo_;
  size_t memo_mask_ = 0;
  size_t memo_limit_ = 0;
  alignas(64) std::atomic<size_t> memo_used_{0};
};

}  // namespace watter

#endif  // WATTER_GEO_BUCKET_CH_H_
