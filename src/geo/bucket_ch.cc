#include "src/geo/bucket_ch.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <utility>

#include "src/obs/trace.h"

namespace watter {
namespace {

// Marks a memo slot whose writer has claimed it but not yet stored the
// value. No real key sets bit 63: both halves are node ids below 2^31.
constexpr uint64_t kPending = uint64_t{1} << 63;

uint64_t PairKey(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

// Spreads the structured pair keys over the table (splitmix64 finalizer).
size_t MemoHash(uint64_t key) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return static_cast<size_t>(key);
}

std::atomic<uint64_t> next_oracle_id{1};

}  // namespace

struct BucketChOracle::Scratch {
  /// One scattered search-space entry: `slot` indexes the batch-local
  /// distinct-endpoint list, `dist` is the upward distance from (or to) it.
  struct BucketEntry {
    int32_t slot;
    double dist;
  };

  uint64_t owner = 0;  // id_ of the oracle this scratch is sized for.

  // Versioned per-node labels, reused across queries without clearing: a
  // search's tentative distances, then a point query's join marks.
  std::vector<double> dist;
  std::vector<uint32_t> version;
  uint32_t epoch = 0;
  std::vector<std::pair<double, NodeId>> heap;

  // buckets[v] holds the scattered entries of the current batch; touched
  // lists the non-empty buckets so clearing is O(spaces), not O(nodes).
  std::vector<std::vector<BucketEntry>> buckets;
  std::vector<NodeId> touched;

  // slot_of[v] is v's index in the batch's distinct-endpoint list while a
  // batch is being deduplicated, -1 otherwise.
  std::vector<int32_t> slot_of;

  // Over-budget spaces, one per direction (indexed by `forward`): Cost()
  // holds a forward and a backward space at once.
  Space overflow[2];

  void Reset(uint64_t id, size_t n) {
    owner = id;
    dist.assign(n, kInfCost);
    version.assign(n, 0);
    epoch = 0;
    heap.clear();
    buckets.clear();
    buckets.resize(n);
    touched.clear();
    slot_of.assign(n, -1);
    overflow[0].clear();
    overflow[1].clear();
  }

  uint32_t NextEpoch() {
    if (++epoch == 0) {  // Wrapped: stale marks could collide, so drop them.
      std::fill(version.begin(), version.end(), 0);
      epoch = 1;
    }
    return epoch;
  }

  /// Full (unpruned) upward Dijkstra from `root` over the forward or
  /// backward search graph, appending every settled node to `out` in settle
  /// order. The heap runs std::priority_queue's own algorithm (push_heap /
  /// pop_heap under std::greater), so the labels are those of
  /// ContractionHierarchy::Query minus its stopping rule.
  void Search(const ContractionHierarchy& ch, NodeId root, bool forward,
              Space* out) {
    const uint32_t now = NextEpoch();
    const std::greater<std::pair<double, NodeId>> later;
    heap.clear();
    dist[root] = 0.0;
    version[root] = now;
    heap.push_back({0.0, root});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const auto [d, v] = heap.back();
      heap.pop_back();
      if (version[v] != now || d > dist[v]) continue;
      out->push_back({v, d});
      for (const Arc& arc : forward ? ch.UpArcs(v) : ch.DownArcs(v)) {
        const double candidate = d + arc.weight;
        if (version[arc.to] != now || candidate < dist[arc.to]) {
          dist[arc.to] = candidate;
          version[arc.to] = now;
          heap.push_back({candidate, arc.to});
          std::push_heap(heap.begin(), heap.end(), later);
        }
      }
    }
  }

  /// min over nodes v in both spaces of fwd(v) + bwd(v): the sum the bucket
  /// sweeps compute, here for a single pair.
  double Join(const Space& forward_space, const Space& backward_space) {
    const uint32_t now = NextEpoch();
    for (const SpaceEntry& label : forward_space) {
      dist[label.node] = label.dist;
      version[label.node] = now;
    }
    double best = kInfCost;
    for (const SpaceEntry& label : backward_space) {
      if (version[label.node] != now) continue;
      const double candidate = dist[label.node] + label.dist;
      if (candidate < best) best = candidate;
    }
    return best;
  }

  /// Appends `space` to the buckets of its nodes under batch slot `slot`.
  void Scatter(const Space& space, int32_t slot) {
    for (const SpaceEntry& label : space) {
      if (buckets[label.node].empty()) touched.push_back(label.node);
      buckets[label.node].push_back({slot, label.dist});
    }
  }

  void ClearBuckets() {
    for (NodeId v : touched) buckets[v].clear();
    touched.clear();
  }

  /// v's slot in `distinct`, appending v on first sight.
  int32_t SlotOf(NodeId v, std::vector<NodeId>* distinct) {
    int32_t& slot = slot_of[v];
    if (slot < 0) {
      slot = static_cast<int32_t>(distinct->size());
      distinct->push_back(v);
    }
    return slot;
  }

  void ClearSlots(const std::vector<NodeId>& distinct) {
    for (NodeId v : distinct) slot_of[v] = -1;
  }
};

BucketChOracle::BucketChOracle(std::shared_ptr<const ContractionHierarchy> ch,
                               size_t cache_capacity, size_t space_budget)
    : ch_(std::move(ch)),
      id_(next_oracle_id.fetch_add(1, std::memory_order_relaxed)),
      spaces_f_(static_cast<size_t>(ch_->num_nodes())),
      spaces_b_(static_cast<size_t>(ch_->num_nodes())),
      space_budget_(space_budget) {
  // Only ordered pairs of distinct in-range nodes are stored, so a small
  // city needs no more than n^2 slots. At most 3/4 of
  // bit_ceil(min(cache_capacity, n^2)) pairs are stored; later new pairs are
  // answered without being stored.
  const size_t n = static_cast<size_t>(ch_->num_nodes());
  const size_t wanted = std::min(cache_capacity, n * n);
  if (wanted > 0) {
    const size_t slots = std::bit_ceil(wanted);
    memo_ = std::make_unique<MemoSlot[]>(slots);
    memo_mask_ = slots - 1;
    // Always below `slots`: an empty slot ends every probe sequence.
    memo_limit_ = slots * 3 / 4;
  }
}

BucketChOracle::~BucketChOracle() {
  for (auto* cells : {&spaces_f_, &spaces_b_}) {
    for (std::atomic<const Space*>& cell : *cells) {
      delete cell.load(std::memory_order_relaxed);
    }
  }
}

BucketChOracle::Scratch& BucketChOracle::LocalScratch() const {
  thread_local Scratch scratch;
  if (scratch.owner != id_) {
    scratch.Reset(id_, static_cast<size_t>(ch_->num_nodes()));
  }
  return scratch;
}

const BucketChOracle::Space& BucketChOracle::SpaceOf(NodeId root,
                                                     bool forward,
                                                     Scratch& scratch) {
  std::atomic<const Space*>& cell = (forward ? spaces_f_ : spaces_b_)[root];
  if (const Space* published = cell.load(std::memory_order_acquire)) {
    return *published;
  }
  if (space_entries_.load(std::memory_order_relaxed) >= space_budget_) {
    Space& overflow = scratch.overflow[forward];
    overflow.clear();
    scratch.Search(*ch_, root, forward, &overflow);
    return overflow;
  }
  const auto build_start = std::chrono::steady_clock::now();
  auto built = std::make_unique<Space>();
  scratch.Search(*ch_, root, forward, built.get());
  const int64_t build_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - build_start)
          .count();
  // A space is a pure function of (root, direction), so a builder that
  // loses the race drops its copy and adopts the winner's identical one.
  // Only the publishing build counts, keeping build time once per space.
  const Space* expected = nullptr;
  if (!cell.compare_exchange_strong(expected, built.get(),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return *expected;
  }
  space_entries_.fetch_add(built->size(), std::memory_order_relaxed);
  build_ns_.fetch_add(build_ns, std::memory_order_relaxed);
  return *built.release();
}

// Readers acquire-load a slot's key and treat a pending slot as a miss, so
// a value is only read after its writer's release-store of the key.
bool BucketChOracle::MemoLookup(NodeId from, NodeId to, double* cost) const {
  if (!memo_) return false;
  const uint64_t key = PairKey(from, to);
  for (size_t i = MemoHash(key) & memo_mask_;; i = (i + 1) & memo_mask_) {
    const uint64_t seen = memo_[i].key.load(std::memory_order_acquire);
    if (seen == key) {
      *cost = memo_[i].value.load(std::memory_order_relaxed);
      return true;
    }
    if (seen == 0 || seen == (key | kPending)) return false;
  }
}

// Insert-only: a writer reserves room under memo_limit_ first, then claims
// an empty slot by CAS to key | kPending, stores the value and publishes the
// key. Once the reservations run out, later pairs are simply not stored
// (the plain load spares a full table one read-modify-write per insert).
void BucketChOracle::MemoInsert(NodeId from, NodeId to, double cost) {
  if (memo_used_.load(std::memory_order_relaxed) >= memo_limit_) return;
  if (memo_used_.fetch_add(1, std::memory_order_relaxed) >= memo_limit_) {
    memo_used_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t key = PairKey(from, to);
  for (size_t i = MemoHash(key) & memo_mask_;; i = (i + 1) & memo_mask_) {
    uint64_t seen = memo_[i].key.load(std::memory_order_relaxed);
    if (seen == 0 &&
        memo_[i].key.compare_exchange_strong(seen, key | kPending,
                                             std::memory_order_relaxed)) {
      memo_[i].value.store(cost, std::memory_order_relaxed);
      memo_[i].key.store(key, std::memory_order_release);
      return;
    }
    if ((seen & ~kPending) == key) {  // Stored (or being stored) already.
      memo_used_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }
}

double BucketChOracle::Cost(NodeId from, NodeId to) {
  CountQuery();
  if (from == to) return 0.0;
  const NodeId n = ch_->num_nodes();
  if (from < 0 || from >= n || to < 0 || to >= n) return kInfCost;
  double cost;
  if (MemoLookup(from, to, &cost)) return cost;
  Scratch& scratch = LocalScratch();
  const Space& forward_space = SpaceOf(from, /*forward=*/true, scratch);
  const Space& backward_space = SpaceOf(to, /*forward=*/false, scratch);
  cost = scratch.Join(forward_space, backward_space);
  MemoInsert(from, to, cost);
  return cost;
}

// Why a join equals ContractionHierarchy::Query bit for bit: both compute
// min over meeting nodes v of dist_up(endpoint_a, v) + dist_down(v,
// endpoint_b). The pruned point query may stop before settling some v, but
// every node it skips satisfies dist >= frontier >= best in both directions,
// so the full-space join can only add candidates >= best, and the labels of
// co-settled nodes are identical because Search is the same Dijkstra (same
// heap, same tie-breaking) minus the stopping rule.
void BucketChOracle::BatchAgainstApex(std::span<const NodeId> batch,
                                      NodeId apex, bool batch_is_sources,
                                      std::span<double> out) {
  const NodeId n = ch_->num_nodes();
  const bool apex_ok = apex >= 0 && apex < n;
  // Resolve trivial and memoized pairs up front; dedupe the rest into slots
  // so each distinct endpoint's search space is scattered once.
  Scratch& scratch = LocalScratch();
  std::vector<NodeId> pending;
  std::vector<int32_t> out_slot(batch.size(), -1);
  for (size_t i = 0; i < batch.size(); ++i) {
    const NodeId b = batch[i];
    if (b == apex) {  // Matches Cost(): equality wins before range checks.
      out[i] = 0.0;
      continue;
    }
    if (!apex_ok || b < 0 || b >= n) {
      out[i] = kInfCost;
      continue;
    }
    double cost;
    const bool hit = batch_is_sources ? MemoLookup(b, apex, &cost)
                                      : MemoLookup(apex, b, &cost);
    if (hit) {
      out[i] = cost;
      continue;
    }
    out_slot[i] = scratch.SlotOf(b, &pending);
  }
  scratch.ClearSlots(pending);
  if (pending.empty()) return;

  // Scatter the batch side's search spaces into buckets — the work the
  // per-query oracle would redo once per pair instead of once per endpoint
  // — then join with the apex's space.
  for (size_t k = 0; k < pending.size(); ++k) {
    scratch.Scatter(SpaceOf(pending[k], /*forward=*/batch_is_sources, scratch),
                    static_cast<int32_t>(k));
  }
  std::vector<double> best(pending.size(), kInfCost);
  for (const SpaceEntry& label :
       SpaceOf(apex, /*forward=*/!batch_is_sources, scratch)) {
    for (const Scratch::BucketEntry& entry : scratch.buckets[label.node]) {
      const double candidate = entry.dist + label.dist;
      if (candidate < best[entry.slot]) best[entry.slot] = candidate;
    }
  }
  scratch.ClearBuckets();

  for (size_t k = 0; k < pending.size(); ++k) {
    if (batch_is_sources) {
      MemoInsert(pending[k], apex, best[k]);
    } else {
      MemoInsert(apex, pending[k], best[k]);
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (out_slot[i] >= 0) out[i] = best[out_slot[i]];
  }
}

void BucketChOracle::ManyToOne(std::span<const NodeId> sources, NodeId target,
                               std::span<double> out) {
  WATTER_TRACE_SPAN_HOT("oracle.many_to_one");
  CountBatch(static_cast<int64_t>(sources.size()));
  CountQueries(static_cast<int64_t>(sources.size()));
  BatchAgainstApex(sources, target, /*batch_is_sources=*/true, out);
}

void BucketChOracle::OneToMany(NodeId source, std::span<const NodeId> targets,
                               std::span<double> out) {
  WATTER_TRACE_SPAN_HOT("oracle.one_to_many");
  CountBatch(static_cast<int64_t>(targets.size()));
  CountQueries(static_cast<int64_t>(targets.size()));
  BatchAgainstApex(targets, source, /*batch_is_sources=*/false, out);
}

void BucketChOracle::ManyToMany(std::span<const NodeId> sources,
                                std::span<const NodeId> targets,
                                std::span<double> out) {
  WATTER_TRACE_SPAN_HOT("oracle.many_to_many");
  CountBatch(static_cast<int64_t>(sources.size() + targets.size()));
  CountQueries(static_cast<int64_t>(sources.size() * targets.size()));
  const NodeId n = ch_->num_nodes();
  const size_t num_targets = targets.size();
  Scratch& scratch = LocalScratch();

  // Backward buckets over the distinct valid targets, built once for the
  // whole matrix; each source then contributes one forward sweep.
  std::vector<NodeId> pending;
  std::vector<int32_t> target_slot(num_targets, -1);
  for (size_t j = 0; j < num_targets; ++j) {
    const NodeId t = targets[j];
    if (t >= 0 && t < n) target_slot[j] = scratch.SlotOf(t, &pending);
  }
  scratch.ClearSlots(pending);
  for (size_t k = 0; k < pending.size(); ++k) {
    scratch.Scatter(SpaceOf(pending[k], /*forward=*/false, scratch),
                    static_cast<int32_t>(k));
  }

  std::vector<double> best(pending.size(), kInfCost);
  for (size_t i = 0; i < sources.size(); ++i) {
    const NodeId s = sources[i];
    std::span<double> row = out.subspan(i * num_targets, num_targets);
    const bool s_ok = s >= 0 && s < n;
    if (s_ok && !pending.empty()) {
      std::fill(best.begin(), best.end(), kInfCost);
      for (const SpaceEntry& label : SpaceOf(s, /*forward=*/true, scratch)) {
        for (const Scratch::BucketEntry& entry : scratch.buckets[label.node]) {
          const double candidate = label.dist + entry.dist;
          if (candidate < best[entry.slot]) best[entry.slot] = candidate;
        }
      }
    }
    for (size_t j = 0; j < num_targets; ++j) {
      if (s == targets[j]) {  // Cost() order: equality before range checks.
        row[j] = 0.0;
      } else if (!s_ok || target_slot[j] < 0) {
        row[j] = kInfCost;
      } else {
        row[j] = best[target_slot[j]];
        MemoInsert(s, targets[j], row[j]);
      }
    }
  }
  scratch.ClearBuckets();
}

}  // namespace watter
