// k-clique enumeration over the shareability graph.
//
// Theorem IV.1: a group of k orders can only have a feasible route if the
// corresponding nodes form a k-clique. The pool therefore enumerates cliques
// containing a given anchor order to collect candidate groups, which are then
// verified exactly with the route planner. Enumeration is bounded both by
// the maximum group size and by a visit budget so pathological dense pools
// cannot stall a decision round.
//
// The enumerator is allocation-free on the visit path: one reusable scratch
// buffer holds every level's candidate range (an explicit stack of ranges
// into it replaces recursion), members are emitted through a span over a
// small sorted buffer, and all scratch is reused across Enumerate calls.
// The previous recursive implementation heap-allocated a sorted copy plus a
// filtered candidate vector per visited clique — at 4096 visits per anchor
// that dominated dense-pool maintenance. Candidates carry their graph slot,
// so extending a clique tests adjacency with one bit test and the running
// rider count reads riders by slot: the enumerator itself looks up no id
// after the anchor.
#ifndef WATTER_POOL_CLIQUE_ENUMERATOR_H_
#define WATTER_POOL_CLIQUE_ENUMERATOR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/core/types.h"
#include "src/pool/shareability_graph.h"

namespace watter {

/// Bounds for clique enumeration.
struct CliqueOptions {
  int max_size = kMaxGroupSize;  ///< Largest clique (group) size emitted.
  int max_visits = 4096;         ///< Hard cap on emitted cliques per anchor.
};

/// Reusable clique enumerator. Each instance owns scratch buffers that grow
/// to the densest anchor seen and are reused across calls; distinct
/// instances are fully independent, so concurrent searches each carry their
/// own enumerator (BestGroupMap keeps one per parallel task via a
/// thread_local).
class CliqueEnumerator {
 public:
  /// Calls `visit` with a sorted member span (anchor included) for every
  /// clique of size in [2, options.max_size] that contains `anchor`.
  /// Returns the number of cliques visited; stops early once
  /// options.max_visits is reached.
  ///
  /// The same clique is emitted exactly once, and sub-cliques of larger
  /// cliques are emitted too (every sub-clique is itself a candidate group).
  /// The visit sequence is deterministic — depth-first, candidates in
  /// ascending id order — and identical to the recursive reference
  /// implementation this replaced, so a truncated enumeration sees exactly
  /// the same prefix (the `none_` soundness rules depend on this).
  ///
  /// The span passed to `visit` aliases internal scratch: it is valid only
  /// for the duration of the call and must be copied to outlive it. During
  /// a visit, riders() is the clique's total riders.
  template <typename Visitor>
  int Enumerate(const ShareabilityGraph& graph, OrderId anchor,
                const CliqueOptions& options, Visitor&& visit) {
    const std::optional<uint32_t> anchor_slot = graph.SlotOf(anchor);
    if (!anchor_slot.has_value() || options.max_size < 2) return 0;
    candidates_.clear();
    members_.clear();
    frames_.clear();

    for (const ShareEdge& edge : graph.Neighbors(anchor)) {
      candidates_.push_back(Candidate{edge.other, edge.other_slot});
    }
    // Deterministic order regardless of hash-map iteration.
    std::sort(candidates_.begin(), candidates_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.id < b.id;
              });

    members_.push_back(anchor);
    riders_ = graph.RidersAt(*anchor_slot);
    frames_.push_back(Frame{0, candidates_.size(), 0, false});
    int visited = 0;

    while (!frames_.empty()) {
      Frame& frame = frames_.back();
      if (frame.member_pushed) {
        // Done with candidates_[next - 1]: drop it and advance.
        const Candidate& done = candidates_[frame.next - 1];
        PopMember(done.id);
        riders_ -= graph.RidersAt(done.slot);
        frame.member_pushed = false;
        continue;
      }
      if (visited >= options.max_visits || frame.next >= frame.end) {
        candidates_.resize(frame.begin);
        frames_.pop_back();
        continue;
      }
      const Candidate next = candidates_[frame.next++];
      PushMember(next.id);
      riders_ += graph.RidersAt(next.slot);
      frame.member_pushed = true;
      ++visited;
      visit(std::span<const OrderId>(members_));

      if (static_cast<int>(members_.size()) < options.max_size) {
        // Candidates for deeper extension: later-indexed candidates
        // adjacent to `next` (adjacency to all earlier members is
        // inductively true). Appended to the shared buffer; the child
        // frame's range is truncated away when it pops.
        size_t child_begin = candidates_.size();
        for (size_t j = frame.next; j < frame.end; ++j) {
          const Candidate candidate = candidates_[j];
          if (graph.Adjacent(next.slot, candidate.slot)) {
            candidates_.push_back(candidate);
          }
        }
        if (candidates_.size() > child_begin) {
          // Invalidates `frame`; nothing below touches it.
          frames_.push_back(
              Frame{child_begin, candidates_.size(), child_begin, false});
        }
      }
    }
    return visited;
  }

  /// Total riders of the clique being visited (valid inside `visit`).
  int riders() const { return riders_; }

 private:
  /// A clique candidate: an anchor neighbour and its graph slot.
  struct Candidate {
    OrderId id;
    uint32_t slot;
  };

  /// One in-flight enumeration level: a candidate range in `candidates_`
  /// and the loop position within it.
  struct Frame {
    size_t begin;        ///< Range start in candidates_.
    size_t end;          ///< Range end in candidates_.
    size_t next;         ///< Next candidate index to try (absolute).
    bool member_pushed;  ///< candidates_[next-1] currently in members_.
  };

  /// Inserts `id` keeping members_ sorted (<= kMaxGroupSize elements).
  void PushMember(OrderId id) {
    members_.push_back(id);
    for (size_t p = members_.size() - 1; p > 0 && members_[p - 1] > id; --p) {
      std::swap(members_[p - 1], members_[p]);
    }
  }

  void PopMember(OrderId id) {
    members_.erase(std::find(members_.begin(), members_.end(), id));
  }

  std::vector<Candidate> candidates_;  ///< All levels' ranges, stacked.
  std::vector<OrderId> members_;      ///< Current clique, sorted.
  int riders_ = 0;                    ///< Riders of members_.
  std::vector<Frame> frames_;
};

}  // namespace watter

#endif  // WATTER_POOL_CLIQUE_ENUMERATOR_H_
