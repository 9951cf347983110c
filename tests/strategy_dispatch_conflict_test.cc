// Table-driven tests of the batched-dispatch conflict resolution
// (docs/DISPATCH.md): offers sorted by the (cost, anchor, worker) total
// order, then accepted greedily. Covers the two conflict classes — worker
// contention and order-in-two-groups — plus empty rounds, tie-breaking,
// and invariance to the (thread-count-dependent) input order, both on a
// hand-written case table and on dense random rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/strategy/decision.h"

namespace watter {
namespace {

DispatchOffer MakeOffer(OrderId anchor, std::vector<OrderId> members,
                        WorkerId worker, double cost) {
  DispatchOffer offer;
  offer.anchor = anchor;
  offer.members = std::move(members);
  std::sort(offer.members.begin(), offer.members.end());
  offer.worker = worker;
  offer.cost = cost;
  return offer;
}

struct ConflictCase {
  std::string name;
  std::vector<DispatchOffer> offers;
  // Expected outcomes per *sorted* offer position, and the anchors in
  // sorted order (documents the total order the expectation refers to).
  std::vector<OrderId> sorted_anchors;
  std::vector<OfferOutcome> expected;
};

std::vector<ConflictCase> AllCases() {
  return {
      {"EmptyRound", {}, {}, {}},

      {"SingleOfferCommits",
       {MakeOffer(1, {1, 2}, 7, 10.0)},
       {1},
       {OfferOutcome::kCommitted}},

      // Two groups want worker 7; the cheaper one wins, the loser waits
      // for the next round.
      {"WorkerContentionCheapestWins",
       {MakeOffer(1, {1, 2}, 7, 20.0), MakeOffer(3, {3, 4}, 7, 10.0)},
       {3, 1},
       {OfferOutcome::kCommitted, OfferOutcome::kWorkerConflict}},

      // Equal costs: the anchor id breaks the tie, so the result is still
      // a pure function of the offer set.
      {"WorkerContentionTieBreaksByAnchor",
       {MakeOffer(5, {5, 6}, 7, 10.0), MakeOffer(2, {2, 9}, 7, 10.0)},
       {2, 5},
       {OfferOutcome::kCommitted, OfferOutcome::kWorkerConflict}},

      // Order 2 sits in two proposed groups (its own anchor's and order
      // 1's). Once {1,2} commits, the {2,3} offer has a dispatched rider.
      {"OrderInTwoGroups",
       {MakeOffer(1, {1, 2}, 7, 10.0), MakeOffer(2, {2, 3}, 8, 12.0)},
       {1, 2},
       {OfferOutcome::kCommitted, OfferOutcome::kOrderConflict}},

      // The same group proposed by two of its members dedupes naturally:
      // the second copy loses every member to the first.
      {"SameGroupTwiceDedupes",
       {MakeOffer(1, {1, 2}, 7, 10.0), MakeOffer(2, {1, 2}, 7, 10.0)},
       {1, 2},
       {OfferOutcome::kCommitted, OfferOutcome::kOrderConflict}},

      // Order overlap is classified before worker contention: an offer
      // whose riders already left has nothing to dispatch, whoever holds
      // the worker.
      {"OrderConflictBeatsWorkerConflict",
       {MakeOffer(1, {1, 2}, 7, 10.0), MakeOffer(2, {2, 3}, 7, 12.0)},
       {1, 2},
       {OfferOutcome::kCommitted, OfferOutcome::kOrderConflict}},

      // A conflict loser does not block later compatible offers: the
      // middle offer loses worker 7, but the third (distinct worker and
      // riders) still commits.
      {"LoserDoesNotCascade",
       {MakeOffer(1, {1, 2}, 7, 10.0), MakeOffer(3, {3, 4}, 7, 11.0),
        MakeOffer(5, {5, 6}, 8, 12.0)},
       {1, 3, 5},
       {OfferOutcome::kCommitted, OfferOutcome::kWorkerConflict,
        OfferOutcome::kCommitted}},

      // Solo offers obey the same rules as groups.
      {"SoloContendsLikeAGroup",
       {MakeOffer(1, {1}, 7, 10.0), MakeOffer(2, {2}, 7, 15.0),
        MakeOffer(3, {3}, 9, 20.0)},
       {1, 2, 3},
       {OfferOutcome::kCommitted, OfferOutcome::kWorkerConflict,
        OfferOutcome::kCommitted}},
  };
}

TEST(DispatchConflictTest, TableDrivenResolution) {
  for (const ConflictCase& test_case : AllCases()) {
    SCOPED_TRACE(test_case.name);
    std::vector<DispatchOffer> offers = test_case.offers;
    std::vector<OfferOutcome> outcomes = ResolveOffers(&offers);
    ASSERT_EQ(offers.size(), test_case.sorted_anchors.size());
    ASSERT_EQ(outcomes.size(), test_case.expected.size());
    for (size_t i = 0; i < offers.size(); ++i) {
      EXPECT_EQ(offers[i].anchor, test_case.sorted_anchors[i])
          << "sorted position " << i;
      EXPECT_EQ(outcomes[i], test_case.expected[i]) << "sorted position " << i;
    }
  }
}

TEST(DispatchConflictTest, ResolutionIsInputOrderInvariant) {
  // The propose phase completes offers in a thread-count-dependent order;
  // resolution must erase that. Shuffle each case and require the sorted
  // offers and outcomes to be identical to the unshuffled run.
  std::mt19937 shuffle_rng(12345);
  for (const ConflictCase& test_case : AllCases()) {
    SCOPED_TRACE(test_case.name);
    std::vector<DispatchOffer> reference = test_case.offers;
    std::vector<OfferOutcome> reference_outcomes = ResolveOffers(&reference);
    for (int round = 0; round < 10; ++round) {
      std::vector<DispatchOffer> shuffled = test_case.offers;
      std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
      std::vector<OfferOutcome> outcomes = ResolveOffers(&shuffled);
      ASSERT_EQ(shuffled.size(), reference.size());
      EXPECT_EQ(outcomes, reference_outcomes);
      for (size_t i = 0; i < shuffled.size(); ++i) {
        EXPECT_EQ(shuffled[i].anchor, reference[i].anchor);
        EXPECT_EQ(shuffled[i].worker, reference[i].worker);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property tests: the hand-written table above pins chosen cases; these
// generate dense random rounds and check what every greedy sorted-offers
// scan must satisfy. Small worker and order universes force heavy worker
// contention, member overlap and cost ties.

std::vector<DispatchOffer> RandomOffers(std::mt19937* rng) {
  // Anchors are unique per round (they are distinct pooled orders), but
  // extra members come from a small shared universe so groups overlap, and
  // few workers + few distinct costs force contention and cost ties.
  std::uniform_int_distribution<int> count_dist(0, 40);
  std::uniform_int_distribution<int> extra_dist(0, 3);
  std::uniform_int_distribution<OrderId> member_dist(1, 60);
  std::uniform_int_distribution<WorkerId> worker_dist(1, 12);
  std::uniform_int_distribution<int> cost_dist(1, 6);
  int n = count_dist(*rng);
  std::vector<DispatchOffer> offers;
  offers.reserve(n);
  for (int i = 0; i < n; ++i) {
    OrderId anchor = static_cast<OrderId>(i + 1);
    std::vector<OrderId> members = {anchor};
    for (int e = extra_dist(*rng); e > 0; --e) {
      members.push_back(member_dist(*rng));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    offers.push_back(MakeOffer(anchor, std::move(members), worker_dist(*rng),
                               static_cast<double>(cost_dist(*rng))));
  }
  return offers;
}

TEST(ResolveOffersPropertyTest, WinnersAreDisjointAndEveryLossIsJustified) {
  std::mt19937 rng(20240807);
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    std::vector<DispatchOffer> offers = RandomOffers(&rng);
    std::vector<OfferOutcome> outcomes = ResolveOffers(&offers);
    ASSERT_EQ(outcomes.size(), offers.size());
    // Workers and members held by the committed offers seen so far, in
    // sorted order: a loss must point at an earlier winner.
    std::unordered_set<WorkerId> committed_workers;
    std::unordered_set<OrderId> committed_members;
    for (size_t i = 0; i < offers.size(); ++i) {
      const DispatchOffer& offer = offers[i];
      if (i > 0) {
        EXPECT_FALSE(OfferBefore(offer, offers[i - 1]));
      }
      bool member_taken = std::any_of(
          offer.members.begin(), offer.members.end(),
          [&](OrderId member) { return committed_members.count(member) > 0; });
      switch (outcomes[i]) {
        case OfferOutcome::kCommitted:
          // Winners are pairwise disjoint in workers and in members.
          EXPECT_TRUE(committed_workers.insert(offer.worker).second);
          for (OrderId member : offer.members) {
            EXPECT_TRUE(committed_members.insert(member).second);
          }
          break;
        case OfferOutcome::kWorkerConflict:
          EXPECT_EQ(committed_workers.count(offer.worker), 1u);
          // Order overlap is classified first.
          EXPECT_FALSE(member_taken);
          break;
        case OfferOutcome::kOrderConflict:
          EXPECT_TRUE(member_taken);
          break;
      }
    }
  }
}

TEST(ResolveOffersPropertyTest, ShuffledInputResolvesIdentically) {
  std::mt19937 rng(987654321);
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    std::vector<DispatchOffer> base = RandomOffers(&rng);
    std::vector<DispatchOffer> reference = base;
    std::vector<OfferOutcome> expected = ResolveOffers(&reference);
    for (int round = 0; round < 5; ++round) {
      std::vector<DispatchOffer> shuffled = base;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      EXPECT_EQ(ResolveOffers(&shuffled), expected);
      ASSERT_EQ(shuffled.size(), reference.size());
      for (size_t i = 0; i < shuffled.size(); ++i) {
        EXPECT_EQ(shuffled[i].anchor, reference[i].anchor);
        EXPECT_EQ(shuffled[i].worker, reference[i].worker);
        EXPECT_EQ(shuffled[i].cost, reference[i].cost);
        EXPECT_EQ(shuffled[i].members, reference[i].members);
      }
    }
  }
}

TEST(DispatchConflictTest, OfferBeforeIsATotalOrderOnDistinctAnchors) {
  DispatchOffer cheap = MakeOffer(2, {2}, 7, 1.0);
  DispatchOffer expensive = MakeOffer(1, {1}, 7, 2.0);
  EXPECT_TRUE(OfferBefore(cheap, expensive));
  EXPECT_FALSE(OfferBefore(expensive, cheap));
  // Equal cost: anchor id decides; an offer never precedes itself.
  DispatchOffer also_cheap = MakeOffer(9, {9}, 3, 1.0);
  EXPECT_TRUE(OfferBefore(cheap, also_cheap));
  EXPECT_FALSE(OfferBefore(also_cheap, cheap));
  EXPECT_FALSE(OfferBefore(cheap, cheap));
}

}  // namespace
}  // namespace watter
