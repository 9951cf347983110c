// Oracle-equivalence harness for the batched bucket-CH backend.
//
// The batch API's contract (travel_time_oracle.h) is that ManyToOne /
// OneToMany / ManyToMany return exactly the values the equivalent Cost()
// loop would produce. For the bucket backend that is a *bitwise* claim
// against the per-query CH oracle: both compute min over meeting nodes v of
// dist_up(s, v) + dist_down(v, t) from the same search graphs with the same
// Dijkstra relaxation order, so not even the last ulp may differ — which is
// what lets the simulation flip backends without perturbing a single metric
// (see the GeoBackend axis of sim_parallel_determinism_test).
//
// Against plain Dijkstra on the original graph the comparison is NEAR(1e-9),
// the repo's precedent for CH-vs-Dijkstra (geo_ch_stress_test.cc): shortcut
// weights are sums of arc weights accumulated in a different association
// order, so exact FP equality is not guaranteed there — only for
// unreachable (kInfCost) and source == target (0.0) verdicts.
#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/geo/bucket_ch.h"
#include "src/geo/city_generator.h"
#include "src/geo/contraction_hierarchy.h"
#include "src/geo/dijkstra.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {
namespace {

std::shared_ptr<const ContractionHierarchy> BuildCh(const Graph& graph) {
  auto ch = ContractionHierarchy::Build(graph);
  EXPECT_TRUE(ch.ok());
  return std::make_shared<const ContractionHierarchy>(std::move(ch).value());
}

/// Draws a batch of nodes that deliberately includes the adversarial shapes:
/// duplicates (exercises the distinct-endpoint dedupe), with `apex` given
/// the apex itself (source == target must short-circuit to 0.0), and with
/// `out_of_range` > 0 that share of ids outside the graph. At the default
/// of 0 the out-of-range branch never fires and consumes no random draws,
/// so callers that pass no share keep their seeded node sequences.
std::vector<NodeId> DrawBatch(const City& city, Rng* rng, int max_size,
                              NodeId apex = kInvalidNode,
                              double out_of_range = 0.0) {
  int size = static_cast<int>(rng->UniformInt(1, max_size));
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    double roll = rng->Uniform(0.0, 1.0);
    if (roll < 0.15 && !nodes.empty()) {
      nodes.push_back(nodes[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(nodes.size()) - 1))]);
    } else if (roll < 0.3 && apex != kInvalidNode) {
      nodes.push_back(apex);
    } else if (out_of_range > 0.0 && roll >= 1.0 - out_of_range) {
      nodes.push_back(rng->Bernoulli(0.5) ? NodeId{-1}
                                          : city.graph.num_nodes());
    } else {
      nodes.push_back(city.RandomNode(rng));
    }
  }
  return nodes;
}

class OracleEquivalenceTest : public testing::TestWithParam<uint64_t> {};

// Bitwise batch-vs-per-query equivalence on generated cities, all three
// batch shapes, across repeated rounds so later batches also exercise the
// memo-cache hit paths of both oracles.
TEST_P(OracleEquivalenceTest, BucketBatchesMatchPerQueryChBitwise) {
  const uint64_t seed = GetParam();
  auto city = GenerateCity({.width = 18, .height = 18, .jitter = 0.3,
                            .center_slowdown = 1.8,
                            .seed = seed});
  ASSERT_TRUE(city.ok());
  auto ch = BuildCh(city->graph);
  ChOracle per_query(ch);
  BucketChOracle bucket(ch);
  ASSERT_TRUE(bucket.NativeBatch());
  ASSERT_FALSE(per_query.NativeBatch());

  Rng rng(seed * 31 + 7);
  for (int round = 0; round < 25; ++round) {
    NodeId apex = city->RandomNode(&rng);

    std::vector<NodeId> sources = DrawBatch(*city, &rng, 12, apex);
    std::vector<double> got(sources.size());
    bucket.ManyToOne(sources, apex, got);
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(got[i], per_query.Cost(sources[i], apex))
          << "seed " << seed << " round " << round << " m2o slot " << i;
      EXPECT_EQ(got[i], bucket.Cost(sources[i], apex)) << "self-consistency";
    }

    std::vector<NodeId> targets = DrawBatch(*city, &rng, 12, apex);
    got.assign(targets.size(), -1.0);
    bucket.OneToMany(apex, targets, got);
    for (size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(got[j], per_query.Cost(apex, targets[j]))
          << "seed " << seed << " round " << round << " o2m slot " << j;
    }

    std::vector<NodeId> rows = DrawBatch(*city, &rng, 6);
    std::vector<NodeId> cols = DrawBatch(*city, &rng, 6);
    std::vector<double> matrix(rows.size() * cols.size(), -1.0);
    bucket.ManyToMany(rows, cols, matrix);
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = 0; j < cols.size(); ++j) {
        EXPECT_EQ(matrix[i * cols.size() + j],
                  per_query.Cost(rows[i], cols[j]))
            << "seed " << seed << " round " << round << " m2m " << i << ","
            << j;
      }
    }
  }
}

// The same batches against plain Dijkstra ground truth on the original
// graph: NEAR(1e-9) for finite costs, exact for 0.0/unreachable verdicts.
TEST_P(OracleEquivalenceTest, BucketBatchesMatchDijkstraGroundTruth) {
  const uint64_t seed = GetParam();
  auto city = GenerateCity({.width = 14, .height = 14, .jitter = 0.35,
                            .seed = seed + 100});
  ASSERT_TRUE(city.ok());
  BucketChOracle bucket(BuildCh(city->graph));
  Dijkstra reference(&city->graph);

  Rng rng(seed * 17 + 3);
  for (int round = 0; round < 8; ++round) {
    NodeId target = city->RandomNode(&rng);
    std::vector<NodeId> sources = DrawBatch(*city, &rng, 10, target);
    std::vector<double> got(sources.size());
    bucket.ManyToOne(sources, target, got);
    for (size_t i = 0; i < sources.size(); ++i) {
      reference.Run(sources[i], target);
      double expected = reference.DistanceTo(target);
      if (sources[i] == target) {
        EXPECT_EQ(got[i], 0.0);
      } else {
        EXPECT_NEAR(got[i], expected, 1e-9)
            << "seed " << seed << " " << sources[i] << "->" << target;
      }
    }

    NodeId source = city->RandomNode(&rng);
    std::vector<NodeId> targets = DrawBatch(*city, &rng, 10, source);
    got.assign(targets.size(), -1.0);
    bucket.OneToMany(source, targets, got);
    reference.Run(source);
    for (size_t j = 0; j < targets.size(); ++j) {
      if (targets[j] == source) {
        EXPECT_EQ(got[j], 0.0);
      } else {
        EXPECT_NEAR(got[j], reference.DistanceTo(targets[j]), 1e-9)
            << "seed " << seed << " " << source << "->" << targets[j];
      }
    }
  }
}

// Unreachable pairs: generated cities are connected, so disconnection needs
// a hand-built graph. Two disjoint directed chains — every cross-component
// pair (and every wrong-direction intra-chain pair) must come back kInfCost
// from batch and per-query paths alike, with no contamination of the
// reachable slots sharing the batch.
TEST_P(OracleEquivalenceTest, UnreachablePairsAreExactlyInfinite) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 13 + 1);
  Graph g;
  const int kChain = 5;  // Nodes 0..4 and 5..9, no arcs between them.
  for (int i = 0; i < 2 * kChain; ++i) {
    g.AddNode({static_cast<double>(i), 0.0});
  }
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < kChain - 1; ++i) {
      NodeId a = c * kChain + i;
      g.AddEdge(a, a + 1, rng.Uniform(1.0, 9.0));  // One-way chains.
    }
  }
  ASSERT_TRUE(g.Finalize().ok());
  auto ch = BuildCh(g);
  ChOracle per_query(ch);
  BucketChOracle bucket(ch);

  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
  std::vector<double> matrix(all.size() * all.size(), -1.0);
  bucket.ManyToMany(all, all, matrix);
  int unreachable = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    std::vector<double> row(all.size(), -1.0);
    bucket.OneToMany(all[i], all, row);
    std::vector<double> col(all.size(), -1.0);
    bucket.ManyToOne(all, all[i], col);
    for (size_t j = 0; j < all.size(); ++j) {
      double expected = per_query.Cost(all[i], all[j]);
      EXPECT_EQ(matrix[i * all.size() + j], expected) << i << "," << j;
      EXPECT_EQ(row[j], expected) << i << "," << j;
      EXPECT_EQ(col[j], per_query.Cost(all[j], all[i])) << j << "," << i;
      if (expected == kInfCost) ++unreachable;
    }
  }
  // 5x5 cross-pairs each way plus the backward intra-chain pairs: the
  // unreachable case is exercised in bulk, not incidentally.
  EXPECT_GE(unreachable, 2 * kChain * kChain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleEquivalenceTest,
                         testing::Values(11u, 4242u, 987001u));

// Degenerate shapes that must not crash or touch out-of-batch memory:
// empty batches, single-element batches, and out-of-range node ids (which
// Cost() answers with kInfCost — or 0.0 when both endpoints are the same
// id, equality being checked before range).
TEST(OracleEquivalenceEdgeTest, EmptySingletonAndOutOfRangeBatches) {
  auto city = GenerateCity({.width = 6, .height = 6, .seed = 5});
  ASSERT_TRUE(city.ok());
  auto ch = BuildCh(city->graph);
  ChOracle per_query(ch);
  BucketChOracle bucket(ch);
  const NodeId n = city->graph.num_nodes();

  bucket.ManyToOne({}, 0, {});
  bucket.OneToMany(0, {}, {});
  bucket.ManyToMany({}, {}, {});

  std::vector<NodeId> batch = {0, n, -1, n + 7, 3, n};
  std::vector<double> got(batch.size());
  bucket.ManyToOne(batch, 2, got);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], per_query.Cost(batch[i], 2)) << i;
  }
  bucket.OneToMany(2, batch, got);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], per_query.Cost(2, batch[i])) << i;
  }
  // Out-of-range apex: every slot kInfCost except the equal-id ones.
  bucket.ManyToOne(batch, n, got);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], batch[i] == n ? 0.0 : kInfCost) << i;
  }
  std::vector<double> matrix(batch.size() * batch.size());
  bucket.ManyToMany(batch, batch, matrix);
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t j = 0; j < batch.size(); ++j) {
      EXPECT_EQ(matrix[i * batch.size() + j],
                per_query.Cost(batch[i], batch[j]))
          << i << "," << j;
    }
  }

  std::vector<NodeId> one = {1};
  std::vector<double> one_out(1);
  bucket.ManyToOne(one, 4, one_out);
  EXPECT_EQ(one_out[0], per_query.Cost(1, 4));
}

// Batch diagnostics: the counters the platform surfaces must account one
// point result per batch slot plus one batch record per call, and the
// bucket build clock only advances when buckets are actually built (cache
// hits and trivial slots build nothing).
TEST(OracleEquivalenceEdgeTest, BatchCountersAccountEverySlot) {
  auto city = GenerateCity({.width = 8, .height = 8, .seed = 6});
  ASSERT_TRUE(city.ok());
  BucketChOracle bucket(BuildCh(city->graph));
  std::vector<NodeId> sources = {1, 2, 3, 1};
  std::vector<double> out(sources.size());

  bucket.ManyToOne(sources, 9, out);
  EXPECT_EQ(bucket.batch_count(), 1);
  EXPECT_EQ(bucket.batch_points(), 4);
  EXPECT_EQ(bucket.query_count(), 4);
  double built_once = bucket.bucket_build_seconds();
  EXPECT_GE(built_once, 0.0);

  // Fully cached repeat: another batch record, no new bucket builds.
  bucket.ManyToOne(sources, 9, out);
  EXPECT_EQ(bucket.batch_count(), 2);
  EXPECT_EQ(bucket.batch_points(), 8);
  EXPECT_EQ(bucket.bucket_build_seconds(), built_once);

  std::vector<double> matrix(sources.size() * sources.size());
  bucket.ManyToMany(sources, sources, matrix);
  EXPECT_EQ(bucket.batch_count(), 3);
  EXPECT_EQ(bucket.batch_points(), 8 + 8);
  EXPECT_EQ(bucket.query_count(), 8 + 16);
}

// Per-thread scratch follows the oracle, not its address: a larger city's
// oracle constructed in the storage of a destroyed small-city oracle (as the
// next simulated day's oracle may be) must not reuse scratch sized for its
// predecessor.
TEST(OracleEquivalenceEdgeTest, OracleAtAFreedAddressGetsFreshScratch) {
  auto small = GenerateCity({.width = 4, .height = 4, .seed = 8});
  auto large = GenerateCity({.width = 16, .height = 16, .seed = 9});
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  auto large_ch = BuildCh(large->graph);
  ChOracle reference(large_ch);
  std::optional<BucketChOracle> slot;
  slot.emplace(BuildCh(small->graph));
  EXPECT_EQ(slot->Cost(0, 15), ChOracle(BuildCh(small->graph)).Cost(0, 15));
  const BucketChOracle* first = &*slot;
  slot.reset();
  slot.emplace(large_ch);
  ASSERT_EQ(&*slot, first);
  const NodeId last = large->graph.num_nodes() - 1;
  EXPECT_EQ(slot->Cost(0, last), reference.Cost(0, last));
  EXPECT_EQ(slot->Cost(last, 0), reference.Cost(last, 0));
}

/// One bucket-oracle answer, recorded for checking after the threads join.
struct Answer {
  NodeId from;
  NodeId to;
  double cost;
};

/// A seeded random mix of Cost, ManyToOne, OneToMany and ManyToMany calls
/// on `oracle`, with duplicates, the apex inside its own batch, and
/// out-of-range ids; returns every pair answered.
std::vector<Answer> MixedQueries(const City& city, BucketChOracle* oracle,
                                 uint64_t seed, int rounds) {
  Rng rng(seed);
  std::vector<Answer> answers;
  for (int round = 0; round < rounds; ++round) {
    const NodeId apex = city.RandomNode(&rng);
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        for (NodeId other : DrawBatch(city, &rng, 8, apex, 0.1)) {
          answers.push_back({other, apex, oracle->Cost(other, apex)});
        }
        break;
      }
      case 1: {
        std::vector<NodeId> sources = DrawBatch(city, &rng, 12, apex, 0.1);
        std::vector<double> got(sources.size(), -1.0);
        oracle->ManyToOne(sources, apex, got);
        for (size_t i = 0; i < sources.size(); ++i) {
          answers.push_back({sources[i], apex, got[i]});
        }
        break;
      }
      case 2: {
        std::vector<NodeId> targets = DrawBatch(city, &rng, 12, apex, 0.1);
        std::vector<double> got(targets.size(), -1.0);
        oracle->OneToMany(apex, targets, got);
        for (size_t j = 0; j < targets.size(); ++j) {
          answers.push_back({apex, targets[j], got[j]});
        }
        break;
      }
      default: {
        std::vector<NodeId> rows = DrawBatch(city, &rng, 6, apex, 0.1);
        std::vector<NodeId> cols = DrawBatch(city, &rng, 6, apex, 0.1);
        std::vector<double> got(rows.size() * cols.size(), -1.0);
        oracle->ManyToMany(rows, cols, got);
        for (size_t i = 0; i < rows.size(); ++i) {
          for (size_t j = 0; j < cols.size(); ++j) {
            answers.push_back({rows[i], cols[j], got[i * cols.size() + j]});
          }
        }
        break;
      }
    }
  }
  return answers;
}

/// Runs MixedQueries on `threads` threads sharing `oracle`, released
/// together so that first builds of the same search space and inserts of
/// the same memo pair race, then checks every answer bitwise against the
/// per-query oracle.
void ExpectConcurrentAnswersMatch(const City& city, BucketChOracle* oracle,
                                  ChOracle* reference, int threads,
                                  int rounds) {
  std::vector<std::vector<Answer>> answers(static_cast<size_t>(threads));
  std::latch start(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      answers[static_cast<size_t>(t)] =
          MixedQueries(city, oracle, 1000 + static_cast<uint64_t>(t), rounds);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < threads; ++t) {
    EXPECT_FALSE(answers[static_cast<size_t>(t)].empty());
    for (const Answer& a : answers[static_cast<size_t>(t)]) {
      EXPECT_EQ(a.cost, reference->Cost(a.from, a.to))
          << "thread " << t << " " << a.from << "->" << a.to;
    }
  }
}

// Lock-free query paths: four threads share one fresh oracle, so the same
// (node, direction) spaces are built concurrently and the same pairs are
// inserted into the memo concurrently. Every answer stays bitwise equal to
// the per-query oracle.
TEST(OracleEquivalenceConcurrencyTest, FourThreadsShareOneFreshOracle) {
  auto city = GenerateCity({.width = 18, .height = 18, .jitter = 0.3,
                            .center_slowdown = 1.8, .seed = 77});
  ASSERT_TRUE(city.ok());
  auto ch = BuildCh(city->graph);
  ChOracle reference(ch);
  BucketChOracle bucket(ch);
  ExpectConcurrentAnswersMatch(*city, &bucket, &reference, 4, 150);
  EXPECT_GT(bucket.cache_size(), 0u);
  EXPECT_GT(bucket.space_entries(), 0u);
}

// The bounded paths: a 4-slot memo fills to its 3/4 limit and then stops
// inserting, and a 16-entry space budget sends every later search space to
// per-thread overflow scratch. Answers must not notice, serially or on four
// threads.
TEST(OracleEquivalenceBudgetTest, FullMemoAndSpaceOverflowStayExact) {
  auto city = GenerateCity({.width = 18, .height = 18, .jitter = 0.3,
                            .center_slowdown = 1.8, .seed = 78});
  ASSERT_TRUE(city.ok());
  auto ch = BuildCh(city->graph);
  ChOracle reference(ch);

  BucketChOracle serial(ch, /*cache_capacity=*/4, /*space_budget=*/16);
  for (const Answer& a : MixedQueries(*city, &serial, 99, 150)) {
    EXPECT_EQ(a.cost, reference.Cost(a.from, a.to))
        << a.from << "->" << a.to;
  }
  EXPECT_EQ(serial.cache_size(), 3u);
  EXPECT_GE(serial.space_entries(), 16u);
  const double built = serial.bucket_build_seconds();
  for (const Answer& a : MixedQueries(*city, &serial, 100, 50)) {
    EXPECT_EQ(a.cost, reference.Cost(a.from, a.to))
        << a.from << "->" << a.to;
  }
  EXPECT_EQ(serial.bucket_build_seconds(), built)
      << "over-budget rebuilds are scratch work, not published builds";

  BucketChOracle shared(ch, /*cache_capacity=*/4, /*space_budget=*/16);
  ExpectConcurrentAnswersMatch(*city, &shared, &reference, 4, 150);
  EXPECT_EQ(shared.cache_size(), 3u);
}

}  // namespace
}  // namespace watter
