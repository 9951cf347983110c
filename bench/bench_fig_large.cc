// Paper-scale geo bench: the travel-time-oracle backend A/B at the paper's
// headline n = 125k orders / m = 6k workers (Table III, NYC upper end).
//
// Two batch shapes (docs/PERFORMANCE.md):
//   fleet-probe — the simulator's batch hot path: Fleet::FindClosestIdle
//     refines K Euclidean candidates with one ManyToOne(worker locations ->
//     pickup) batch per dispatch probe;
//   pair-test  — a synthetic shape kept for the backend checksum and A/B:
//     four directed batches around an anchor order (OneToMany from
//     pickup/dropoff, ManyToOne back to pickup/dropoff) over candidates'
//     endpoints. No simulator path issues it: a shareability insertion's
//     pair tests query their legs one Cost() at a time.
// This driver replays both shapes over a generated city against the per-query
// CH oracle and the bucket-CH oracle (src/geo/bucket_ch.h) and reports the
// wall-clock A/B. The backends are bitwise-equivalent
// (tests/geo_oracle_equivalence_test.cc); the bench re-checks that here with
// an order-preserving checksum and exits nonzero on any divergence, so the
// committed BENCH_geo.json numbers are guaranteed to compare equal work.
//
// Budget gate (mirrors tests/sim_paper_scale_test.cc): the quick shape always
// runs in seconds; the 125k/6k shape self-skips unless WATTER_RUN_LARGE is
// set. The ctest registration carries the `large` label, and the
// `bench_geo_json` cmake target writes BENCH_geo.json (bench/CMakeLists.txt).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/geo/city_generator.h"

namespace {

using namespace watter;
using namespace watter::bench;

// One benchmark shape: a city plus the order/worker counts whose probe and
// pair batches we replay.
struct GeoScale {
  const char* label;
  int width;
  int height;
  int orders;
  int workers;
  int probe_k;          // Fleet::FindClosestIdle default candidate count.
  int pair_anchors;     // Anchors whose 4-batch refresh is replayed.
  int pair_candidates;  // Shareability candidates per anchor (2 nodes each).
};

// Replay outcome of one (path, backend) cell.
struct PathResult {
  double seconds = 0.0;
  long long batches = 0;
  long long points = 0;
  long long finite = 0;
  double checksum = 0.0;  // Order-preserving sum of finite costs.
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The fleet-probe path: one ManyToOne per order, probe_k worker locations
// against the order's pickup. Candidate windows rotate through the worker
// list deterministically, standing in for the Euclidean KNearest pre-filter.
PathResult RunProbePath(TravelTimeOracle* oracle, const GeoScale& scale,
                        const std::vector<NodeId>& worker_locations,
                        const std::vector<NodeId>& pickups) {
  PathResult result;
  std::vector<NodeId> probes(static_cast<size_t>(scale.probe_k));
  std::vector<double> costs(probes.size());
  const double start = Now();
  for (int i = 0; i < scale.orders; ++i) {
    const size_t base = static_cast<size_t>(i) * 37u;
    for (int k = 0; k < scale.probe_k; ++k) {
      probes[static_cast<size_t>(k)] =
          worker_locations[(base + static_cast<size_t>(k)) %
                           worker_locations.size()];
    }
    oracle->ManyToOne(probes, pickups[static_cast<size_t>(i)], costs);
    ++result.batches;
    result.points += scale.probe_k;
    for (double cost : costs) {
      if (cost < kInfCost) {
        ++result.finite;
        result.checksum += cost;
      }
    }
  }
  result.seconds = Now() - start;
  return result;
}

// The synthetic pair-test shape: per anchor, four directed batches over the
// candidates' pickup+dropoff nodes. No simulator path issues these batches.
PathResult RunPairPath(TravelTimeOracle* oracle, const GeoScale& scale,
                       const std::vector<NodeId>& pickups,
                       const std::vector<NodeId>& dropoffs) {
  PathResult result;
  std::vector<NodeId> nodes(static_cast<size_t>(scale.pair_candidates) * 2);
  std::vector<double> costs(nodes.size());
  const double start = Now();
  for (int a = 0; a < scale.pair_anchors; ++a) {
    const size_t anchor = static_cast<size_t>(a) % pickups.size();
    const size_t base = static_cast<size_t>(a) * 53u + 1u;
    for (int c = 0; c < scale.pair_candidates; ++c) {
      const size_t candidate = (base + static_cast<size_t>(c)) %
                               pickups.size();
      nodes[static_cast<size_t>(c) * 2] = pickups[candidate];
      nodes[static_cast<size_t>(c) * 2 + 1] = dropoffs[candidate];
    }
    const NodeId ends[] = {pickups[anchor], dropoffs[anchor]};
    for (NodeId end : ends) {
      oracle->OneToMany(end, nodes, costs);
      ++result.batches;
      result.points += static_cast<long long>(nodes.size());
      for (double cost : costs) {
        if (cost < kInfCost) {
          ++result.finite;
          result.checksum += cost;
        }
      }
    }
    for (NodeId end : ends) {
      oracle->ManyToOne(nodes, end, costs);
      ++result.batches;
      result.points += static_cast<long long>(nodes.size());
      for (double cost : costs) {
        if (cost < kInfCost) {
          ++result.finite;
          result.checksum += cost;
        }
      }
    }
  }
  result.seconds = Now() - start;
  return result;
}

void Record(const GeoScale& scale, const char* path_name, const char* backend,
            const PathResult& r, double per_query_seconds) {
  if (BenchJson().path.empty()) return;
  char record[512];
  std::snprintf(
      record, sizeof(record),
      "{\"bench\": \"geo\", \"scale\": \"%s\", \"city\": \"%dx%d\", "
      "\"path\": \"%s\", \"backend\": \"%s\", \"batches\": %lld, "
      "\"points\": %lld, \"finite\": %lld, \"checksum\": %.17g, "
      "\"seconds\": %.4f, \"points_per_sec\": %.0f, "
      "\"speedup_vs_per_query\": %.2f}",
      scale.label, scale.width, scale.height, path_name, backend, r.batches,
      r.points, r.finite, r.checksum, r.seconds,
      r.seconds > 0.0 ? static_cast<double>(r.points) / r.seconds : 0.0,
      r.seconds > 0.0 ? per_query_seconds / r.seconds : 0.0);
  BenchJson().records.emplace_back(record);
}

// Runs one scale; returns false on a backend divergence.
bool RunScale(const GeoScale& scale) {
  CityOptions city_options;
  city_options.width = scale.width;
  city_options.height = scale.height;
  city_options.seed = 60061;  // One fixed city per scale family.
  const double city_start = Now();
  auto city = GenerateCity(city_options);
  if (!city.ok()) {
    std::fprintf(stderr, "city failed: %s\n",
                 city.status().ToString().c_str());
    return false;
  }
  // Two independent oracles over the same graph, both starting cold: the
  // per-query CH memo and the bucket-CH memo see the same query stream.
  auto per_query =
      BuildOracle(city->graph, OracleKind::kCh, GeoBackend::kPerQuery);
  auto bucket = BuildOracle(city->graph, OracleKind::kCh, GeoBackend::kBucket);
  if (!per_query.ok() || !bucket.ok()) {
    std::fprintf(stderr, "oracle build failed\n");
    return false;
  }
  std::printf("[%s] city %dx%d (%d nodes), CH + oracles built in %.1fs\n",
              scale.label, scale.width, scale.height,
              static_cast<int>(city->graph.num_nodes()),
              Now() - city_start);

  Rng rng(4242);
  std::vector<NodeId> worker_locations(static_cast<size_t>(scale.workers));
  for (NodeId& node : worker_locations) node = city->RandomNode(&rng);
  std::vector<NodeId> pickups(static_cast<size_t>(scale.orders));
  std::vector<NodeId> dropoffs(static_cast<size_t>(scale.orders));
  for (int i = 0; i < scale.orders; ++i) {
    pickups[static_cast<size_t>(i)] = city->RandomNode(&rng);
    dropoffs[static_cast<size_t>(i)] = city->RandomNode(&rng);
  }

  struct Cell {
    const char* path;
    PathResult per_query;
    PathResult bucket;
  };
  Cell cells[] = {{"fleet-probe", {}, {}}, {"pair-test", {}, {}}};
  cells[0].per_query =
      RunProbePath(per_query->get(), scale, worker_locations, pickups);
  cells[0].bucket =
      RunProbePath(bucket->get(), scale, worker_locations, pickups);
  cells[1].per_query = RunPairPath(per_query->get(), scale, pickups, dropoffs);
  cells[1].bucket = RunPairPath(bucket->get(), scale, pickups, dropoffs);

  Table table({"path", "backend", "batches", "points", "seconds",
               "points/sec", "speedup"});
  bool ok = true;
  for (const Cell& cell : cells) {
    const PathResult& pq = cell.per_query;
    const PathResult& bk = cell.bucket;
    // Bitwise replay equality: same slots in the same order must sum to the
    // same double. The equivalence suite proves per-slot equality; this
    // guards the committed baseline against drift.
    if (pq.checksum != bk.checksum || pq.finite != bk.finite) {
      std::fprintf(stderr,
                   "[%s] %s: backend divergence (checksum %.17g vs %.17g, "
                   "finite %lld vs %lld)\n",
                   scale.label, cell.path, pq.checksum, bk.checksum,
                   pq.finite, bk.finite);
      ok = false;
    }
    table.AddRow({cell.path, "per-query", std::to_string(pq.batches),
                  std::to_string(pq.points), Table::Num(pq.seconds, 2),
                  Table::Num(static_cast<double>(pq.points) / pq.seconds, 0),
                  "1.00"});
    table.AddRow({cell.path, "bucket", std::to_string(bk.batches),
                  std::to_string(bk.points), Table::Num(bk.seconds, 2),
                  Table::Num(static_cast<double>(bk.points) / bk.seconds, 0),
                  Table::Num(pq.seconds / bk.seconds, 2)});
    Record(scale, cell.path, "per-query", pq, pq.seconds);
    Record(scale, cell.path, "bucket", bk, pq.seconds);
  }
  std::printf("-- geo backend A/B | %s (n=%d orders, m=%d workers) --\n",
              scale.label, scale.orders, scale.workers);
  table.Print();
  std::printf("bucket build time: %.3fs (memoized search-space Dijkstras, "
              "amortized over all batches)\n\n",
              (*bucket)->bucket_build_seconds());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson().path = BenchJsonPath(argc, argv);
  RejectUnreadArgs(argc, argv);

  // Always-run smoke shape: same code paths at a size that finishes in
  // seconds, so the A/B (and the divergence check) runs in every tier.
  GeoScale quick{"quick-8k-400", 32, 32, 8000, 400,
                 /*probe_k=*/8, /*pair_anchors=*/500, /*pair_candidates=*/32};
  bool ok = RunScale(quick);

  if (std::getenv("WATTER_RUN_LARGE") == nullptr) {
    std::printf(
        "paper-scale shape (125k orders / 6k workers) skipped; set "
        "WATTER_RUN_LARGE=1 (ctest label `large`).\n");
  } else {
    // The paper's largest NYC setting. probe_k mirrors FindClosestIdle's
    // default candidate count; the pair path replays one refresh per worker.
    GeoScale paper{"125k-6k", 96, 96, 125000, 6000,
                   /*probe_k=*/8, /*pair_anchors=*/6000,
                   /*pair_candidates=*/32};
    ok = RunScale(paper) && ok;
  }
  BenchJson().Flush();
  return ok ? 0 : 1;
}
