// Synthetic city road networks.
//
// The paper evaluates on New York, Chengdu and Xi'an road networks, which are
// not shipped with this reproduction. Instead we generate perturbed-grid
// cities with the structural features that drive the algorithms' relative
// behaviour: a congested centre, fast arterial corridors, and per-edge jitter
// so shortest paths are unique and non-trivial. Every algorithm consumes the
// city only through TravelTimeOracle::Cost, so the substitution preserves the
// code paths exercised by the real datasets (see docs/ARCHITECTURE.md,
// "Design decisions").
#ifndef WATTER_GEO_CITY_GENERATOR_H_
#define WATTER_GEO_CITY_GENERATOR_H_

#include <cstdint>
#include <memory>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/geo/graph.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {

/// Parameters of the perturbed-grid city generator.
struct CityOptions {
  int width = 48;                ///< Nodes per row.
  int height = 48;               ///< Nodes per column.
  double cell_seconds = 60.0;    ///< Base travel time of one grid edge.
  double jitter = 0.2;           ///< Per-edge multiplicative noise, U[1-j,1+j].
  double center_slowdown = 1.6;  ///< Peak congestion factor at the centre.
  double center_sigma = 0.25;    ///< Congestion radius as a fraction of size.
  int arterial_every = 8;        ///< Every k-th row/col is an arterial road.
  double arterial_factor = 0.55; ///< Speed multiplier on arterials (< 1).
  uint64_t seed = 7;             ///< Generator seed.
};

/// A generated city: the road graph plus its grid dimensions.
struct City {
  Graph graph;
  int width = 0;
  int height = 0;
  double cell_seconds = 0.0;

  /// Node id at (row, col).
  NodeId NodeAt(int row, int col) const {
    return static_cast<NodeId>(row) * width + col;
  }

  /// Uniformly random node.
  NodeId RandomNode(Rng* rng) const {
    return static_cast<NodeId>(
        rng->UniformInt(0, static_cast<int64_t>(graph.num_nodes()) - 1));
  }
};

/// Generates a city; the returned graph is finalized and weakly connected.
Result<City> GenerateCity(const CityOptions& options);

/// Which shortest-path backend an oracle should use.
enum class OracleKind {
  kMatrix,  ///< Precomputed all-pairs matrix (fastest queries).
  kCh,      ///< Contraction hierarchy with memoization.
};

/// How CH-backed oracles answer batch queries. Only meaningful for
/// OracleKind::kCh: the matrix oracle is O(1) per query and ignores this.
enum class GeoBackend {
  kPerQuery,  ///< ChOracle: every batch slot is an independent point query.
  kBucket,    ///< BucketChOracle: bucket-CH batch queries (bitwise-equal
              ///< results; default since the equivalence suite pins them).
};

/// Builds a travel-time oracle over `graph`. The oracle owns its backing
/// structure, so the graph need not outlive it. A DijkstraOracle
/// (travel_time_oracle.h), which borrows its graph, is built directly.
Result<std::unique_ptr<TravelTimeOracle>> BuildOracle(
    const Graph& graph, OracleKind kind,
    GeoBackend backend = GeoBackend::kBucket);

}  // namespace watter

#endif  // WATTER_GEO_CITY_GENERATOR_H_
