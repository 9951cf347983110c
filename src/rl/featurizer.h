// Spatio-temporal state featurization st = [sL, sT, sO, sW] (Section VI-A).
//
// sL: one-hot grid cells of the order's pickup and drop-off locations,
// sT: the order's release time slot and waited slots (2 scalars),
// sO: demand distributions (waiting pickups and drop-offs per cell),
// sW: idle-worker supply distribution per cell,
// plus three magnitude scalars (total demand/supply) that the pure
// distributions lose.
//
// Environment snapshots are shared between the many orders observed in one
// check round, so replayed experiences store a shared_ptr instead of copying
// hundreds of floats per transition.
#ifndef WATTER_RL_FEATURIZER_H_
#define WATTER_RL_FEATURIZER_H_

#include <memory>
#include <vector>

#include "src/core/types.h"
#include "src/geo/graph.h"
#include "src/geo/grid_index.h"
#include "src/strategy/threshold_provider.h"

namespace watter {

/// Normalized environment block: [demand_pickup | demand_dropoff | supply]
/// distributions plus their three totals.
struct EnvSnapshot {
  std::vector<float> distributions;  ///< 3 * cells entries.
  float demand_pickup_total = 0.0f;
  float demand_dropoff_total = 0.0f;
  float supply_total = 0.0f;
};

/// Compact state: everything needed to materialize the feature vector.
struct CompactState {
  int pickup_cell = 0;
  int dropoff_cell = 0;
  float release_slot = 0.0f;  ///< Time-of-day fraction in [0, 1).
  float waited_slots = 0.0f;  ///< Waited time / time_slot, capped.
  std::shared_ptr<const EnvSnapshot> env;
};

/// Builds state feature vectors for the value network.
class Featurizer {
 public:
  /// `graph` supplies node locations (not owned); `grid_cells` must match
  /// the platform's feature grid; `time_slot` is the paper's dt (10 s).
  Featurizer(const Graph* graph, int grid_cells, double time_slot = 10.0,
             double waited_cap_slots = 90.0);

  int grid_cells() const { return grid_.cells_per_side(); }
  int cell_count() const { return grid_cells() * grid_cells(); }

  /// Feature dimensionality: 2*cells (sL) + 2 (sT) + 3*cells (sO, sW) + 3.
  int feature_size() const { return 5 * cell_count() + 5; }

  /// Where the environment block starts. The features below it (sL, sT)
  /// depend only on the order and `now`; those from it on (sO, sW and the
  /// three totals) only on the EnvSnapshot, so every order of a round
  /// shares them.
  int env_offset() const { return 2 * cell_count() + 2; }

  /// Normalizes the context's per-cell counts into a shareable snapshot.
  /// A null count vector reads as all zero.
  std::shared_ptr<const EnvSnapshot> MakeSnapshot(
      const PoolContext& context) const;

  /// Builds the compact state of `order` at `now` within `env`.
  CompactState MakeState(const Order& order, Time now,
                         std::shared_ptr<const EnvSnapshot> env) const;

  /// Materializes the full feature vector (resizes `out`).
  void Write(const CompactState& state, std::vector<float>* out) const;

 private:
  const Graph* graph_;
  GridIndex grid_;  // Geometry only (never populated).
  double time_slot_;
  double waited_cap_slots_;
};

}  // namespace watter

#endif  // WATTER_RL_FEATURIZER_H_
