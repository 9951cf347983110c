#include "src/rl/featurizer.h"

#include <algorithm>
#include <cmath>

namespace watter {
namespace {

constexpr double kSecondsPerDay = 86400.0;

void AppendDistribution(const std::vector<int>* maybe_counts, int cells,
                        std::vector<float>* out, float* total_out) {
  static const std::vector<int> kNone;
  const std::vector<int>& counts =
      maybe_counts != nullptr ? *maybe_counts : kNone;
  double total = 0.0;
  for (int c : counts) total += c;
  *total_out = static_cast<float>(total);
  for (int cell = 0; cell < cells; ++cell) {
    int count = cell < static_cast<int>(counts.size()) ? counts[cell] : 0;
    out->push_back(total > 0.0 ? static_cast<float>(count / total) : 0.0f);
  }
}

}  // namespace

Featurizer::Featurizer(const Graph* graph, int grid_cells, double time_slot,
                       double waited_cap_slots)
    : graph_(graph),
      grid_(graph->MinCorner(), graph->MaxCorner(), grid_cells),
      time_slot_(time_slot),
      waited_cap_slots_(waited_cap_slots) {}

std::shared_ptr<const EnvSnapshot> Featurizer::MakeSnapshot(
    const PoolContext& context) const {
  auto snapshot = std::make_shared<EnvSnapshot>();
  snapshot->distributions.reserve(3 * cell_count());
  AppendDistribution(context.demand_pickup, cell_count(),
                     &snapshot->distributions,
                     &snapshot->demand_pickup_total);
  AppendDistribution(context.demand_dropoff, cell_count(),
                     &snapshot->distributions,
                     &snapshot->demand_dropoff_total);
  AppendDistribution(context.supply, cell_count(), &snapshot->distributions,
                     &snapshot->supply_total);
  return snapshot;
}

CompactState Featurizer::MakeState(
    const Order& order, Time now,
    std::shared_ptr<const EnvSnapshot> env) const {
  CompactState state;
  state.pickup_cell = grid_.CellOf(graph_->node_point(order.pickup));
  state.dropoff_cell = grid_.CellOf(graph_->node_point(order.dropoff));
  double time_of_day = std::fmod(order.release, kSecondsPerDay);
  if (time_of_day < 0.0) time_of_day += kSecondsPerDay;
  state.release_slot = static_cast<float>(time_of_day / kSecondsPerDay);
  double waited = std::max(0.0, now - order.release) / time_slot_;
  state.waited_slots =
      static_cast<float>(std::min(waited, waited_cap_slots_) /
                         waited_cap_slots_);
  state.env = std::move(env);
  return state;
}

void Featurizer::Write(const CompactState& state,
                       std::vector<float>* out) const {
  const int cells = cell_count();
  out->assign(static_cast<size_t>(feature_size()), 0.0f);
  // sL: pickup and dropoff one-hots.
  (*out)[state.pickup_cell] = 1.0f;
  (*out)[cells + state.dropoff_cell] = 1.0f;
  // sT.
  (*out)[2 * cells] = state.release_slot;
  (*out)[2 * cells + 1] = state.waited_slots;
  // sO and sW distributions.
  const size_t base = static_cast<size_t>(env_offset());
  if (state.env != nullptr) {
    const auto& dist = state.env->distributions;
    std::copy(dist.begin(), dist.end(), out->begin() + base);
    // Magnitude scalars, squashed into a stable range.
    (*out)[base + 3 * cells] =
        std::log1p(state.env->demand_pickup_total) * 0.2f;
    (*out)[base + 3 * cells + 1] =
        std::log1p(state.env->demand_dropoff_total) * 0.2f;
    (*out)[base + 3 * cells + 2] = std::log1p(state.env->supply_total) * 0.2f;
  }
}

}  // namespace watter
