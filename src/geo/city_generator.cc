#include "src/geo/city_generator.h"

#include <cmath>
#include <utility>

#include "src/geo/bucket_ch.h"

namespace watter {
namespace {

/// Congestion/arterial speed multiplier for the edge between two nodes.
double EdgeFactor(const CityOptions& options, double row, double col) {
  double center_row = (options.height - 1) / 2.0;
  double center_col = (options.width - 1) / 2.0;
  double sigma =
      options.center_sigma * std::max(options.width, options.height);
  double dr = row - center_row;
  double dc = col - center_col;
  double congestion =
      1.0 + (options.center_slowdown - 1.0) *
                std::exp(-(dr * dr + dc * dc) / (2.0 * sigma * sigma));
  bool arterial =
      options.arterial_every > 0 &&
      (static_cast<int>(row) % options.arterial_every == 0 ||
       static_cast<int>(col) % options.arterial_every == 0);
  return congestion * (arterial ? options.arterial_factor : 1.0);
}

}  // namespace

Result<City> GenerateCity(const CityOptions& options) {
  if (options.width < 2 || options.height < 2) {
    return Status::InvalidArgument("city must be at least 2x2");
  }
  if (options.cell_seconds <= 0.0) {
    return Status::InvalidArgument("cell_seconds must be positive");
  }
  if (options.jitter < 0.0 || options.jitter >= 1.0) {
    return Status::InvalidArgument("jitter must be in [0, 1)");
  }
  City city;
  city.width = options.width;
  city.height = options.height;
  city.cell_seconds = options.cell_seconds;

  for (int row = 0; row < options.height; ++row) {
    for (int col = 0; col < options.width; ++col) {
      city.graph.AddNode(Point{static_cast<double>(col),
                               static_cast<double>(row)});
    }
  }

  Rng rng(options.seed);
  auto jittered = [&](double base) {
    return base * rng.Uniform(1.0 - options.jitter, 1.0 + options.jitter);
  };
  for (int row = 0; row < options.height; ++row) {
    for (int col = 0; col < options.width; ++col) {
      NodeId here = city.NodeAt(row, col);
      if (col + 1 < options.width) {
        NodeId east = city.NodeAt(row, col + 1);
        double base = options.cell_seconds *
                      EdgeFactor(options, row, col + 0.5);
        // Independent jitter per direction: mildly asymmetric streets.
        city.graph.AddEdge(here, east, jittered(base));
        city.graph.AddEdge(east, here, jittered(base));
      }
      if (row + 1 < options.height) {
        NodeId south = city.NodeAt(row + 1, col);
        double base = options.cell_seconds *
                      EdgeFactor(options, row + 0.5, col);
        city.graph.AddEdge(here, south, jittered(base));
        city.graph.AddEdge(south, here, jittered(base));
      }
    }
  }
  WATTER_RETURN_IF_ERROR(city.graph.Finalize());
  if (!city.graph.IsWeaklyConnected()) {
    return Status::Internal("generated city is not connected");
  }
  return city;
}

Result<std::unique_ptr<TravelTimeOracle>> BuildOracle(const Graph& graph,
                                                      OracleKind kind,
                                                      GeoBackend backend) {
  switch (kind) {
    case OracleKind::kMatrix: {
      auto matrix = CostMatrix::Build(graph);
      if (!matrix.ok()) return matrix.status();
      auto shared =
          std::make_shared<const CostMatrix>(std::move(matrix).value());
      return std::unique_ptr<TravelTimeOracle>(
          new MatrixOracle(std::move(shared)));
    }
    case OracleKind::kCh: {
      auto ch = ContractionHierarchy::Build(graph);
      if (!ch.ok()) return ch.status();
      auto shared =
          std::make_shared<const ContractionHierarchy>(std::move(ch).value());
      if (backend == GeoBackend::kBucket) {
        return std::unique_ptr<TravelTimeOracle>(
            new BucketChOracle(std::move(shared)));
      }
      return std::unique_ptr<TravelTimeOracle>(
          new ChOracle(std::move(shared)));
    }
  }
  return Status::InvalidArgument("unknown oracle kind");
}

}  // namespace watter
