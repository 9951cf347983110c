#include "src/rl/model_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>

namespace watter {
namespace {

constexpr char kMagic[] = "watter-expect-model";
constexpr int kVersion = 1;
// Input, hidden layers and output; a longer header is a damaged file.
constexpr int kMaxLayers = 16;

}  // namespace

Status SaveExpectModel(const std::string& path, const ExpectModel& model) {
  if (model.value == nullptr || model.mixture == nullptr ||
      model.featurizer == nullptr) {
    return Status::InvalidArgument("model is incomplete; train it first");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.precision(17);
  out << kMagic << " " << kVersion << "\n";
  out << "grid_cells " << model.featurizer->grid_cells() << "\n";
  out << "extra_time_mean " << model.extra_time_mean << "\n";
  out << "experiences " << model.experiences << "\n";

  out << "mixture " << model.mixture->num_components() << "\n";
  for (const GaussianComponent& c : model.mixture->components()) {
    out << c.weight << " " << c.mean << " " << c.variance << "\n";
  }

  const auto& sizes = model.value->layer_sizes();
  out << "layers " << sizes.size();
  for (int size : sizes) out << " " << size;
  out << "\n";
  out << "params " << model.value->param_count() << "\n";
  const auto& params = model.value->params();
  for (size_t i = 0; i < params.size(); ++i) {
    out << params[i] << (i % 8 == 7 ? "\n" : " ");
  }
  out << "\n";
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<ExpectModel> LoadExpectModel(const std::string& path,
                                    std::shared_ptr<City> city) {
  if (city == nullptr) {
    return Status::InvalidArgument("a city is required to bind the model");
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != kMagic) {
    return Status::InvalidArgument("not a watter-expect model: " + path);
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported model version " +
                                   std::to_string(version));
  }

  ExpectModel model;
  model.city = std::move(city);

  std::string key;
  int grid_cells = 0;
  in >> key >> grid_cells;
  if (key != "grid_cells" || grid_cells <= 0) {
    return Status::InvalidArgument("malformed grid_cells field");
  }
  in >> key >> model.extra_time_mean;
  if (key != "extra_time_mean") {
    return Status::InvalidArgument("malformed extra_time_mean field");
  }
  in >> key >> model.experiences;
  if (key != "experiences") {
    return Status::InvalidArgument("malformed experiences field");
  }

  int components = 0;
  in >> key >> components;
  if (key != "mixture" || components <= 0) {
    return Status::InvalidArgument("malformed mixture header");
  }
  std::vector<GaussianComponent> comps(components);
  for (GaussianComponent& c : comps) {
    in >> c.weight >> c.mean >> c.variance;
  }
  if (!in) return Status::InvalidArgument("truncated mixture block");
  auto mixture = GaussianMixture::Create(std::move(comps));
  if (!mixture.ok()) return mixture.status();
  model.mixture =
      std::make_unique<GaussianMixture>(std::move(mixture).value());

  // Every size is checked before anything is allocated from it: Mlp's
  // constructor trusts its sizes.
  int layer_count = 0;
  in >> key >> layer_count;
  if (!in || key != "layers" || layer_count < 2 ||
      layer_count > kMaxLayers) {
    return Status::InvalidArgument("malformed layers header");
  }
  std::vector<int> sizes(static_cast<size_t>(layer_count));
  for (int& size : sizes) in >> size;
  if (!in || *std::min_element(sizes.begin(), sizes.end()) <= 0) {
    return Status::InvalidArgument("layer sizes must be positive integers");
  }
  if (sizes.back() != 1) {
    return Status::InvalidArgument("the last layer must have size 1");
  }
  int param_count = 0;
  in >> key >> param_count;
  if (key != "params" || param_count <= 0) {
    return Status::InvalidArgument("malformed params header");
  }
  uint64_t layer_params = 0;
  for (size_t layer = 0; layer + 1 < sizes.size(); ++layer) {
    layer_params += static_cast<uint64_t>(sizes[layer]) * sizes[layer + 1] +
                    static_cast<uint64_t>(sizes[layer + 1]);
    if (layer_params > static_cast<uint64_t>(param_count)) break;
  }
  if (layer_params != static_cast<uint64_t>(param_count)) {
    return Status::InvalidArgument(
        "layer sizes do not match the parameter count");
  }

  model.featurizer =
      std::make_unique<Featurizer>(&model.city->graph, grid_cells);
  if (sizes.front() != model.featurizer->feature_size()) {
    return Status::InvalidArgument(
        "model input size does not match the featurizer geometry");
  }
  model.value = std::make_unique<Mlp>(sizes, /*seed=*/0);
  for (float& p : model.value->params()) in >> p;
  if (!in) return Status::InvalidArgument("truncated parameter block");
  return model;
}

}  // namespace watter
