#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/rl/model_io.h"
#include "src/rl/trainer.h"
#include "src/workload/scenario.h"

namespace watter {
namespace {

WorkloadOptions TinyWorkload() {
  WorkloadOptions workload;
  workload.dataset = DatasetKind::kCdc;
  workload.num_orders = 150;
  workload.num_workers = 25;
  workload.city_width = 10;
  workload.city_height = 10;
  workload.duration = 1200.0;
  workload.seed = 31337;
  workload.city_seed = 555;
  return workload;
}

ExpectTrainOptions TinyTraining() {
  ExpectTrainOptions train;
  train.bootstrap_days = 1;
  train.behavior_days = 1;
  train.epochs = 1;
  train.learner.hidden_layers = {8};
  train.sim.grid_cells = 5;
  return train;
}

TEST(ModelIoTest, SaveLoadRoundTripPreservesBehavior) {
  auto model = TrainExpectModel(TinyWorkload(), TinyTraining());
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  std::string path = testing::TempDir() + "/expect_model.txt";
  ASSERT_TRUE(SaveExpectModel(path, *model).ok());

  auto loaded = LoadExpectModel(path, model->city);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->value->param_count(), model->value->param_count());
  EXPECT_EQ(loaded->mixture->num_components(),
            model->mixture->num_components());
  EXPECT_DOUBLE_EQ(loaded->extra_time_mean, model->extra_time_mean);
  EXPECT_EQ(loaded->experiences, model->experiences);

  // Identical thresholds on identical inputs.
  auto original_provider = model->MakeProvider();
  auto loaded_provider = loaded->MakeProvider();
  PoolContext context;
  Order order;
  order.pickup = 3;
  order.dropoff = 42;
  order.release = 100;
  order.deadline = 1500;
  order.shortest_cost = 700;
  double a = original_provider->ThresholdFor(order, 130, context);
  double b = loaded_provider->ThresholdFor(order, 130, context);
  EXPECT_NEAR(a, b, 1e-4);
}

TEST(ModelIoTest, LoadedModelRunsEvaluation) {
  WorkloadOptions workload = TinyWorkload();
  auto model = TrainExpectModel(workload, TinyTraining());
  ASSERT_TRUE(model.ok());
  std::string path = testing::TempDir() + "/expect_model_eval.txt";
  ASSERT_TRUE(SaveExpectModel(path, *model).ok());
  auto loaded = LoadExpectModel(path, model->city);
  ASSERT_TRUE(loaded.ok());

  auto scenario = GenerateScenario(workload);
  ASSERT_TRUE(scenario.ok());
  auto provider = loaded->MakeProvider();
  SimOptions sim;
  sim.grid_cells = 5;
  MetricsReport report = RunWatter(&*scenario, provider.get(), sim);
  EXPECT_EQ(report.served + report.rejected,
            static_cast<int64_t>(scenario->orders.size()));
  std::remove(path.c_str());
}

TEST(ModelIoTest, SaveRejectsIncompleteModel) {
  ExpectModel empty;
  EXPECT_EQ(SaveExpectModel("/tmp/never_written.txt", empty).code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, LoadRejectsGarbage) {
  std::string path = testing::TempDir() + "/garbage_model.txt";
  FILE* f = fopen(path.c_str(), "w");
  fprintf(f, "definitely not a model\n");
  fclose(f);
  auto model = TrainExpectModel(TinyWorkload(), TinyTraining());
  ASSERT_TRUE(model.ok());
  auto loaded = LoadExpectModel(path, model->city);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// A damaged `layers` header must come back as InvalidArgument, never reach
// Mlp's constructor (a negative size used to abort the process).
TEST(ModelIoTest, LoadRejectsMalformedLayers) {
  auto model = TrainExpectModel(TinyWorkload(), TinyTraining());
  ASSERT_TRUE(model.ok());
  std::string path = testing::TempDir() + "/malformed_layers_model.txt";
  ASSERT_TRUE(SaveExpectModel(path, *model).ok());
  std::string text;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::string input = std::to_string(model->featurizer->feature_size());
  const std::string header = "layers 3 " + input + " 8 1\n";
  const size_t at = text.find(header);
  ASSERT_NE(at, std::string::npos) << text.substr(0, 200);
  const std::string damaged[] = {
      "layers 3 " + input + " -8 1\n",  // negative hidden size
      "layers 3 " + input + " 0 1\n",   // empty hidden layer
      "layers 3 " + input + " 8 2\n",   // two outputs
      "layers 17 " + input + " 8 1\n",  // more layers than the bound
      // Far more weights than the parameter block holds: rejected before
      // anything is allocated for them.
      "layers 3 " + input + " 2000000000 1\n",
  };
  for (const std::string& layers : damaged) {
    SCOPED_TRACE(layers);
    std::string bad = text;
    bad.replace(at, header.size(), layers);
    {
      std::ofstream out(path);
      out << bad;
    }
    auto loaded = LoadExpectModel(path, model->city);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find("layer"), std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadRejectsMissingFileAndNullCity) {
  EXPECT_EQ(LoadExpectModel("/nonexistent/model.txt", nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto model = TrainExpectModel(TinyWorkload(), TinyTraining());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(LoadExpectModel("/nonexistent/model.txt", model->city)
                .status()
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace watter
