#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "src/workload/dataset_io.h"
#include "src/workload/demand_model.h"
#include "src/workload/scenario.h"

namespace watter {
namespace {

WorkloadOptions SmallOptions(DatasetKind kind = DatasetKind::kCdc) {
  WorkloadOptions options;
  options.dataset = kind;
  options.num_orders = 300;
  options.num_workers = 40;
  options.city_width = 16;
  options.city_height = 16;
  options.seed = 5;
  return options;
}

TEST(DemandModelTest, PresetsAreWellFormed) {
  for (DatasetKind kind :
       {DatasetKind::kNyc, DatasetKind::kCdc, DatasetKind::kXia}) {
    DemandModel model = MakeDemandModel(kind);
    EXPECT_FALSE(model.pickup_spots.empty());
    EXPECT_FALSE(model.dropoff_spots.empty());
    ASSERT_EQ(model.hourly_rate.size(), 24u);
    for (double rate : model.hourly_rate) EXPECT_GT(rate, 0.0);
    EXPECT_STREQ(model.name.c_str(), DatasetName(kind));
  }
}

TEST(DemandModelTest, HotspotSamplesStayInCity) {
  DemandModel model = MakeDemandModel(DatasetKind::kNyc);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    Point p = SampleFromHotspots(model.pickup_spots, 20, 30, &rng);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 19.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 29.0);
  }
}

TEST(DemandModelTest, NycIsMoreConcentratedThanXia) {
  // The substitution hinges on this property (paper Section VII-B explains
  // NYC results by Manhattan concentration): NYC pickups must have smaller
  // spatial spread than XIA pickups.
  Rng rng(11);
  auto spread = [&rng](DatasetKind kind) {
    DemandModel model = MakeDemandModel(kind);
    double sum_x = 0, sum_y = 0, sum_sq = 0;
    const int n = 4000;
    std::vector<Point> samples;
    for (int i = 0; i < n; ++i) {
      samples.push_back(SampleFromHotspots(model.pickup_spots, 50, 50, &rng));
      sum_x += samples.back().x;
      sum_y += samples.back().y;
    }
    Point mean{sum_x / n, sum_y / n};
    for (const Point& p : samples) {
      sum_sq += (p.x - mean.x) * (p.x - mean.x) +
                (p.y - mean.y) * (p.y - mean.y);
    }
    return std::sqrt(sum_sq / n);
  };
  EXPECT_LT(spread(DatasetKind::kNyc) * 1.3, spread(DatasetKind::kXia));
}

TEST(DemandModelTest, RushHoursDominateNight) {
  DemandModel model = MakeDemandModel(DatasetKind::kCdc);
  Rng rng(7);
  int rush = 0, night = 0;
  for (int i = 0; i < 10000; ++i) {
    double tod = SampleTimeOfDay(model.hourly_rate, &rng);
    ASSERT_GE(tod, 0.0);
    ASSERT_LT(tod, 86400.0);
    int hour = static_cast<int>(tod / 3600.0);
    if (hour >= 17 && hour < 20) ++rush;
    if (hour >= 1 && hour < 4) ++night;
  }
  EXPECT_GT(rush, night * 3);
}

TEST(ScenarioTest, GeneratesRequestedCounts) {
  auto scenario = GenerateScenario(SmallOptions());
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario->orders.size(), 300u);
  EXPECT_EQ(scenario->workers.size(), 40u);
  EXPECT_EQ(scenario->city->graph.num_nodes(), 16 * 16);
  EXPECT_NE(scenario->oracle, nullptr);
}

TEST(ScenarioTest, OrdersFollowPaperParameterization) {
  WorkloadOptions options = SmallOptions();
  options.tau = 1.4;
  options.eta = 0.6;
  auto scenario = GenerateScenario(options);
  ASSERT_TRUE(scenario.ok());
  for (const Order& order : scenario->orders) {
    EXPECT_GT(order.shortest_cost, 0.0);
    EXPECT_NEAR(order.deadline, order.release + 1.4 * order.shortest_cost,
                1e-9);
    EXPECT_NEAR(order.wait_limit, 0.6 * order.shortest_cost, 1e-9);
    EXPECT_EQ(order.riders, 1);
    EXPECT_NE(order.pickup, order.dropoff);
    // Shortest cost matches the oracle.
    EXPECT_NEAR(order.shortest_cost,
                scenario->oracle->Cost(order.pickup, order.dropoff), 1e-6);
  }
}

TEST(ScenarioTest, OrdersSortedByRelease) {
  auto scenario = GenerateScenario(SmallOptions());
  ASSERT_TRUE(scenario.ok());
  for (size_t i = 1; i < scenario->orders.size(); ++i) {
    EXPECT_LE(scenario->orders[i - 1].release, scenario->orders[i].release);
  }
}

TEST(ScenarioTest, ReleasesInsideWindow) {
  WorkloadOptions options = SmallOptions();
  options.start_hour = 8.0;
  options.duration = 2 * 3600.0;
  auto scenario = GenerateScenario(options);
  ASSERT_TRUE(scenario.ok());
  for (const Order& order : scenario->orders) {
    EXPECT_GE(order.release, 8 * 3600.0);
    EXPECT_LT(order.release, 10 * 3600.0);
  }
}

TEST(ScenarioTest, WorkerCapacitiesUniformIn2ToKw) {
  WorkloadOptions options = SmallOptions();
  options.max_capacity = 5;
  options.num_workers = 400;
  auto scenario = GenerateScenario(options);
  ASSERT_TRUE(scenario.ok());
  std::vector<int> counts(6, 0);
  for (const Worker& worker : scenario->workers) {
    ASSERT_GE(worker.capacity, 2);
    ASSERT_LE(worker.capacity, 5);
    ++counts[worker.capacity];
    EXPECT_FALSE(worker.busy);
    EXPECT_GE(worker.location, 0);
    EXPECT_LT(worker.location, scenario->city->graph.num_nodes());
  }
  for (int capacity = 2; capacity <= 5; ++capacity) {
    EXPECT_GT(counts[capacity], 50) << "capacity " << capacity;
  }
}

TEST(ScenarioTest, DeterministicForSeed) {
  auto a = GenerateScenario(SmallOptions());
  auto b = GenerateScenario(SmallOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->orders.size(), b->orders.size());
  for (size_t i = 0; i < a->orders.size(); ++i) {
    EXPECT_EQ(a->orders[i].pickup, b->orders[i].pickup);
    EXPECT_EQ(a->orders[i].release, b->orders[i].release);
  }
}

TEST(ScenarioTest, SharedCitySeedKeepsRoadNetworkFixed) {
  WorkloadOptions a = SmallOptions();
  a.seed = 1;
  a.city_seed = 777;
  WorkloadOptions b = SmallOptions();
  b.seed = 2;
  b.city_seed = 777;
  auto sa = GenerateScenario(a);
  auto sb = GenerateScenario(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  // Same road network: identical costs between equal node pairs.
  EXPECT_NEAR(sa->oracle->Cost(0, 100), sb->oracle->Cost(0, 100), 1e-9);
  // Different demand draws.
  bool any_different = false;
  for (size_t i = 0; i < sa->orders.size(); ++i) {
    if (sa->orders[i].pickup != sb->orders[i].pickup) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(ScenarioTest, RejectsInvalidOptions) {
  WorkloadOptions options = SmallOptions();
  options.num_orders = 0;
  EXPECT_FALSE(GenerateScenario(options).ok());
  options = SmallOptions();
  options.tau = 1.0;
  EXPECT_FALSE(GenerateScenario(options).ok());
  options = SmallOptions();
  options.eta = 0.0;
  EXPECT_FALSE(GenerateScenario(options).ok());
}

TEST(DatasetIoTest, OrdersRoundTrip) {
  auto scenario = GenerateScenario(SmallOptions());
  ASSERT_TRUE(scenario.ok());
  std::string path = testing::TempDir() + "/orders.csv";
  ASSERT_TRUE(SaveOrdersCsv(path, scenario->orders).ok());
  auto loaded = LoadOrdersCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), scenario->orders.size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ((*loaded)[i].id, scenario->orders[i].id);
    EXPECT_EQ((*loaded)[i].pickup, scenario->orders[i].pickup);
    EXPECT_NEAR((*loaded)[i].deadline, scenario->orders[i].deadline, 1e-3);
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, WorkersRoundTrip) {
  auto scenario = GenerateScenario(SmallOptions());
  ASSERT_TRUE(scenario.ok());
  std::string path = testing::TempDir() + "/workers.csv";
  ASSERT_TRUE(SaveWorkersCsv(path, scenario->workers).ok());
  auto loaded = LoadWorkersCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), scenario->workers.size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ((*loaded)[i].id, scenario->workers[i].id);
    EXPECT_EQ((*loaded)[i].capacity, scenario->workers[i].capacity);
  }
  std::remove(path.c_str());
}

void WriteText(const std::string& path, const std::string& text) {
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs(text.c_str(), f);
  fclose(f);
}

TEST(DatasetIoTest, LoadRejectsRowsShorterThanTheHeader) {
  // Fields are read by header position. With an extra leading column, a
  // row that has as many fields as there are required columns still ends
  // one short of the last one; it must be rejected, not read past.
  std::string path = testing::TempDir() + "/wide_header.csv";
  WriteText(path,
            "note,id,pickup,dropoff,riders,release,deadline,wait_limit,"
            "shortest_cost\nx,1,2,3,1,0,600,60\n");
  EXPECT_EQ(LoadOrdersCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  WriteText(path, "note,id,location,capacity\nx,1,2\n");
  EXPECT_EQ(LoadWorkersCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, LoadRejectsIntegerFieldsOutOfRange) {
  // Ids, nodes, riders and capacities are integers; converting nan, an
  // out-of-range value or a fraction would be undefined or lossy.
  std::string path = testing::TempDir() + "/bad_integers.csv";
  const std::string order_header =
      "id,pickup,dropoff,riders,release,deadline,wait_limit,shortest_cost\n";
  WriteText(path, order_header + "1,2,3,1,0,600,60,120\n");
  ASSERT_TRUE(LoadOrdersCsv(path).ok());
  WriteText(path, "id,location,capacity\n1,2,4\n");
  ASSERT_TRUE(LoadWorkersCsv(path).ok());
  for (std::string bad : {"nan", "1e300", "-inf", "2.5"}) {
    SCOPED_TRACE(bad);
    WriteText(path, order_header + bad + ",2,3,1,0,600,60,120\n");
    EXPECT_EQ(LoadOrdersCsv(path).status().code(),
              StatusCode::kInvalidArgument);
    WriteText(path, order_header + "1,2,3," + bad + ",0,600,60,120\n");
    EXPECT_EQ(LoadOrdersCsv(path).status().code(),
              StatusCode::kInvalidArgument);
    WriteText(path, "id,location,capacity\n1," + bad + ",4\n");
    EXPECT_EQ(LoadWorkersCsv(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Just past each type's range: 2^63 for the 64-bit order id, 2^31 for
  // the 32-bit riders count.
  WriteText(path, order_header + "9223372036854775808,2,3,1,0,600,60,120\n");
  EXPECT_EQ(LoadOrdersCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  WriteText(path, order_header + "1,2,3,2147483648,0,600,60,120\n");
  EXPECT_EQ(LoadOrdersCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, LoadRejectsNonFiniteOrNegativeTimes) {
  // release, deadline, wait_limit and shortest_cost are seconds; a nan
  // deadline would reach the planner's feasibility tests.
  std::string path = testing::TempDir() + "/bad_times.csv";
  const std::string header =
      "id,pickup,dropoff,riders,release,deadline,wait_limit,shortest_cost\n";
  const std::string good[4] = {"0", "600", "60", "120"};
  for (int column = 0; column < 4; ++column) {
    for (std::string bad : {"nan", "inf", "-inf", "-5"}) {
      SCOPED_TRACE(std::to_string(column) + ": " + bad);
      std::string row = "1,2,3,1";
      for (int c = 0; c < 4; ++c) row += "," + (c == column ? bad : good[c]);
      WriteText(path, header + row + "\n");
      EXPECT_EQ(LoadOrdersCsv(path).status().code(),
                StatusCode::kInvalidArgument);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, LoadRejectsMissingColumns) {
  std::string path = testing::TempDir() + "/bad.csv";
  FILE* f = fopen(path.c_str(), "w");
  fprintf(f, "id,pickup\n1,2\n");
  fclose(f);
  EXPECT_FALSE(LoadOrdersCsv(path).ok());
  EXPECT_FALSE(LoadWorkersCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace watter
