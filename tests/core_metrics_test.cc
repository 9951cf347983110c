#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "src/core/metrics.h"

namespace watter {
namespace {

Order MakeOrder(OrderId id, double shortest, Time release, Time deadline) {
  Order order;
  order.id = id;
  order.shortest_cost = shortest;
  order.release = release;
  order.deadline = deadline;
  return order;
}

TEST(MetricsTest, ServedAccumulatesExtraTime) {
  MetricsCollector collector;
  Order o = MakeOrder(1, 100.0, 0.0, 1000.0);
  collector.RecordServed(o, /*response=*/30.0, /*detour=*/50.0, 2);
  MetricsReport report = collector.Report();
  EXPECT_EQ(report.served, 1);
  EXPECT_DOUBLE_EQ(report.total_extra_time, 80.0);  // alpha=beta=1.
  EXPECT_DOUBLE_EQ(report.avg_response, 30.0);
  EXPECT_DOUBLE_EQ(report.avg_detour, 50.0);
  EXPECT_DOUBLE_EQ(report.avg_group_size, 2.0);
  EXPECT_DOUBLE_EQ(report.service_rate, 1.0);
}

TEST(MetricsTest, WeightsScaleExtraTime) {
  MetricsOptions options;
  options.weights = {.alpha = 2.0, .beta = 0.5};
  MetricsCollector collector(options);
  Order o = MakeOrder(1, 100.0, 0.0, 1000.0);
  collector.RecordServed(o, 40.0, 10.0, 1);
  EXPECT_DOUBLE_EQ(collector.Report().total_extra_time, 2.0 * 10 + 0.5 * 40);
}

TEST(MetricsTest, RejectionAddsPenalties) {
  MetricsCollector collector;
  // Penalty p(i) = deadline - release - shortest = 500 - 0 - 100 = 400.
  Order o = MakeOrder(1, 100.0, 0.0, 500.0);
  collector.RecordRejected(o);
  MetricsReport report = collector.Report();
  EXPECT_EQ(report.rejected, 1);
  EXPECT_DOUBLE_EQ(report.total_metrs_penalty, 400.0);
  EXPECT_DOUBLE_EQ(report.metrs_objective, 400.0);
  // Unified-cost penalty = 10 * shortest.
  EXPECT_DOUBLE_EQ(report.unified_cost, 1000.0);
  EXPECT_DOUBLE_EQ(report.service_rate, 0.0);
}

TEST(MetricsTest, UnifiedCostCombinesTravelAndPenalty) {
  MetricsCollector collector;
  collector.AddWorkerTravel(750.0);
  Order o = MakeOrder(1, 20.0, 0.0, 500.0);
  collector.RecordRejected(o);
  EXPECT_DOUBLE_EQ(collector.Report().unified_cost, 750.0 + 200.0);
  EXPECT_DOUBLE_EQ(collector.Report().worker_travel, 750.0);
}

TEST(MetricsTest, ServiceRateMixesServedAndRejected) {
  MetricsCollector collector;
  Order o = MakeOrder(1, 10.0, 0.0, 500.0);
  collector.RecordServed(o, 1.0, 1.0, 1);
  collector.RecordServed(o, 1.0, 1.0, 1);
  collector.RecordRejected(o);
  MetricsReport report = collector.Report();
  EXPECT_NEAR(report.service_rate, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(collector.total_orders(), 3);
}

TEST(MetricsTest, RunningTimePerOrder) {
  MetricsCollector collector;
  Order o = MakeOrder(1, 10.0, 0.0, 500.0);
  collector.RecordServed(o, 1.0, 1.0, 1);
  collector.RecordRejected(o);
  collector.AddAlgorithmTime(0.5);
  MetricsReport report = collector.Report();
  EXPECT_DOUBLE_EQ(report.algorithm_seconds, 0.5);
  EXPECT_DOUBLE_EQ(report.running_time_per_order, 0.25);
}

TEST(MetricsTest, ServedExtraTimesExposedForFitting) {
  MetricsCollector collector;
  Order o = MakeOrder(1, 10.0, 0.0, 500.0);
  collector.RecordServed(o, 5.0, 7.0, 1);
  collector.RecordServed(o, 2.0, 3.0, 2);
  ASSERT_EQ(collector.served_extra_times().size(), 2u);
  EXPECT_DOUBLE_EQ(collector.served_extra_times()[0], 12.0);
  EXPECT_DOUBLE_EQ(collector.served_extra_times()[1], 5.0);
  EXPECT_EQ(collector.served_records()[1].group_size, 2);
}

TEST(MetricsTest, EmptyReportIsZeroed) {
  MetricsCollector collector;
  MetricsReport report = collector.Report();
  EXPECT_EQ(report.served, 0);
  EXPECT_DOUBLE_EQ(report.service_rate, 0.0);
  EXPECT_DOUBLE_EQ(report.running_time_per_order, 0.0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(MetricsTest, OrderHelperAccessors) {
  Order o = MakeOrder(1, 100.0, 50.0, 600.0);
  o.wait_limit = 80.0;
  EXPECT_DOUBLE_EQ(o.MaxResponse(), 450.0);
  EXPECT_DOUBLE_EQ(o.Penalty(), 450.0);
  EXPECT_DOUBLE_EQ(o.LatestDispatch(), 500.0);
  EXPECT_DOUBLE_EQ(o.WaitDeadline(), 130.0);
}

// Field visitors (metrics.h): the one list every sink iterates.

// Calls to the visitor of one stats struct.
template <typename Stats>
size_t VisitCount() {
  size_t count = 0;
  VisitFields(Stats{}, [&count](const char*, int64_t) { ++count; });
  return count;
}

TEST(ReportFieldsTest, FieldNamesAreUnique) {
  std::set<std::string> names;
  size_t count = 0;
  VisitFields(MetricsReport{}, [&](const char* name, auto) {
    names.insert(name);
    ++count;
  });
  EXPECT_EQ(count, 45u);
  EXPECT_EQ(names.size(), count);
}

TEST(ReportFieldsTest, EveryStatsMemberIsVisited) {
  // A member added without its visitor line fails here.
  EXPECT_EQ(VisitCount<PoolStats>(), sizeof(PoolStats) / sizeof(int64_t));
  EXPECT_EQ(VisitCount<DispatchStats>(),
            sizeof(DispatchStats) / sizeof(int64_t));
  EXPECT_EQ(VisitCount<FaultStats>(), sizeof(FaultStats) / sizeof(int64_t));
}

TEST(ReportFieldsTest, JsonIntegersAndExactDoubles) {
  MetricsReport report;
  report.served = 123;
  report.metrs_objective = 0.1 + 0.2;
  const std::string json = MetricsReportJson(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.compare(1, json.size() - 2, ReportFieldsJson(report)), 0);
  EXPECT_NE(json.find("\"served\": 123, "), std::string::npos);

  const char* key = "\"metrs_objective\": ";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  const double parsed = std::strtod(json.c_str() + at + std::strlen(key),
                                    nullptr);
  EXPECT_EQ(parsed, 0.1 + 0.2);  // Bit-identical, not merely close.
  EXPECT_NE(parsed, 0.3);
}

}  // namespace
}  // namespace watter
