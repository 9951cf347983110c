// Shared helpers for WATTER tests: the paper's Example 1 road network and
// small scenario builders.
#ifndef WATTER_TESTS_TEST_UTIL_H_
#define WATTER_TESTS_TEST_UTIL_H_

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/metrics.h"
#include "src/core/types.h"
#include "src/geo/graph.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {
namespace testutil {

/// Node labels of the Example 1 network (Figure 1 of the paper).
enum Example1Node : NodeId { kA = 0, kB, kC, kD, kE, kF };

/// Builds a 6-node, 7-edge road network consistent with every travel time
/// quoted in Example 1 of the paper (each edge costs 1 minute = 60 s):
///   cost(a,c)=2min, cost(d,c)=3min, cost(d,f)=2min, cost(f,d)=2min,
///   non-sharing total 12min, online-insertion total 9min,
///   batch total 7min, optimal pooling total 5min.
/// Edges: a-b, b-c, a-d, d-e, e-f, c-f, b-e.
inline Graph MakeExample1Graph(double minute = 60.0) {
  Graph g;
  for (int i = 0; i < 6; ++i) {
    g.AddNode(Point{static_cast<double>(i % 3), static_cast<double>(i / 3)});
  }
  g.AddBidirectionalEdge(kA, kB, minute);
  g.AddBidirectionalEdge(kB, kC, minute);
  g.AddBidirectionalEdge(kA, kD, minute);
  g.AddBidirectionalEdge(kD, kE, minute);
  g.AddBidirectionalEdge(kE, kF, minute);
  g.AddBidirectionalEdge(kC, kF, minute);
  g.AddBidirectionalEdge(kB, kE, minute);
  WATTER_CHECK_OK(g.Finalize());
  return g;
}

/// The four orders of Table I (release times in seconds; generous deadlines
/// unless a test overrides them).
inline std::vector<Order> MakeExample1Orders(double minute = 60.0) {
  std::vector<Order> orders(4);
  orders[0] = {.id = 1, .pickup = kA, .dropoff = kC, .riders = 1,
               .release = 5, .deadline = 5 + 20 * minute, .wait_limit = 60,
               .shortest_cost = 2 * minute};
  orders[1] = {.id = 2, .pickup = kD, .dropoff = kF, .riders = 1,
               .release = 8, .deadline = 8 + 20 * minute, .wait_limit = 60,
               .shortest_cost = 2 * minute};
  orders[2] = {.id = 3, .pickup = kD, .dropoff = kC, .riders = 1,
               .release = 10, .deadline = 10 + 20 * minute, .wait_limit = 60,
               .shortest_cost = 3 * minute};
  orders[3] = {.id = 4, .pickup = kE, .dropoff = kF, .riders = 1,
               .release = 12, .deadline = 12 + 20 * minute, .wait_limit = 60,
               .shortest_cost = 1 * minute};
  return orders;
}

/// Every field of the determinism contract (metrics.h, VisitExactFields) as
/// "name=value", doubles to 17 significant digits so equal text means equal
/// bits. One EXPECT_EQ over two lists names each field that differs.
inline std::vector<std::string> ExactFields(const MetricsReport& report) {
  std::vector<std::string> fields;
  VisitExactFields(report, [&fields](const char* name, auto value) {
    std::ostringstream field;
    field.precision(17);
    field << name << '=' << value;
    fields.push_back(field.str());
  });
  return fields;
}

}  // namespace testutil
}  // namespace watter

#endif  // WATTER_TESTS_TEST_UTIL_H_
