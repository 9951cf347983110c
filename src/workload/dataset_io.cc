#include "src/workload/dataset_io.h"

#include <cmath>

#include "src/common/csv.h"

namespace watter {
namespace {

// `field` as a time in seconds, or InvalidArgument unless it is finite and
// not negative: a nan deadline would reach the planner's feasibility tests.
Result<double> ParseTime(const std::string& field) {
  auto value = ParseDouble(field);
  if (!value.ok()) return value.status();
  if (!(std::isfinite(*value) && *value >= 0.0)) {
    return Status::InvalidArgument("not a finite non-negative time: '" +
                                   field + "'");
  }
  return value;
}

}  // namespace

Status SaveOrdersCsv(const std::string& path,
                     const std::vector<Order>& orders) {
  CsvDocument doc;
  doc.header = {"id",       "pickup",    "dropoff",     "riders",
                "release",  "deadline",  "wait_limit",  "shortest_cost"};
  doc.rows.reserve(orders.size());
  for (const Order& o : orders) {
    doc.rows.push_back({std::to_string(o.id), std::to_string(o.pickup),
                        std::to_string(o.dropoff), std::to_string(o.riders),
                        std::to_string(o.release), std::to_string(o.deadline),
                        std::to_string(o.wait_limit),
                        std::to_string(o.shortest_cost)});
  }
  return WriteCsv(path, doc);
}

Result<std::vector<Order>> LoadOrdersCsv(const std::string& path) {
  auto doc = ReadCsv(path);
  if (!doc.ok()) return doc.status();
  const char* columns[] = {"id",      "pickup",   "dropoff",
                           "riders",  "release",  "deadline",
                           "wait_limit", "shortest_cost"};
  int index[8];
  for (int c = 0; c < 8; ++c) {
    index[c] = doc->ColumnIndex(columns[c]);
    if (index[c] < 0) {
      return Status::InvalidArgument(std::string("missing column: ") +
                                     columns[c]);
    }
  }
  std::vector<Order> orders;
  orders.reserve(doc->rows.size());
  for (const auto& row : doc->rows) {
    auto id = ParseInteger<OrderId>(row[index[0]]);
    auto pickup = ParseInteger<NodeId>(row[index[1]]);
    auto dropoff = ParseInteger<NodeId>(row[index[2]]);
    auto riders = ParseInteger<int>(row[index[3]]);
    if (!id.ok()) return id.status();
    if (!pickup.ok()) return pickup.status();
    if (!dropoff.ok()) return dropoff.status();
    if (!riders.ok()) return riders.status();
    double times[4];
    for (int c = 0; c < 4; ++c) {
      auto value = ParseTime(row[index[4 + c]]);
      if (!value.ok()) return value.status();
      times[c] = *value;
    }
    Order order;
    order.id = *id;
    order.pickup = *pickup;
    order.dropoff = *dropoff;
    order.riders = *riders;
    order.release = times[0];
    order.deadline = times[1];
    order.wait_limit = times[2];
    order.shortest_cost = times[3];
    orders.push_back(order);
  }
  return orders;
}

Status SaveWorkersCsv(const std::string& path,
                      const std::vector<Worker>& workers) {
  CsvDocument doc;
  doc.header = {"id", "location", "capacity"};
  doc.rows.reserve(workers.size());
  for (const Worker& w : workers) {
    doc.rows.push_back({std::to_string(w.id), std::to_string(w.location),
                        std::to_string(w.capacity)});
  }
  return WriteCsv(path, doc);
}

Result<std::vector<Worker>> LoadWorkersCsv(const std::string& path) {
  auto doc = ReadCsv(path);
  if (!doc.ok()) return doc.status();
  int id_col = doc->ColumnIndex("id");
  int loc_col = doc->ColumnIndex("location");
  int cap_col = doc->ColumnIndex("capacity");
  if (id_col < 0 || loc_col < 0 || cap_col < 0) {
    return Status::InvalidArgument("missing worker columns in " + path);
  }
  std::vector<Worker> workers;
  workers.reserve(doc->rows.size());
  for (const auto& row : doc->rows) {
    auto id = ParseInteger<WorkerId>(row[id_col]);
    auto loc = ParseInteger<NodeId>(row[loc_col]);
    auto cap = ParseInteger<int>(row[cap_col]);
    if (!id.ok()) return id.status();
    if (!loc.ok()) return loc.status();
    if (!cap.ok()) return cap.status();
    Worker worker;
    worker.id = *id;
    worker.location = *loc;
    worker.capacity = *cap;
    workers.push_back(worker);
  }
  return workers;
}

}  // namespace watter
