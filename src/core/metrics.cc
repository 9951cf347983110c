#include "src/core/metrics.h"

#include <charconv>
#include <sstream>

namespace watter {

void MetricsCollector::RecordServed(const Order& order, double response,
                                    double detour, int group_size) {
  double extra =
      options_.weights.alpha * detour + options_.weights.beta * response;
  ++served_;
  total_extra_ += extra;
  total_response_ += response;
  total_detour_ += detour;
  total_group_size_ += group_size;
  served_extras_.push_back(extra);
  served_records_.push_back(
      ServedRecord{order.id, response, detour, extra, group_size});
}

void MetricsCollector::RecordRejected(const Order& order) {
  ++rejected_;
  total_metrs_penalty_ += order.Penalty();
  total_uc_penalty_ += options_.uc_penalty_factor * order.shortest_cost;
}

void MetricsCollector::RecordCancelled(const Order& order) {
  // Cancellations are rejections with a break-out counter: the aggregate
  // penalties stay bitwise identical whether or not the break-out exists.
  RecordRejected(order);
  ++cancelled_;
}

void MetricsCollector::RecordFailedService(const Order& order) {
  ++failed_;
  total_metrs_penalty_ += order.Penalty();
  total_uc_penalty_ += options_.uc_penalty_factor * order.shortest_cost;
}

void MetricsCollector::ReverseServed(const Order& order, double response,
                                     double detour, int group_size) {
  (void)order;
  // Recompute the identical extra value RecordServed derived and subtract
  // the same stored floats. The sums need not bit-restore (float add is not
  // reversible in general) — determinism comes from the reversal itself
  // being a fixed step in the serial fault phase.
  double extra =
      options_.weights.alpha * detour + options_.weights.beta * response;
  --served_;
  total_extra_ -= extra;
  total_response_ -= response;
  total_detour_ -= detour;
  total_group_size_ -= group_size;
}

MetricsReport MetricsCollector::Report() const {
  MetricsReport report;
  report.served = served_;
  report.rejected = rejected_;
  report.cancelled = cancelled_;
  report.failed_services = failed_;
  report.total_extra_time = total_extra_;
  report.total_metrs_penalty = total_metrs_penalty_;
  report.metrs_objective = total_extra_ + total_metrs_penalty_;
  report.worker_travel = worker_travel_;
  report.unified_cost = worker_travel_ + total_uc_penalty_;
  // Failed services are terminal outcomes: they join the denominator (with
  // failed_ == 0 the arithmetic is untouched).
  int64_t total = served_ + rejected_ + failed_;
  report.service_rate = total > 0 ? static_cast<double>(served_) / total : 0.0;
  report.avg_extra = served_ > 0 ? total_extra_ / served_ : 0.0;
  report.avg_response = served_ > 0 ? total_response_ / served_ : 0.0;
  report.avg_detour = served_ > 0 ? total_detour_ / served_ : 0.0;
  report.avg_group_size = served_ > 0 ? total_group_size_ / served_ : 0.0;
  report.algorithm_seconds = algorithm_seconds_;
  report.running_time_per_order =
      total > 0 ? algorithm_seconds_ / total : 0.0;
  if (fleet_size_ > 0 && horizon_seconds_ > 0.0) {
    report.fleet_utilization =
        worker_travel_ / (fleet_size_ * horizon_seconds_);
  }
  return report;
}

std::string ReportFieldsJson(const MetricsReport& report) {
  std::ostringstream json;
  const char* separator = "";
  VisitFields(report, [&](const char* name, auto value) {
    char buffer[32];
    const char* end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
    json << separator << '"' << name << "\": ";
    json.write(buffer, end - buffer);
    separator = ", ";
  });
  return json.str();
}

std::string MetricsReportJson(const MetricsReport& report) {
  std::string json = "{";
  json += ReportFieldsJson(report);
  json += '}';
  return json;
}

std::string MetricsReport::ToString() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "served=" << served << " rejected=" << rejected
     << " service_rate=" << service_rate * 100.0 << "%"
     << " extra_time=" << total_extra_time
     << " unified_cost=" << unified_cost
     << " metrs=" << metrs_objective
     << " avg_extra=" << avg_extra
     << " rt/order=" << running_time_per_order * 1e6 << "us";
  return os.str();
}

}  // namespace watter
