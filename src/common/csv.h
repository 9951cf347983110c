// Minimal CSV reading/writing used for dataset persistence and for dumping
// bench series that can be re-plotted against the paper figures, plus the
// strict number parsers the CSV loaders and the command lines share.
#ifndef WATTER_COMMON_CSV_H_
#define WATTER_COMMON_CSV_H_

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace watter {

/// In-memory CSV document: a header row plus data rows of equal arity.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Returns the column index of `name` or -1 if absent.
  int ColumnIndex(const std::string& name) const;
};

/// Serializes `doc` to `path`. Fields containing commas/quotes are quoted.
Status WriteCsv(const std::string& path, const CsvDocument& doc);

/// Parses the file at `path`. The first row is treated as the header;
/// InvalidArgument if any data row has a different number of fields.
Result<CsvDocument> ReadCsv(const std::string& path);

/// Splits one CSV line honoring double-quote escaping.
std::vector<std::string> SplitCsvLine(const std::string& line);

/// `field` as a double, or InvalidArgument unless strtod consumes all of it.
Result<double> ParseDouble(const std::string& field);

/// `field` as the integer type T, or InvalidArgument unless it is a whole
/// number in T's range. A plain decimal converts exactly; other numbers
/// ("5.0", "1e3") go through ParseDouble, where a static_cast would be
/// undefined for nan or 1e300 and would silently truncate 2.5. The
/// exclusive upper bound 2 * (max() / 2 + 1) is a power of two, which a
/// double holds exactly (unlike a 64-bit max()).
template <typename T>
Result<T> ParseInteger(const std::string& field) {
  T exact{};
  const char* end = field.data() + field.size();
  const auto [stop, error] = std::from_chars(field.data(), end, exact);
  if (error == std::errc() && stop == end) return exact;
  auto value = ParseDouble(field);
  if (!value.ok()) return value.status();
  constexpr double kLow = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double kHigh =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(*value >= kLow && *value < kHigh && std::trunc(*value) == *value)) {
    return Status::InvalidArgument("not an integer in range: '" + field +
                                   "'");
  }
  return static_cast<T>(*value);
}

}  // namespace watter

#endif  // WATTER_COMMON_CSV_H_
