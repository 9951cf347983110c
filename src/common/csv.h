// Minimal CSV reading/writing used for dataset persistence and for dumping
// bench series that can be re-plotted against the paper figures.
#ifndef WATTER_COMMON_CSV_H_
#define WATTER_COMMON_CSV_H_

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

}  // namespace watter

#endif  // WATTER_COMMON_CSV_H_
