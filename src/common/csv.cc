#include "src/common/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace watter {
namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

int CsvDocument::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status WriteCsv(const std::string& path, const CsvDocument& doc) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  auto emit_row = [&out](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << QuoteField(row[i]);
    }
    out << '\n';
  };
  emit_row(doc.header);
  for (const auto& row : doc.rows) emit_row(row);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<CsvDocument> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  CsvDocument doc;
  std::string line;
  bool first = true;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() && in.eof()) break;
    auto fields = SplitCsvLine(line);
    if (first) {
      doc.header = std::move(fields);
      first = false;
    } else if (fields.size() != doc.header.size()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": " +
          std::to_string(fields.size()) + " fields under a header of " +
          std::to_string(doc.header.size()));
    } else {
      doc.rows.push_back(std::move(fields));
    }
  }
  if (first) return Status::IoError("empty csv file: " + path);
  return doc;
}

Result<double> ParseDouble(const std::string& field) {
  char* end = nullptr;
  double value = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: '" + field + "'");
  }
  return value;
}

}  // namespace watter
