#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "src/common/csv.h"
#include "src/common/stopwatch.h"
#include "src/common/table.h"

namespace watter {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(CsvTest, RoundTripSimple) {
  CsvDocument doc;
  doc.header = {"a", "b", "c"};
  doc.rows = {{"1", "2", "3"}, {"x", "y", "z"}};
  std::string path = TempPath("simple.csv");
  ASSERT_TRUE(WriteCsv(path, doc).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, doc.header);
  EXPECT_EQ(loaded->rows, doc.rows);
  std::remove(path.c_str());
}

TEST(CsvTest, RoundTripQuotedFields) {
  CsvDocument doc;
  doc.header = {"name", "note"};
  doc.rows = {{"a,b", "says \"hi\""}, {"plain", "with,comma"}};
  std::string path = TempPath("quoted.csv");
  ASSERT_TRUE(WriteCsv(path, doc).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows, doc.rows);
  std::remove(path.c_str());
}

TEST(CsvTest, SplitLineHandlesEscapes) {
  auto fields = SplitCsvLine("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(CsvTest, ColumnIndexLookup) {
  CsvDocument doc;
  doc.header = {"x", "y"};
  EXPECT_EQ(doc.ColumnIndex("y"), 1);
  EXPECT_EQ(doc.ColumnIndex("missing"), -1);
}

TEST(CsvTest, ReadRejectsRowsOfAnotherArity) {
  // A data row with fewer or more fields than the header is malformed;
  // readers index rows by header position and rely on this.
  std::string path = TempPath("ragged.csv");
  for (std::string row : {"1,2", "1,2,3,4"}) {
    SCOPED_TRACE(row);
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(("a,b,c\n1,2,3\n" + row + "\n").c_str(), f);
    std::fclose(f);
    auto loaded = ReadCsv(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  auto loaded = ReadCsv("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, ParseIntegerHoldsEachTypesWholeRange) {
  // Plain decimals convert exactly, past double's 53 bits too; other
  // numbers must be whole and inside [min(), max()].
  EXPECT_EQ(ParseInteger<uint64_t>("18446744073709551615").value_or(0),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(ParseInteger<uint64_t>("9007199254740993").value_or(0),
            9007199254740993u);
  EXPECT_EQ(ParseInteger<uint64_t>("1e3").value_or(0), 1000u);
  EXPECT_EQ(ParseInteger<int64_t>("9223372036854775807").value_or(0),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseInteger<int>("-2147483648").value_or(0),
            std::numeric_limits<int>::min());
  EXPECT_EQ(ParseInteger<int>("2147483647").value_or(0), 2147483647);
  EXPECT_EQ(ParseInteger<int>("5.0").value_or(0), 5);
  for (const char* bad : {"18446744073709551616", "-1",
                          "1.8446744073709552e19", "2.5", "60x", "", "nan"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(ParseInteger<uint64_t>(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (const char* bad : {"2147483648", "-2147483649", "1e300", "abc"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(ParseInteger<int>(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ParseDouble("1.6").value_or(0.0), 1.6);
  EXPECT_EQ(ParseDouble("1.6abc").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, AlignsColumns) {
  Table table({"algo", "cost"});
  table.AddRow({"GDP", "12"});
  table.AddRow({"WATTER-expect", "5"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("WATTER-expect  5"), std::string::npos);
  EXPECT_NE(rendered.find("algo"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(StopwatchTest, AccumulatesAcrossIntervals) {
  Stopwatch watch;
  watch.Start();
  watch.Stop();
  double first = watch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  watch.Start();
  watch.Stop();
  EXPECT_GE(watch.ElapsedSeconds(), first);
  watch.Reset();
  EXPECT_EQ(watch.ElapsedSeconds(), 0.0);
}

TEST(StopwatchTest, ScopedTimerAddsTime) {
  Stopwatch watch;
  {
    ScopedTimer timer(&watch);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
    (void)sink;
  }
  EXPECT_GT(watch.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace watter
