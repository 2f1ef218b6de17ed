// The CSV reader (storage/csv.cc), enforced differentially: seeded CSV text
// runs through storage::ReadCsvString and through a reference reader kept
// in this file -- the line-at-a-time reader the buffer reader replaced
// (getline, SplitRecord into a vector of records, then type inference and
// a typed append that each parse every cell with ParseInt64/ParseDouble).
// Wherever the reference succeeds, the two tables must agree bit for bit:
// field names and types, row count, NULLs, int64 values, double bit
// patterns, strings, their dictionary codes and the dictionary order.
// Wherever the reference fails, the reader must fail too, except on input
// whose quoted field holds a newline, which the reader keeps in the field
// and the reference cannot read.
//
// Inputs: random tables and 5k-row MovieLens and StoreSales tables written
// with WriteCsvString; columns mixing the literals where std::from_chars
// and strtoll/strtod disagree (whitespace, '+', hex floats, infinities,
// NaN payloads, subnormals, DBL_MIN, overflow, the int64 limits); quoting
// and line-ending corner cases; and byte soups. Each runs with and without
// a header, with ',' and with ';'.
//
// perfbench cannot see a divergence here: its in-process reference loads
// the same CSV through the same reader. The CI sanitizer jobs run this
// binary explicitly, so ASan and UBSan check the reader's pointer walk.

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/movielens.h"
#include "datagen/store_sales.h"
#include "storage/csv.h"
#include "test_util.h"

namespace qagview::storage {
namespace {

// --- The reference reader ------------------------------------------------

// Splits one CSV record, honoring double-quote quoting with "" escapes.
Result<std::vector<std::string>> SplitRecord(const std::string& line,
                                             char sep) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      cells.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quote in: " + line);
  cells.push_back(std::move(cur));
  return cells;
}

Result<Table> ReferenceReadCsvString(const std::string& text,
                                     const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    QAG_ASSIGN_OR_RETURN(auto cells, SplitRecord(line, options.separator));
    records.push_back(std::move(cells));
  }
  if (records.empty()) return Status::ParseError("empty CSV input");

  std::vector<std::string> names;
  size_t first_data = 0;
  if (options.has_header) {
    names = records[0];
    first_data = 1;
  } else {
    for (size_t i = 0; i < records[0].size(); ++i) {
      names.push_back(StrCat("c", i));
    }
  }
  size_t num_cols = names.size();
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != num_cols) {
      return Status::ParseError(
          StrCat("row ", r, " has ", records[r].size(), " cells, expected ",
                 num_cols));
    }
  }

  // Infer per-column types.
  std::vector<ValueType> types(num_cols, ValueType::kInt64);
  for (size_t c = 0; c < num_cols; ++c) {
    bool all_int = true;
    bool all_num = true;
    bool any_value = false;
    for (size_t r = first_data; r < records.size(); ++r) {
      const std::string& cell = records[r][c];
      if (cell.empty()) continue;
      any_value = true;
      if (all_int && !ParseInt64(cell).ok()) all_int = false;
      if (all_num && !ParseDouble(cell).ok()) all_num = false;
      if (!all_num) break;
    }
    if (!any_value) {
      types[c] = ValueType::kString;
    } else if (all_int) {
      types[c] = ValueType::kInt64;
    } else if (all_num) {
      types[c] = ValueType::kDouble;
    } else {
      types[c] = ValueType::kString;
    }
  }

  // Typed cells straight into columns sized for every record.
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t c = 0; c < num_cols; ++c) {
    fields.push_back({names[c], types[c]});
    columns.emplace_back(types[c]);
    columns.back().Reserve(static_cast<int64_t>(records.size() - first_data));
  }
  for (size_t r = first_data; r < records.size(); ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& cell = records[r][c];
      Column& column = columns[c];
      if (cell.empty()) {
        column.AppendNull();
        continue;
      }
      switch (types[c]) {
        case ValueType::kInt64:
          column.AppendInt(ParseInt64(cell).value());
          break;
        case ValueType::kDouble:
          column.AppendDouble(ParseDouble(cell).value());
          break;
        default:
          column.AppendString(cell);
      }
    }
  }
  return Table::FromColumns(Schema{std::move(fields)}, std::move(columns));
}

// --- The comparison ------------------------------------------------------

// True when a '\n' sits inside quotes, where each '"' flips the quoting.
bool HasQuotedNewline(const std::string& text) {
  bool in_quotes = false;
  for (char c : text) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == '\n' && in_quotes) return true;
  }
  return false;
}

// "" when both string columns hold the same dictionary, in code order.
std::string DictionaryDiff(const Table& want, const Table& got) {
  for (int c = 0; c < want.num_columns(); ++c) {
    if (want.schema().field(c).type != ValueType::kString) continue;
    const Dictionary& w = want.column(c).dictionary();
    const Dictionary& g = got.column(c).dictionary();
    if (w.size() != g.size()) {
      return StrCat("col ", c, ": dictionary of ", w.size(), " vs ", g.size());
    }
    for (int32_t code = 0; code < w.size(); ++code) {
      if (w.GetString(code) != g.GetString(code)) {
        return StrCat("col ", c, " code ", code, ": ", w.GetString(code),
                      " vs ", g.GetString(code));
      }
    }
  }
  return "";
}

// What the comparisons saw, so a test can show it was not vacuous.
struct Tally {
  int parsed = 0;
  int failed = 0;
  int quoted_newline_only = 0;  // the reader's one extension
  int columns[4] = {0, 0, 0, 0};  // indexed by ValueType
};

// Reads `text` with both readers under `options` and checks they agree.
void ExpectSameResult(const std::string& text, const CsvOptions& options,
                      Tally* tally) {
  SCOPED_TRACE(testing::Message()
               << "separator '" << options.separator << "' header "
               << options.has_header << " text: "
               << (text.size() <= 400 ? testing::PrintToString(text)
                                      : StrCat(text.size(), " bytes")));
  Result<Table> want = ReferenceReadCsvString(text, options);
  Result<Table> got = ReadCsvString(text, options);
  if (!want.ok()) {
    if (got.ok()) {
      EXPECT_TRUE(HasQuotedNewline(text))
          << "the reference failed with " << want.status().ToString()
          << " but the reader read " << got->ToString();
      ++tally->quoted_newline_only;
    } else {
      ++tally->failed;
    }
    return;
  }
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(testutil::TableDiff(*want, *got), "");  // names and types too
  EXPECT_EQ(DictionaryDiff(*want, *got), "");
  ++tally->parsed;
  for (int c = 0; c < want->num_columns(); ++c) {
    ++tally->columns[static_cast<int>(want->schema().field(c).type)];
  }
}

// Every input runs with and without a header; with ';' its commas become
// semicolons, so the structure is the same under the other separator.
void ExpectSameResultAllOptions(const std::string& text, Tally* tally) {
  for (char sep : {',', ';'}) {
    std::string input = text;
    if (sep != ',') {
      for (char& c : input) {
        if (c == ',') c = sep;
        else if (c == sep) c = ',';
      }
    }
    for (bool header : {true, false}) {
      CsvOptions options;
      options.separator = sep;
      options.has_header = header;
      ExpectSameResult(input, options, tally);
    }
  }
}

int TypeCount(const Tally& tally, ValueType type) {
  return tally.columns[static_cast<int>(type)];
}

// --- Written tables ------------------------------------------------------

TEST(CsvDifferentialTest, RandomTablesWrittenAsCsv) {
  Tally tally;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    testutil::RandomTableSpec spec;
    spec.domains = {static_cast<int>(2 + seed), 5, 3};
    spec.value_skew = seed % 2 == 0 ? 1.5 : 0.0;
    Table table = testutil::MakeRandomTable(spec, seed, 300);
    ExpectSameResultAllOptions(WriteCsvString(table), &tally);
  }
  EXPECT_EQ(tally.parsed, 32);
}

TEST(CsvDifferentialTest, GeneratedDatasetsWrittenAsCsv) {
  datagen::MovieLensOptions movielens;
  movielens.num_ratings = 5000;
  movielens.seed = 101;
  datagen::StoreSalesOptions store_sales;
  store_sales.num_rows = 5000;
  store_sales.seed = 101;
  const std::string texts[] = {
      WriteCsvString(
          datagen::MovieLensGenerator(movielens).GenerateRatingTable()),
      WriteCsvString(datagen::StoreSalesGenerator(store_sales).Generate())};
  Tally tally;
  for (const std::string& text : texts) {
    for (bool header : {true, false}) {
      CsvOptions options;
      options.has_header = header;
      ExpectSameResult(text, options, &tally);
    }
  }
  EXPECT_EQ(tally.parsed, 4);
  EXPECT_GT(TypeCount(tally, ValueType::kInt64), 0);
  EXPECT_GT(TypeCount(tally, ValueType::kDouble), 0);
  EXPECT_GT(TypeCount(tally, ValueType::kString), 0);
}

// --- Literals where from_chars and strtoll/strtod part ways --------------

const char* const kEdgeLiterals[] = {
    // Accepted by strtoll/strtod, refused by from_chars.
    " 7 ", "+8", "\t5", "9\r", "0x10", "0x1p3", "0X1P-2",
    // Infinities and NaNs, with and without a payload.
    "inf", "-inf", "Infinity", "nan", "-nan", "nan(12)", "-nan(12)",
    // Zeros and the edges of the normal range.
    "-0", "0", "0.0", "-0.0", "0e-999",
    "1e-310", "4.9e-324", "-4.9e-324", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1.7976931348623159e308", "1e400", "-1e400",
    "1e-400", "-1e-400",
    // The int64 limits and one past each.
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809",
    // Incomplete or unusual forms.
    "1e", "1e+", ".5", "5.", ".", "-", "-.5", "1E5", "007", "1_0", "12abc",
    // Plain values.
    "12", "-3", "3.25", "x", "",
};

TEST(CsvDifferentialTest, EdgeLiteralColumns) {
  const std::vector<std::string> literals(std::begin(kEdgeLiterals),
                                          std::end(kEdgeLiterals));
  Tally tally;
  Rng rng(2024);
  for (int doc = 0; doc < 1500; ++doc) {
    // Each column draws from a few literals, so columns type as INT64 and
    // DOUBLE as well as STRING.
    const int num_cols = 1 + static_cast<int>(rng.Index(3));
    std::vector<std::vector<std::string>> pools(num_cols);
    for (auto& pool : pools) {
      const int kinds = 1 + static_cast<int>(rng.Index(3));
      for (int k = 0; k < kinds; ++k) pool.push_back(rng.Choice(literals));
    }
    std::string text;
    for (int c = 0; c < num_cols; ++c) text += StrCat(c ? "," : "", "h", c);
    text += "\n";
    const int rows = 1 + static_cast<int>(rng.Index(6));
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < num_cols; ++c) {
        if (c) text += ",";
        text += rng.Choice(pools[c]);
      }
      text += "\n";
    }
    ExpectSameResultAllOptions(text, &tally);
  }
  EXPECT_GT(tally.parsed, 1000);
  EXPECT_GT(TypeCount(tally, ValueType::kInt64), 100);
  EXPECT_GT(TypeCount(tally, ValueType::kDouble), 100);
  EXPECT_GT(TypeCount(tally, ValueType::kString), 100);
}

// --- Quoting and line endings --------------------------------------------

TEST(CsvDifferentialTest, QuotingAndLineEndings) {
  const char* const kCases[] = {
      "a,b\n\"x\"tail,2\n",             // a quote closes mid-field
      "a,b\nhead\"x,y\"tail,2\n",       // and opens mid-field
      "a,b\n\"\"\"\",\"\"\n",           // a lone escaped quote; empty quotes
      "a,b\n\"x\"\"y\"\"\",z\n",        // escapes at the end of a field
      "a,b\nx\"\"y,2\n",                // "" outside quotes reads as nothing
      "a,b\r\n1,2\r\n3,4\r\n",          // CRLF
      "a,b\r\n1,2\r\n3,4",              // CRLF, no final newline
      "a,b\n1,2\r",                     // a '\r' at the end of input
      "a,b\n1\r,2\n",                   // a lone '\r' in a field
      "a,b\n1,2\r\r\n",                 // two '\r' before a newline
      "a,b\n\r\n1,2\n\r",               // lines holding only '\r'
      "a,b\n\n\n1,2\n\n",               // blank lines
      "\n\na,b\n1,2\n",                 // blank lines before the header
      "a,b,\n1,2,\n",                   // a trailing separator
      "a,b\n1,\"2\"\r\n",               // a quoted last field, then CRLF
      "a,b\n\"1\",\" 2\"\n",            // quoted numbers
      "a\n\"\"\n\"\"\n",                // a one-column table of empty cells
      "a\n1\n\"\"\n3\n",                // ... and with values
      "a,b\n\"x\ny\",2\n",              // a quoted newline
      "a,b\n\"x\r\ny\",2\r\n",          // a quoted CRLF
      "a,b\n\"x\",\"y\n",               // an unterminated quote
      "a,b\n\"x\n1,2\n",                // one that runs to the end
      "a,b\n1,2,3\n",                   // an over-wide row
      "a,b\n1\n",                       // an under-wide row
      "a;b\n1,2;3\n",                   // the other separator in a field
      "",
  };
  Tally tally;
  for (const char* text : kCases) ExpectSameResultAllOptions(text, &tally);
  EXPECT_GT(tally.parsed, 50);
  EXPECT_GT(tally.failed, 10);
  EXPECT_GT(tally.quoted_newline_only, 0);
}

// --- Byte soups ----------------------------------------------------------

class CsvDifferentialSoupTest : public testing::TestWithParam<uint64_t> {};

// csv_fuzz_test's alphabet plus '+' and 'e', so the soups also hold signs
// and exponents.
TEST_P(CsvDifferentialSoupTest, ByteSoupsReadAlike) {
  Rng rng(GetParam());
  const char alphabet[] = "ab,\"\n\r0129.x -;\t+e";
  Tally tally;
  for (int doc = 0; doc < 300; ++doc) {
    std::string text;
    const int length = static_cast<int>(rng.Index(160));
    for (int i = 0; i < length; ++i) {
      text += alphabet[rng.Index(sizeof(alphabet) - 1)];
    }
    ExpectSameResultAllOptions(text, &tally);
  }
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.failed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvDifferentialSoupTest,
                         testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace qagview::storage
