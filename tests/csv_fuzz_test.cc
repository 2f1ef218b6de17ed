// Fuzz-style corpus test for storage/csv, mirroring sql_fuzz_test's
// philosophy: malformed quoting, embedded delimiters, over-wide and
// under-wide rows, stray carriage returns, and random byte soups must come
// back as clean Status errors or well-formed tables — never crashes,
// CHECK failures, or silent truncation.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/csv.h"

namespace qagview::storage {
namespace {

// --- Hand-written corpus -------------------------------------------------

struct CorpusCase {
  const char* name;
  const char* text;
  /// Expected row count when the parse must succeed; -1 = must fail.
  int expect_rows;
};

const CorpusCase kCorpus[] = {
    {"plain", "a,b\n1,2\n3,4\n", 2},
    {"trailing_newlines", "a,b\n1,2\n\n\n", 1},
    {"no_final_newline", "a,b\n1,2", 1},
    {"crlf", "a,b\r\n1,2\r\n", 1},
    {"lone_cr_line", "a,b\n\r\n1,2\n", 1},
    {"quoted_delimiter", "a,b\n\"x,y\",2\n", 1},
    {"quoted_quote", "a,b\n\"he said \"\"hi\"\"\",2\n", 1},
    {"quote_then_junk", "a,b\n\"x\"tail,2\n", 1},
    {"empty_cells", "a,b\n,\n1,\n", 2},
    {"trailing_separator", "a,b,\n1,2,\n", 1},
    {"unterminated_quote", "a,b\n\"oops,2\n", -1},
    {"over_wide_row", "a,b\n1,2,3\n", -1},
    {"under_wide_row", "a,b\n1\n", -1},
    {"empty_input", "", -1},
    {"only_blank_lines", "\n\n\n", -1},
    {"header_only", "a,b\n", 0},
    {"huge_integer_overflows_to_double_or_string",
     "a\n99999999999999999999\n", 1},
    {"mixed_types_fall_back_to_string", "a\n1\nx\n2.5\n", 3},
    {"embedded_newline_in_quotes_stays_in_the_field", "a,b\n\"x\ny\",2\n",
     1},
    {"embedded_crlf_in_quotes", "a,b\r\n\"x\r\ny\",2\r\n", 1},
    {"quoted_newline_left_open", "a,b\n\"x\ny,2\n", -1},
    {"duplicate_header_names", "a,a\n1,2\n", 1},
    {"empty_header_name", ",b\n1,2\n", 1},
    {"unicode_bytes", "a,b\n\xc3\xa9,\xf0\x9f\x99\x82\n", 1},
};

TEST(CsvFuzzTest, CorpusParsesOrFailsCleanly) {
  for (const CorpusCase& c : kCorpus) {
    SCOPED_TRACE(c.name);
    auto table = ReadCsvString(c.text);
    if (c.expect_rows < 0) {
      EXPECT_FALSE(table.ok()) << table->ToString();
      continue;
    }
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    // No silent truncation: exactly the expected number of data rows.
    EXPECT_EQ(table->num_rows(), c.expect_rows);
  }
}

TEST(CsvFuzzTest, QuotedLineBreaksStayInTheField) {
  auto table = ReadCsvString("a,b\n\"x\ny\",\"p\r\nq\"\r\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 1);
  EXPECT_EQ(table->Get(0, 0).as_string(), "x\ny");
  EXPECT_EQ(table->Get(0, 1).as_string(), "p\r\nq");
}

// An unterminated quote runs to the end of the input; the error names the
// line where it opened and quotes only the start of that line.
TEST(CsvFuzzTest, UnterminatedQuoteErrorStaysShort) {
  std::string text = "a,b\n1,2\n\"oops" + std::string(100, 'z') + ",2\n";
  while (text.size() < (1u << 20)) text += "1,2\n";
  auto table = ReadCsvString(text);
  ASSERT_FALSE(table.ok());
  const std::string& message = table.status().message();
  EXPECT_LT(message.size(), 200u) << message;
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("\"oops"), std::string::npos) << message;
}

TEST(CsvFuzzTest, RoundTripIsStable) {
  // Write(Read(x)) reparses to an identical table: same schema, same
  // cells. Quoting-sensitive content included.
  const std::string text =
      "name,score,note\n"
      "\"comma, inc\",1.5,plain\n"
      "quote\"\"y,2,\"tail\"\n"
      ",3,\n"
      "\"two\nlines\",4,\"crlf\r\nend\"\n"
      "lone\r,5,\"cr\r\"\n";
  auto first = ReadCsvString(text);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string written = WriteCsvString(*first);
  auto second = ReadCsvString(written);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(first->schema() == second->schema());
  ASSERT_EQ(first->num_rows(), second->num_rows());
  for (int64_t r = 0; r < first->num_rows(); ++r) {
    for (int col = 0; col < first->num_columns(); ++col) {
      EXPECT_TRUE(first->Get(r, col) == second->Get(r, col))
          << "row " << r << " col " << col;
    }
  }
}

// --- Randomized soups ----------------------------------------------------

class CsvRandomFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CsvRandomFuzzTest, RandomByteSoupsNeverCrash) {
  Rng rng(GetParam());
  const char alphabet[] = "ab,\"\n\r0129.x -;\t";
  constexpr int kDocs = 300;
  int parsed_ok = 0;
  for (int doc = 0; doc < kDocs; ++doc) {
    std::string text;
    int length = static_cast<int>(rng.Index(160));
    for (int i = 0; i < length; ++i) {
      text += alphabet[rng.Index(sizeof(alphabet) - 1)];
    }
    auto table = ReadCsvString(text);  // must not crash or hang
    if (table.ok()) {
      ++parsed_ok;
      // Whatever parsed must round-trip without crashing either.
      (void)WriteCsvString(*table);
    }
  }
  EXPECT_GE(parsed_ok, 0);
}

TEST_P(CsvRandomFuzzTest, MutatedValidCsvNeverCrashes) {
  Rng rng(GetParam() ^ 0xC5F);
  const std::string base =
      "g0,g1,rating\n\"a,x\",b,1.5\nc,\"d\"\"e\",2\nf,g,\n";
  for (int doc = 0; doc < 200; ++doc) {
    std::string text = base;
    int mutations = 1 + static_cast<int>(rng.Index(4));
    for (int mu = 0; mu < mutations && !text.empty(); ++mu) {
      size_t pos = rng.Index(text.size());
      switch (rng.Index(3)) {
        case 0:
          text.erase(pos, 1);
          break;
        case 1:
          text.insert(pos, 1, text[pos]);
          break;
        default:
          text[pos] = static_cast<char>(' ' + rng.Index(95));
      }
    }
    auto table = ReadCsvString(text);
    if (table.ok()) (void)WriteCsvString(*table);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRandomFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace qagview::storage
