#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/csv.h"
#include "storage/dictionary.h"
#include "storage/sample.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "test_util.h"

namespace qagview::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::Str("hi").as_string(), "hi");
  EXPECT_EQ(Value::Bool(true).as_int(), 1);
  EXPECT_EQ(Value::Bool(false).as_int(), 0);
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value::Int(3).ToDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).ToDouble(), 3.5);
  EXPECT_TRUE(Value::Int(1) == Value::Real(1.0));
  EXPECT_FALSE(Value::Int(1) == Value::Real(1.5));
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::Null().IsTruthy());
  EXPECT_FALSE(Value::Int(0).IsTruthy());
  EXPECT_TRUE(Value::Int(-2).IsTruthy());
  EXPECT_FALSE(Value::Real(0.0).IsTruthy());
  EXPECT_TRUE(Value::Str("x").IsTruthy());
  EXPECT_FALSE(Value::Str("").IsTruthy());
}

TEST(ValueTest, CompareOrdersNumericsAndStrings) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_GT(Value::Real(2.5).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::Str("abc").Compare(Value::Str("abd")), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Real(3.0).ToString(), "3");  // integral double
  EXPECT_EQ(Value::Str("abc").ToString(), "abc");
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema({{"Alpha", ValueType::kInt64}, {"beta", ValueType::kString}});
  EXPECT_EQ(schema.num_fields(), 2);
  EXPECT_EQ(schema.FindField("alpha"), 0);
  EXPECT_EQ(schema.FindField("BETA"), 1);
  EXPECT_EQ(schema.FindField("gamma"), -1);
  EXPECT_TRUE(schema.GetFieldIndex("beta").ok());
  EXPECT_FALSE(schema.GetFieldIndex("gamma").ok());
}

TEST(DictionaryTest, InternsAndRoundTrips) {
  Dictionary dict;
  int32_t a = dict.Intern("apple");
  int32_t b = dict.Intern("banana");
  EXPECT_EQ(dict.Intern("apple"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.GetString(a), "apple");
  EXPECT_EQ(dict.GetString(b), "banana");
  EXPECT_EQ(dict.Find("banana").value_or(-1), b);
  EXPECT_FALSE(dict.Find("cherry").has_value());
}

TEST(ColumnTest, TypedStorageAndNulls) {
  Column col(ValueType::kString);
  col.AppendString("x");
  col.AppendNull();
  col.AppendString("x");
  col.AppendString("y");
  EXPECT_EQ(col.size(), 4);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetString(0), "x");
  EXPECT_EQ(col.GetStringCode(0), col.GetStringCode(2));
  EXPECT_NE(col.GetStringCode(0), col.GetStringCode(3));
  EXPECT_EQ(col.dictionary().size(), 2);
  EXPECT_TRUE(col.Get(1).is_null());
}

TEST(ColumnTest, IntIntoDoubleColumn) {
  Column col(ValueType::kDouble);
  col.Append(Value::Int(3));
  col.Append(Value::Real(1.5));
  EXPECT_DOUBLE_EQ(col.GetDouble(0), 3.0);
  EXPECT_DOUBLE_EQ(col.GetDouble(1), 1.5);
}

TEST(ColumnTest, TakeGathersAndCompactsTheDictionary) {
  Column col(ValueType::kString);
  for (const char* s : {"a", "b", "c", "d"}) col.AppendString(s);
  col.AppendNull();
  Column taken = col.Take({3, -1, 1, 3, 4});
  ASSERT_EQ(taken.size(), 5);
  EXPECT_EQ(taken.GetString(0), "d");
  EXPECT_TRUE(taken.IsNull(1));  // negative index
  EXPECT_EQ(taken.GetString(2), "b");
  EXPECT_TRUE(taken.IsNull(4));  // NULL cell
  // Only the used strings, coded in first-use order.
  EXPECT_EQ(taken.dictionary().size(), 2);
  EXPECT_EQ(taken.GetStringCode(0), 0);
  EXPECT_EQ(taken.GetStringCode(2), 1);
  EXPECT_EQ(taken.GetStringCode(3), 0);

  Column ints(ValueType::kInt64);
  ints.AppendInt(7);
  ints.AppendNull();
  Column took = ints.Take({1, 0});
  EXPECT_TRUE(took.IsNull(0));
  EXPECT_EQ(took.GetInt(1), 7);
  EXPECT_EQ(std::vector<uint8_t>(took.validity().begin(),
                                 took.validity().end()),
            (std::vector<uint8_t>{0, 1}));
}

TEST(ColumnTest, ClonesShareStorageAndKeepValueSemantics) {
  Column base(ValueType::kInt64);
  for (int i = 0; i < 10; ++i) base.AppendInt(i);
  Column grown = base.Clone();
  EXPECT_EQ(grown.ints().data(), base.ints().data());  // a share, no copy
  ASSERT_GE(base.capacity(), 11);
  // The clone ends at the frontier: it appends in place.
  grown.AppendInt(10);
  grown.AppendNull();
  EXPECT_EQ(grown.ints().data(), base.ints().data());
  EXPECT_EQ(grown.validity().data(), base.validity().data());
  EXPECT_EQ(base.size(), 10);
  // The source no longer does: its append moves it to storage of its own.
  base.AppendInt(-1);
  EXPECT_NE(base.ints().data(), grown.ints().data());
  ASSERT_EQ(base.size(), 11);
  ASSERT_EQ(grown.size(), 12);
  EXPECT_EQ(base.GetInt(10), -1);
  EXPECT_EQ(grown.GetInt(10), 10);
  EXPECT_TRUE(grown.IsNull(11));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(base.GetInt(i), i);
    EXPECT_EQ(grown.GetInt(i), i);
  }
  // A full buffer moves to one of at least twice the capacity.
  Column full = grown.Clone();
  const int64_t capacity = full.capacity();
  while (full.size() < capacity) full.AppendInt(0);
  EXPECT_EQ(full.ints().data(), grown.ints().data());
  full.AppendInt(7);
  EXPECT_NE(full.ints().data(), grown.ints().data());
  EXPECT_GE(full.capacity(), 2 * capacity);
  EXPECT_EQ(full.GetInt(capacity), 7);
  EXPECT_EQ(grown.size(), 12);
}

TEST(ColumnTest, StringClonesCopyTheDictionaryOnlyToInternNewStrings) {
  Column base(ValueType::kString);
  base.AppendString("a");
  base.AppendString("b");
  Column same = base.Clone();
  same.AppendString("a");  // a known string: the dictionary stays shared
  EXPECT_EQ(&same.dictionary(), &base.dictionary());
  Column more = same.Clone();
  more.AppendString("c");  // a new string: copied before interning
  EXPECT_NE(&more.dictionary(), &same.dictionary());
  EXPECT_EQ(more.codes().data(), same.codes().data());  // cells still shared
  EXPECT_EQ(same.dictionary().size(), 2);
  EXPECT_FALSE(same.dictionary().Find("c").has_value());
  ASSERT_EQ(more.dictionary().size(), 3);
  EXPECT_EQ(more.GetStringCode(0), base.GetStringCode(0));
  EXPECT_EQ(more.GetStringCode(1), base.GetStringCode(1));
  EXPECT_EQ(more.GetString(3), "c");
  // A dictionary no other column uses is interned into in place.
  const Dictionary* own = &more.dictionary();
  more.AppendString("d");
  EXPECT_EQ(&more.dictionary(), own);
}

Table MakeSmallTable() {
  Schema schema({{"name", ValueType::kString},
                 {"age", ValueType::kInt64},
                 {"score", ValueType::kDouble}});
  Table t(schema);
  QAG_CHECK_OK(t.AppendRow({Value::Str("ann"), Value::Int(30), Value::Real(3.5)}));
  QAG_CHECK_OK(t.AppendRow({Value::Str("bob"), Value::Int(25), Value::Real(4.0)}));
  QAG_CHECK_OK(t.AppendRow({Value::Str("cat"), Value::Null(), Value::Real(2.0)}));
  return t;
}

TEST(TableTest, AppendAndGet) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.Get(0, 0).as_string(), "ann");
  EXPECT_EQ(t.Get(1, 1).as_int(), 25);
  EXPECT_TRUE(t.Get(2, 1).is_null());
  std::vector<Value> row = t.GetRow(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].as_string(), "bob");
}

TEST(TableTest, CloneThenAppendLeavesTheSourceUnchanged) {
  Table t = MakeSmallTable();
  const Table before = testutil::RowByRowCopy(t);
  Table next = t.Clone();
  QAG_CHECK_OK(next.AppendRows(
      {{Value::Str("dan"), Value::Int(41), Value::Real(1.0)},
       {Value::Str("ann"), Value::Null(), Value::Int(2)}}));
  ASSERT_EQ(next.num_rows(), 5);
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(next.column(c).validity().data(), t.column(c).validity().data())
        << "column " << c << " was copied";
  }
  EXPECT_EQ(testutil::TableDiff(before, t), "");
  EXPECT_EQ(next.Get(3, 0).as_string(), "dan");
  EXPECT_DOUBLE_EQ(next.Get(4, 2).as_double(), 2.0);
  // A rejected batch leaves the clone unchanged too.
  EXPECT_FALSE(next.AppendRows({{Value::Int(1), Value::Int(1), Value::Real(1)}})
                   .ok());
  EXPECT_EQ(next.num_rows(), 5);
}

TEST(TableTest, AppendRowValidation) {
  Table t = MakeSmallTable();
  EXPECT_FALSE(t.AppendRow({Value::Str("x")}).ok());  // arity
  EXPECT_FALSE(
      t.AppendRow({Value::Int(1), Value::Int(2), Value::Real(3.0)}).ok());
  EXPECT_EQ(t.num_rows(), 3);  // failed appends change nothing
}

TEST(TableTest, FromColumnsAssemblesWholeColumns) {
  Table t = MakeSmallTable();
  std::vector<Column> columns;
  for (int c = 0; c < t.num_columns(); ++c) {
    columns.push_back(t.column(c).Take({2, 0}));
  }
  Table u = Table::FromColumns(t.schema(), std::move(columns));
  EXPECT_EQ(u.num_rows(), 2);
  EXPECT_EQ(u.Get(0, 0).as_string(), "cat");
  EXPECT_TRUE(u.Get(0, 1).is_null());
  EXPECT_DOUBLE_EQ(u.Get(1, 2).as_double(), 3.5);
}

TEST(TableTest, ToStringRendersHeader) {
  Table t = MakeSmallTable();
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("ann"), std::string::npos);
}

TEST(CsvTest, ParseWithTypeInference) {
  auto table = ReadCsvString("a,b,c\n1,2.5,x\n2,3,y\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->schema().field(0).type, ValueType::kInt64);
  EXPECT_EQ(table->schema().field(1).type, ValueType::kDouble);
  EXPECT_EQ(table->schema().field(2).type, ValueType::kString);
  EXPECT_EQ(table->Get(1, 2).as_string(), "y");
}

TEST(CsvTest, EmptyCellsBecomeNull) {
  auto table = ReadCsvString("a,b\n1,\n,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->Get(0, 1).is_null());
  EXPECT_TRUE(table->Get(1, 0).is_null());
  EXPECT_EQ(table->Get(1, 1).as_int(), 2);
}

TEST(CsvTest, QuotedCells) {
  auto table = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->Get(0, 0).as_string(), "x,y");
  EXPECT_EQ(table->Get(0, 1).as_string(), "he said \"hi\"");
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsvString("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().field(0).name, "c0");
  EXPECT_EQ(table->num_rows(), 2);
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());          // ragged row
  EXPECT_FALSE(ReadCsvString("a\n\"unterminated\n").ok());
}

TEST(CsvTest, RoundTrip) {
  Table t = MakeSmallTable();
  std::string text = WriteCsvString(t);
  auto parsed = ReadCsvString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), t.num_rows());
  EXPECT_EQ(parsed->Get(0, 0).as_string(), "ann");
  EXPECT_TRUE(parsed->Get(2, 1).is_null());
  EXPECT_DOUBLE_EQ(parsed->Get(1, 2).ToDouble(), 4.0);

  // One column: an empty cell is written as "", not as a blank line the
  // reader would skip.
  Table one(Schema({{"n", ValueType::kInt64}}));
  ASSERT_TRUE(one.AppendRow({Value::Int(1)}).ok());
  ASSERT_TRUE(one.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(one.AppendRow({Value::Int(3)}).ok());
  auto one_parsed = ReadCsvString(WriteCsvString(one));
  ASSERT_TRUE(one_parsed.ok()) << one_parsed.status().ToString();
  ASSERT_EQ(one_parsed->num_rows(), 3);
  EXPECT_EQ(one_parsed->schema().field(0).type, ValueType::kInt64);
  EXPECT_EQ(one_parsed->Get(0, 0).as_int(), 1);
  EXPECT_TRUE(one_parsed->Get(1, 0).is_null());
  EXPECT_EQ(one_parsed->Get(2, 0).as_int(), 3);
}

TEST(CsvTest, FileRoundTrip) {
  Table t = MakeSmallTable();
  std::string path = testing::TempDir() + "/qagview_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 3);
  EXPECT_FALSE(ReadCsvFile("/nonexistent/nope.csv").ok());

  // A directory is not a regular file: an IOError naming the path.
  auto dir = ReadCsvFile(testing::TempDir());
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.status().code(), StatusCode::kIOError);
  EXPECT_NE(dir.status().message().find(testing::TempDir()),
            std::string::npos)
      << dir.status().ToString();
}

// The catalog's sample of each version -- Column::Take over a RowReservoir's
// ids -- equals the boxed ReservoirSampler fed the same stream, cell for
// cell, whether the stream arrives as a table or in batches.
TEST(SampleTest, TakeOverReservoirIdsEqualsSamplerSnapshot) {
  testutil::RandomTableSpec spec;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (int base_rows : {0, 100, 3000}) {
      Table table = testutil::MakeRandomTable(spec, seed, base_rows);
      ReservoirSampler sampler(table.schema(), 256, seed);
      sampler.AddTable(table);
      RowReservoir reservoir(256, seed);
      reservoir.Feed(table.num_rows());
      for (int b = 0; b < 6; ++b) {
        std::shared_ptr<const TableSample> want = sampler.Snapshot();
        std::shared_ptr<const TableSample> got =
            TakeSample(table, reservoir.ids());
        ASSERT_EQ(testutil::TableDiff(want->rows, got->rows), "")
            << "seed " << seed << " base " << base_rows << " batch " << b;
        ASSERT_EQ(want->population_rows, got->population_rows);
        const auto batch = testutil::MakeRandomRows(
            spec, seed * 100 + static_cast<uint64_t>(b), b * 60);
        for (const auto& row : batch) sampler.Add(row);
        Table next = table.Clone();
        QAG_CHECK_OK(next.AppendRows(batch));
        table = std::move(next);
        reservoir.Feed(static_cast<int64_t>(batch.size()));
      }
    }
  }
}

}  // namespace
}  // namespace qagview::storage
