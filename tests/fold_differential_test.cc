// Fold ≡ cold: a grouped execution carried forward over appended rows
// (sql::FoldAppendedRows, and the QueryService refreshes built on it)
// returns exactly what a cold run over a row-by-row copy of the whole table
// returns -- cell for cell, and as an answer set, by content fingerprint.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "core/answer_set.h"
#include "service/query_service.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "test_util.h"

namespace qagview::sql {
namespace {

using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;
using Rows = std::vector<std::vector<Value>>;

Schema FoldSchema() {
  return Schema({{"s0", ValueType::kString},
                 {"s1", ValueType::kString},
                 {"i0", ValueType::kInt64},
                 {"d0", ValueType::kDouble},
                 {"big", ValueType::kInt64},
                 {"v", ValueType::kDouble},
                 {"w", ValueType::kInt64}});
}

// Key columns s0, s1 (strings), i0 (int64, -1 often), d0 (double: -0.0
// beside 0.0, NaN) and big (int64s that convert to one double); measures v
// (double, sometimes NaN) and w (int64); every column with NULLs. Each
// domain is small, so a batch usually brings no key the table lacks; with
// `novel` set a row does: a new s0 string or a new i0 value.
Rows RandomRows(Rng& rng, int count, bool novel = false) {
  const double kD0[] = {-1.5, -0.0, 0.0, 0.5, std::nan("")};
  Rows rows;
  for (int r = 0; r < count; ++r) {
    auto null = [&rng](int one_in) { return rng.Index(one_in) == 0; };
    std::vector<Value> row;
    row.push_back(null(9) ? Value::Null()
                          : Value::Str(StrCat("a", rng.Index(4))));
    row.push_back(null(11) ? Value::Null()
                           : Value::Str(StrCat("b", rng.Index(6))));
    row.push_back(null(10) ? Value::Null() : Value::Int(rng.Uniform(-1, 2)));
    row.push_back(null(10) ? Value::Null()
                           : Value::Real(kD0[rng.Index(std::size(kD0))]));
    row.push_back(null(6) ? Value::Null()
                          : Value::Int((int64_t{1} << 60) + rng.Index(3)));
    row.push_back(null(8)     ? Value::Null()
                  : null(100) ? Value::Real(std::nan(""))
                              : Value::Real(rng.Gaussian(1.0, 4.0)));
    row.push_back(null(7) ? Value::Null() : Value::Int(rng.Uniform(-50, 50)));
    rows.push_back(std::move(row));
  }
  if (novel && !rows.empty()) {
    std::vector<Value>& row = rows[rng.Index(static_cast<int64_t>(rows.size()))];
    if (rng.Index(2) == 0) {
      row[0] = Value::Str(StrCat("new", rng.Index(1000000)));
    } else {
      row[2] = Value::Int(100 + rng.Index(1000000));
    }
  }
  return rows;
}

Table TableOf(const Rows& rows) {
  Table table(FoldSchema());
  QAG_CHECK_OK(table.AppendRows(rows));
  return table;
}

// A random query over FoldSchema: 0-3 grouping columns; count(*), count,
// sum, avg, min and max over bare and expression arguments (strings too);
// sometimes an expression over aggregates, WHERE, HAVING, ORDER BY with
// ties, LIMIT.
std::string RandomQuery(Rng& rng) {
  const char* const kKeys[] = {"s0", "s1", "i0", "d0", "big"};
  std::vector<std::string> group;
  const int num_keys = static_cast<int>(rng.Index(4));
  for (int k = 0; k < num_keys; ++k) {
    const std::string col = kKeys[rng.Index(std::size(kKeys))];
    if (std::find(group.begin(), group.end(), col) == group.end()) {
      group.push_back(col);
    }
  }
  const char* const kAggs[] = {
      "count(*)",   "count(v)",    "count(s1)",   "count(i0 * 2)",
      "sum(v)",     "sum(w)",      "sum(v * 2)",  "avg(v)",
      "avg(w + i0)", "min(v)",     "max(v)",      "min(s1)",
      "max(s0)",    "min(i0 * 3)", "max(d0 - 1)", "min(big)",
      "max(big)",   "min(w / 4)",  "max(v + w)",  "sum(big)",
  };
  std::vector<std::string> items = group;
  std::vector<std::string> aliases = group;
  const int num_aggs = 1 + static_cast<int>(rng.Index(3));
  for (int a = 0; a < num_aggs; ++a) {
    items.push_back(StrCat(kAggs[rng.Index(std::size(kAggs))], " AS m", a));
    aliases.push_back(StrCat("m", a));
  }
  if (rng.Index(4) == 0) {
    items.push_back("sum(v) / count(*) AS ratio");
    aliases.push_back("ratio");
  }
  std::string sql = "SELECT " + Join(items, ", ") + " FROM t";
  switch (rng.Index(4)) {
    case 0:
      sql += " WHERE i0 >= 0";
      break;
    case 1:
      sql += " WHERE s1 <> 'b2' AND w > -30";
      break;
    default:
      break;
  }
  if (!group.empty()) sql += " GROUP BY " + Join(group, ", ");
  switch (rng.Index(4)) {
    case 0:
      sql += " HAVING count(*) > 2";
      break;
    case 1:
      sql += " HAVING sum(v) > 0 OR count(*) < 3";
      break;
    default:
      break;
  }
  if (rng.Index(3) != 0) {
    sql += " ORDER BY " + aliases[rng.Index(aliases.size())] +
           (rng.Index(2) ? " DESC" : "");
    if (rng.Index(2)) sql += ", " + aliases[rng.Index(aliases.size())];
  }
  if (rng.Index(3) == 0) sql += StrCat(" LIMIT ", rng.Index(12));
  return sql;
}

// A cold run of `sql` over a row-by-row copy of `table`.
Table ColdRun(const std::string& sql, const Table& table) {
  const Table copy = testutil::RowByRowCopy(table);
  Catalog catalog;
  catalog.Register("t", &copy);
  Result<Table> result = ExecuteSql(sql, catalog);
  QAG_CHECK(result.ok()) << sql << ": " << result.status().ToString();
  return std::move(result).value();
}

// The two results as answer sets ranked by m0: both fail alike, or both
// build with one content fingerprint.
void ExpectSameAnswers(const Table& want, const Table& got,
                       const std::string& what) {
  Result<core::AnswerSet> a = core::AnswerSet::FromTable(want, "m0");
  Result<core::AnswerSet> b = core::AnswerSet::FromTable(got, "m0");
  ASSERT_EQ(a.ok(), b.ok()) << what;
  if (!a.ok()) {
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << what;
    return;
  }
  EXPECT_EQ(a->content_fingerprint(), b->content_fingerprint()) << what;
  EXPECT_TRUE(a->SameContent(*b)) << what;
}

class FoldDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FoldDifferentialTest, FoldEqualsColdOverRandomQueries) {
  Rng rng(GetParam());
  int folds = 0;
  int fallbacks = 0;
  for (int q = 0; q < 40; ++q) {
    const std::string sql = RandomQuery(rng);
    Result<SelectStatement> stmt = Parser::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    Table table = TableOf(RandomRows(rng, static_cast<int>(rng.Index(300))));
    std::shared_ptr<GroupedState> state;
    {
      Catalog catalog;
      catalog.Register("t", &table);
      Result<Table> first = ExecuteSelectRetained(*stmt, catalog, &state);
      ASSERT_TRUE(first.ok()) << sql << ": " << first.status().ToString();
      ASSERT_EQ(testutil::TableDiff(ColdRun(sql, table), *first), "") << sql;
      ASSERT_NE(state, nullptr) << sql;
    }
    for (int b = 0; b < 5; ++b) {
      const Rows batch = RandomRows(rng, static_cast<int>(rng.Index(40)),
                                    /*novel=*/rng.Index(5) == 0);
      Table next = table.Clone();
      QAG_CHECK_OK(next.AppendRows(batch));
      table = std::move(next);
      Catalog catalog;
      catalog.Register("t", &table);
      const std::string what = StrCat(sql, " after batch ", b);
      Result<std::optional<Table>> folded =
          FoldAppendedRows(*stmt, catalog, state.get());
      ASSERT_TRUE(folded.ok()) << what << ": " << folded.status().ToString();
      Table got(FoldSchema());
      if (folded->has_value()) {
        ++folds;
        got = std::move(**folded);
      } else {
        ++fallbacks;
        Result<Table> full = ExecuteSelectRetained(*stmt, catalog, &state);
        ASSERT_TRUE(full.ok()) << what;
        ASSERT_NE(state, nullptr) << what;
        got = std::move(full).value();
      }
      const Table want = ColdRun(sql, table);
      ASSERT_EQ(testutil::TableDiff(want, got), "") << what;
      ASSERT_NO_FATAL_FAILURE(ExpectSameAnswers(want, got, what));
    }
  }
  EXPECT_GT(folds, 0);
  EXPECT_GT(fallbacks, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldDifferentialTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// A grouping value outside a frozen code space -- a string new to the
// dictionary, an int64 or double the groups never had -- cannot be folded:
// the fold says so and leaves its state as it was, so the same state still
// folds a batch that brings no new key.
TEST(FoldTest, NewKeysFallBackAndLeaveTheStateUnchanged) {
  Rng rng(7);
  const Table base = TableOf(RandomRows(rng, 200));
  const Rows plain = RandomRows(rng, 30);
  struct Case {
    const char* sql;
    int column;
    Value value;
  };
  const Case cases[] = {
      {"SELECT s0, avg(v) AS m0 FROM t GROUP BY s0 ORDER BY m0 DESC", 0,
       Value::Str("a-new")},
      {"SELECT i0, s1, sum(v) AS m0 FROM t GROUP BY i0, s1", 2,
       Value::Int(42)},
      {"SELECT d0, count(*) AS m0 FROM t GROUP BY d0", 3, Value::Real(9.5)},
  };
  for (const Case& c : cases) {
    Result<SelectStatement> stmt = Parser::ParseSelect(c.sql);
    ASSERT_TRUE(stmt.ok());
    std::shared_ptr<GroupedState> state;
    {
      Catalog catalog;
      catalog.Register("t", &base);
      ASSERT_TRUE(ExecuteSelectRetained(*stmt, catalog, &state).ok());
      ASSERT_NE(state, nullptr);
    }
    Rows novel = plain;
    novel[5][static_cast<size_t>(c.column)] = c.value;
    Table grown = base.Clone();
    QAG_CHECK_OK(grown.AppendRows(novel));
    {
      Catalog catalog;
      catalog.Register("t", &grown);
      Result<std::optional<Table>> folded =
          FoldAppendedRows(*stmt, catalog, state.get());
      ASSERT_TRUE(folded.ok());
      EXPECT_FALSE(folded->has_value()) << c.sql;
    }
    Table other = base.Clone();
    QAG_CHECK_OK(other.AppendRows(plain));
    Catalog catalog;
    catalog.Register("t", &other);
    Result<std::optional<Table>> folded =
        FoldAppendedRows(*stmt, catalog, state.get());
    ASSERT_TRUE(folded.ok());
    ASSERT_TRUE(folded->has_value()) << c.sql;
    EXPECT_EQ(testutil::TableDiff(ColdRun(c.sql, other), **folded), "")
        << c.sql;
  }
}

// A new string outside the grouping columns copies a dictionary but folds:
// the grouping code spaces did not move.
TEST(FoldTest, NewStringInAnArgumentColumnStillFolds) {
  Rng rng(11);
  Table table = TableOf(RandomRows(rng, 150));
  const std::string sql =
      "SELECT s0, min(s1) AS m0, max(s1) AS m1 FROM t GROUP BY s0";
  Result<SelectStatement> stmt = Parser::ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  std::shared_ptr<GroupedState> state;
  {
    Catalog catalog;
    catalog.Register("t", &table);
    ASSERT_TRUE(ExecuteSelectRetained(*stmt, catalog, &state).ok());
  }
  Rows batch = RandomRows(rng, 20);
  batch[3][1] = Value::Str("a0000");  // sorts first: a new min
  batch[9][1] = Value::Str("zzz");    // sorts last: a new max
  Table next = table.Clone();
  QAG_CHECK_OK(next.AppendRows(batch));
  EXPECT_NE(&next.column(1).dictionary(), &table.column(1).dictionary());
  Catalog catalog;
  catalog.Register("t", &next);
  Result<std::optional<Table>> folded =
      FoldAppendedRows(*stmt, catalog, state.get());
  ASSERT_TRUE(folded.ok());
  ASSERT_TRUE(folded->has_value());
  EXPECT_EQ(testutil::TableDiff(ColdRun(sql, next), **folded), "");
}

// Service level: handles refreshed across appends -- the first exact
// refresh keeps the grouped state, later ones fold into it -- with new
// keys and a ReplaceTable (a new lineage) between appends, answer exactly
// as a fresh service over the final rows.
TEST(FoldServiceTest, RefreshedHandlesEqualFreshServices) {
  Rng rng(23);
  const std::vector<std::string> queries = {
      "SELECT s0, s1, i0, avg(v) AS val FROM t GROUP BY s0, s1, i0 "
      "ORDER BY val DESC",
      "SELECT s0, d0, sum(v * 2) AS val, max(s1) AS hi FROM t "
      "WHERE w > -40 GROUP BY s0, d0 HAVING count(*) > 1",
      "SELECT i0, big, count(*) AS val FROM t GROUP BY i0, big "
      "ORDER BY val DESC LIMIT 6",
  };
  Rows rows = RandomRows(rng, 400);
  service::QueryService svc;
  QAG_CHECK_OK(svc.RegisterTable("t", TableOf(rows)));
  std::vector<service::QueryHandle> handles;
  for (const std::string& sql : queries) {
    service::QueryRequest request;
    request.sql = sql;
    request.value_column = "val";
    Result<service::QueryResponse> response = svc.Query(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    handles.push_back(response->handle);
  }
  for (int step = 0; step < 12; ++step) {
    if (step == 6) {
      // More rows than the old lineage has: only the lineage tells the
      // refresh that these are not appended rows.
      rows = RandomRows(rng, 900);
      ASSERT_TRUE(svc.ReplaceTable("t", TableOf(rows)).ok());
    } else {
      const Rows batch = RandomRows(rng, 1 + static_cast<int>(rng.Index(60)),
                                    /*novel=*/step % 4 == 3);
      service::AppendRowsRequest append;
      append.dataset = "t";
      append.rows = batch;
      ASSERT_TRUE(svc.AppendRows(append).ok());
      rows.insert(rows.end(), batch.begin(), batch.end());
    }
    service::QueryService fresh;
    QAG_CHECK_OK(fresh.RegisterTable("t", TableOf(rows)));
    for (size_t q = 0; q < queries.size(); ++q) {
      Result<std::shared_ptr<const core::AnswerSet>> got =
          svc.Answers(handles[q]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      service::QueryRequest request;
      request.sql = queries[q];
      request.value_column = "val";
      Result<service::QueryResponse> cold = fresh.Query(request);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<std::shared_ptr<const core::AnswerSet>> want =
          fresh.Answers(cold->handle);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ((*want)->content_fingerprint(), (*got)->content_fingerprint())
          << "query " << q << " step " << step;
      EXPECT_TRUE((*want)->SameContent(**got))
          << "query " << q << " step " << step;
    }
  }
}

}  // namespace
}  // namespace qagview::sql
