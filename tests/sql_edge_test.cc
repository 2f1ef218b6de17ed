// Executor edge semantics: NULL handling end-to-end, type coercion,
// multi-key ordering, case-insensitivity, and unsupported-syntax errors.
// (Core template coverage lives in sql_test.cc.)

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sql/executor.h"
#include "storage/table.h"

namespace qagview::sql {
namespace {

using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

// g | x    | y     — exercises NULLs in a grouping column, an INT64
// a | 1    | 1.5     aggregate input, and a DOUBLE aggregate input.
// a | NULL | 2.5
// b | 3    | NULL
// ∅ | 4    | 4.5
Table MakeNullTable() {
  Schema schema({{"g", ValueType::kString},
                 {"x", ValueType::kInt64},
                 {"y", ValueType::kDouble}});
  Table t(schema);
  QAG_CHECK_OK(t.AppendRow({Value::Str("a"), Value::Int(1), Value::Real(1.5)}));
  QAG_CHECK_OK(t.AppendRow({Value::Str("a"), Value::Null(), Value::Real(2.5)}));
  QAG_CHECK_OK(t.AppendRow({Value::Str("b"), Value::Int(3), Value::Null()}));
  QAG_CHECK_OK(t.AppendRow({Value::Null(), Value::Int(4), Value::Real(4.5)}));
  return t;
}

class SqlEdgeTest : public testing::Test {
 protected:
  SqlEdgeTest() : table_(MakeNullTable()) { catalog_.Register("t", &table_); }

  Result<Table> Run(const std::string& query) {
    return ExecuteSql(query, catalog_);
  }

  Table table_;
  Catalog catalog_;
};

TEST_F(SqlEdgeTest, NullFormsItsOwnGroup) {
  auto r = Run("SELECT g, count(*) AS n FROM t GROUP BY g ORDER BY n DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3);
  EXPECT_EQ(r->Get(0, 0).as_string(), "a");
  EXPECT_EQ(r->Get(0, 1).as_int(), 2);
  // One of the two singleton groups is the NULL group.
  EXPECT_TRUE(r->Get(1, 0).is_null() || r->Get(2, 0).is_null());
}

TEST_F(SqlEdgeTest, CountColumnSkipsNullsCountStarDoesNot) {
  auto r = Run("SELECT count(*) AS n, count(x) AS nx, count(y) AS ny FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0).as_int(), 4);
  EXPECT_EQ(r->Get(0, 1).as_int(), 3);
  EXPECT_EQ(r->Get(0, 2).as_int(), 3);
}

TEST_F(SqlEdgeTest, AggregatesSkipNulls) {
  auto r = Run("SELECT sum(x) AS s, avg(y) AS a FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Get(0, 0).ToDouble(), 8.0);   // 1 + 3 + 4
  EXPECT_NEAR(r->Get(0, 1).ToDouble(), (1.5 + 2.5 + 4.5) / 3, 1e-12);
}

TEST_F(SqlEdgeTest, AggregateOverEmptyFilterIsNull) {
  auto r = Run("SELECT sum(y) AS s, min(y) AS lo FROM t WHERE g = 'b'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_TRUE(r->Get(0, 0).is_null());  // the only b row has y = NULL
  EXPECT_TRUE(r->Get(0, 1).is_null());
}

TEST_F(SqlEdgeTest, MinMaxWorkOnStrings) {
  auto r = Run("SELECT min(g) AS lo, max(g) AS hi FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0).as_string(), "a");
  EXPECT_EQ(r->Get(0, 1).as_string(), "b");
}

TEST_F(SqlEdgeTest, SumAndAvgOverStringColumnAreRejected) {
  for (const char* query : {"SELECT x, sum(g) AS s FROM t GROUP BY x",
                            "SELECT x, avg(g) AS a FROM t GROUP BY x",
                            "SELECT sum(g) AS s FROM t",
                            "SELECT x, count(*) AS n FROM t GROUP BY x "
                            "HAVING avg(g) > 1"}) {
    auto r = Run(query);
    ASSERT_FALSE(r.ok()) << query;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << query;
    EXPECT_NE(r.status().message().find("(g)"), std::string::npos)
        << r.status().ToString();
  }
  // A string-valued expression argument is rejected the same way.
  auto literal = Run("SELECT x, sum('s') AS s FROM t GROUP BY x");
  ASSERT_FALSE(literal.ok());
  EXPECT_EQ(literal.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlEdgeTest, CountMinMaxOverStringColumnStillWork) {
  auto r = Run(
      "SELECT x, count(g) AS n, min(g) AS lo, max(g) AS hi FROM t "
      "GROUP BY x ORDER BY x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 4);
  EXPECT_EQ(r->schema().field(2).type, ValueType::kString);
  // x NULL (g 'a'), then x = 1 ('a'), 3 ('b'), 4 (g NULL).
  EXPECT_EQ(r->Get(0, 1).as_int(), 1);
  EXPECT_EQ(r->Get(0, 2).as_string(), "a");
  EXPECT_EQ(r->Get(2, 3).as_string(), "b");
  EXPECT_EQ(r->Get(3, 1).as_int(), 0);
  EXPECT_TRUE(r->Get(3, 2).is_null());
}

TEST_F(SqlEdgeTest, NullComparisonsNeverPass) {
  // Row 2 has x NULL and y 2.5; x > 1 is NULL there, y < 2.0 is false:
  // NULL OR false = NULL, so the row is filtered out.
  auto r = Run("SELECT g, x FROM t WHERE x > 1 OR y < 2.0 ORDER BY x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3);
  // NOT of a NULL comparison stays NULL and filters too.
  auto n = Run("SELECT g, x FROM t WHERE NOT (x > 1)");
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n->num_rows(), 1);
  EXPECT_EQ(n->Get(0, 1).as_int(), 1);
}

TEST_F(SqlEdgeTest, DivisionByZeroYieldsNull) {
  auto r = Run("SELECT x / 0 AS d FROM t LIMIT 1");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Get(0, 0).is_null());
}

TEST_F(SqlEdgeTest, IntPlusDoubleCoercesToDouble) {
  auto r = Run("SELECT x + y AS s FROM t ORDER BY s DESC LIMIT 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().field(0).type, ValueType::kDouble);
  EXPECT_DOUBLE_EQ(r->Get(0, 0).ToDouble(), 8.5);
}

TEST_F(SqlEdgeTest, UnaryMinus) {
  auto r = Run("SELECT -x AS neg FROM t ORDER BY neg LIMIT 4");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 4);
  // NULLs order lowest; then -4 < -3 < -1.
  EXPECT_TRUE(r->Get(0, 0).is_null());
  EXPECT_EQ(r->Get(1, 0).as_int(), -4);
  EXPECT_EQ(r->Get(3, 0).as_int(), -1);
}

TEST_F(SqlEdgeTest, MultiKeyOrderByMixedDirections) {
  auto r = Run("SELECT g, x FROM t ORDER BY g DESC, x ASC");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 4);
  EXPECT_EQ(r->Get(0, 0).as_string(), "b");
  // Within g='a', ascending x puts the NULL x first.
  EXPECT_EQ(r->Get(1, 0).as_string(), "a");
  EXPECT_TRUE(r->Get(1, 1).is_null());
  EXPECT_EQ(r->Get(2, 1).as_int(), 1);
  // NULL group key sorts lowest, so it is last under DESC.
  EXPECT_TRUE(r->Get(3, 0).is_null());
}

TEST_F(SqlEdgeTest, LimitZeroAndLimitBeyondRows) {
  auto zero = Run("SELECT g FROM t ORDER BY g LIMIT 0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->num_rows(), 0);
  auto beyond = Run("SELECT g FROM t ORDER BY g LIMIT 100");
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(beyond->num_rows(), 4);
}

TEST_F(SqlEdgeTest, KeywordsColumnsAndTableNamesAreCaseInsensitive) {
  auto r = Run("select G, COUNT(*) as N from T group by g order by n desc");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 3);
  EXPECT_EQ(r->Get(0, 1).as_int(), 2);
}

TEST_F(SqlEdgeTest, UnsupportedSyntaxFailsCleanly) {
  EXPECT_FALSE(Run("SELECT g || 'x' FROM t").ok());             // concat
  EXPECT_FALSE(Run("SELECT x FROM t WHERE g BETWEEN 'a' AND 'b'").ok());
  EXPECT_FALSE(Run("SELECT * FROM t JOIN t ON 1 = 1").ok());    // joins
  EXPECT_FALSE(Run("SELECT DISTINCT g FROM t").ok());           // distinct
  EXPECT_FALSE(Run("INSERT INTO t VALUES (1)").ok());           // non-select
  EXPECT_FALSE(Run("").ok());
}

TEST_F(SqlEdgeTest, HavingOnAvgAndGroupColumn) {
  auto r = Run(
      "SELECT g, avg(x) AS m FROM t GROUP BY g "
      "HAVING avg(x) >= 1 AND count(*) >= 1 ORDER BY m DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Groups: a -> avg 1, b -> avg 3, NULL -> avg 4. All pass.
  EXPECT_EQ(r->num_rows(), 3);
  EXPECT_DOUBLE_EQ(r->Get(0, 1).ToDouble(), 4.0);
}

TEST_F(SqlEdgeTest, WhereOnStringEquality) {
  auto r = Run("SELECT x FROM t WHERE g = 'a' ORDER BY x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2);
  // The NULL g row never matches equality.
  auto ne = Run("SELECT x FROM t WHERE g <> 'a' ORDER BY x");
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->num_rows(), 1);
  EXPECT_EQ(ne->Get(0, 0).as_int(), 3);
}

// a | b | v   — two string columns next to a double, for static typing:
// p | p | 1     every ill-typed expression must come back as
// p | q | 2     InvalidArgument from compilation, before any row is read.
// p | r | 3
// p | p | 4
// q | q | 5
// q | r | 6
Table MakeTypingTable() {
  Schema schema({{"a", ValueType::kString},
                 {"b", ValueType::kString},
                 {"v", ValueType::kDouble}});
  Table t(schema);
  const char* rows[][2] = {{"p", "p"}, {"p", "q"}, {"p", "r"},
                           {"p", "p"}, {"q", "q"}, {"q", "r"}};
  double v = 1.0;
  for (const auto& row : rows) {
    QAG_CHECK_OK(
        t.AppendRow({Value::Str(row[0]), Value::Str(row[1]), Value::Real(v)}));
    v += 1.0;
  }
  return t;
}

class SqlTypingTest : public testing::Test {
 protected:
  SqlTypingTest() : table_(MakeTypingTable()) {
    catalog_.Register("t", &table_);
  }

  Result<Table> Run(const std::string& query) {
    return ExecuteSql(query, catalog_);
  }

  void ExpectTypeMismatch(const std::string& query,
                          const std::string& expression) {
    auto r = Run(query);
    ASSERT_FALSE(r.ok()) << query;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << query;
    EXPECT_NE(r.status().message().find("type mismatch in " + expression),
              std::string::npos)
        << r.status().ToString();
  }

  Table table_;
  Catalog catalog_;
};

// Each of these aborted the process before compilation typed expressions.
// The last one is rejected even though no row would reach the comparison.
TEST_F(SqlTypingTest, IllTypedExpressionsAreRejected) {
  const std::pair<const char*, const char*> kCases[] = {
      {"SELECT a, sum(v) AS s FROM t WHERE b > 1 GROUP BY a", "(b > 1)"},
      {"SELECT a, avg(v) AS s FROM t GROUP BY a HAVING a > 0", "(a > 0)"},
      {"SELECT a, sum(v) + a AS s FROM t GROUP BY a", "(sum(v) + a)"},
      {"SELECT a, sum(b * 2) AS s FROM t GROUP BY a", "(b * 2)"},
      {"SELECT a, b FROM t WHERE -b = 1", "-(b)"},
      {"SELECT a, b FROM t WHERE v > 100 AND b > 1", "(b > 1)"},
  };
  for (const auto& [query, expression] : kCases) {
    ExpectTypeMismatch(query, expression);
  }
}

TEST_F(SqlTypingTest, WellTypedNeighboursStillRun) {
  auto eq = Run("SELECT a, b FROM t WHERE b = 'p'");
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  EXPECT_EQ(eq->num_rows(), 2);

  auto plus = Run("SELECT a, sum(v) + 1 AS s FROM t GROUP BY a ORDER BY a");
  ASSERT_TRUE(plus.ok()) << plus.status().ToString();
  ASSERT_EQ(plus->num_rows(), 2);
  EXPECT_DOUBLE_EQ(plus->Get(0, 1).ToDouble(), 11.0);  // 1+2+3+4 + 1
  EXPECT_DOUBLE_EQ(plus->Get(1, 1).ToDouble(), 12.0);  // 5+6 + 1

  auto having = Run(
      "SELECT a, avg(v) AS s FROM t GROUP BY a HAVING count(*) > 2");
  ASSERT_TRUE(having.ok()) << having.status().ToString();
  ASSERT_EQ(having->num_rows(), 1);
  EXPECT_EQ(having->Get(0, 0).as_string(), "p");

  // Logic accepts any operand type (truthiness), as before.
  auto logic = Run("SELECT a, b FROM t WHERE b AND NOT v");
  ASSERT_TRUE(logic.ok()) << logic.status().ToString();
  EXPECT_EQ(logic->num_rows(), 0);
}

// A string group column keeps its type when no group survives the filter,
// so a well-typed HAVING over it still compiles.
TEST_F(SqlTypingTest, WellTypedHavingOverNoGroups) {
  auto r = Run(
      "SELECT a, sum(v) AS s FROM t WHERE v > 100 GROUP BY a "
      "HAVING a = 'p'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0);
}

}  // namespace
}  // namespace qagview::sql
