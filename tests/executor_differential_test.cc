// The columnar aggregate kernel (sql/executor.cc), enforced differentially:
// seeded random tables and queries run through sql::ExecuteSql and
// sql::ExecuteSqlApproximate, and through a small row-at-a-time reference
// evaluator kept in this file (boxed group keys, one streaming Aggregator
// per group and call, Value-based HAVING, ORDER BY and result typing). The
// two must agree bit for bit: schema types, row order, every double by bit
// pattern, every string by text and dictionary code, and every standard
// error of an approximate execution.
//
// The tables mix string, int64 and double grouping columns with NULLs, the
// int64 -1 (FlatMap64's reserved key pattern), -0.0 next to 0.0, and NaN.
// One fixture is shaped so that the mixed-radix key product passes 2^62,
// which forces the kernel's re-densify step: without it the key of the
// first grouping column would overflow out of the key and groups differing
// only in that column would merge.
//
// The CI sanitizer jobs run this binary explicitly, so UBSan checks the
// radix arithmetic and ASan the code arrays.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "sql/aggregate.h"
#include "sql/executor.h"
#include "sql/expr.h"
#include "sql/parser.h"
#include "storage/sample.h"
#include "storage/table.h"

namespace qagview::sql {
namespace {

using storage::Field;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

// ---------------------------------------------------------------------------
// Reference evaluator: the row-at-a-time executor.

// InferType over materialized cells: STRING if any string, else DOUBLE if
// any double, else INT64 (also for all-NULL columns).
ValueType InferType(const std::vector<std::vector<Value>>& rows, size_t col) {
  ValueType type = ValueType::kInt64;
  for (const auto& row : rows) {
    if (row[col].type() == ValueType::kString) return ValueType::kString;
    if (row[col].type() == ValueType::kDouble) type = ValueType::kDouble;
  }
  return type;
}

Table Materialize(const std::vector<std::string>& names,
                  const std::vector<std::vector<Value>>& rows) {
  std::vector<Field> fields;
  for (size_t c = 0; c < names.size(); ++c) {
    fields.push_back({names[c], InferType(rows, c)});
  }
  Table out{Schema(std::move(fields))};
  for (const auto& row : rows) QAG_CHECK_OK(out.AppendRow(row));
  return out;
}

void OrderAndLimit(const SelectStatement& stmt,
                   const std::vector<std::string>& names,
                   std::vector<std::vector<Value>>* rows) {
  std::vector<std::pair<size_t, bool>> keys;
  for (const OrderByItem& item : stmt.order_by) {
    size_t idx = 0;
    while (!EqualsIgnoreCase(names[idx], item.column)) ++idx;
    keys.emplace_back(idx, item.descending);
  }
  std::stable_sort(rows->begin(), rows->end(),
                   [&keys](const std::vector<Value>& a,
                           const std::vector<Value>& b) {
                     for (const auto& [idx, desc] : keys) {
                       const int c = a[idx].Compare(b[idx]);
                       if (c != 0) return desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
  if (stmt.limit >= 0 && static_cast<int64_t>(rows->size()) > stmt.limit) {
    rows->resize(static_cast<size_t>(stmt.limit));
  }
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Group-key identity: NULL equals NULL, -0.0 equals 0.0, and every NaN
// equals every other NaN (the executor's NaN rule).
std::string KeyText(const std::vector<Value>& key) {
  std::string text;
  for (const Value& v : key) {
    switch (v.type()) {
      case ValueType::kNull:
        text += "N;";
        break;
      case ValueType::kInt64:
        text += StrCat("I", v.as_int(), ";");
        break;
      case ValueType::kDouble: {
        const double d = v.as_double();
        text += std::isnan(d) ? std::string("Dnan;")
                              : StrCat("D", Bits(d == 0.0 ? 0.0 : d), ";");
        break;
      }
      case ValueType::kString:
        text += StrCat("S", v.as_string().size(), ":", v.as_string(), ";");
        break;
    }
  }
  return text;
}

struct Approx {
  int64_t sample_rows = 0;
  int64_t population_rows = 0;
};

Value ScaledEstimate(const Aggregator& agg, double scale) {
  switch (agg.kind()) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return Value::Real(scale * static_cast<double>(agg.count()));
    case AggKind::kSum:
      return agg.count() == 0 ? Value::Null() : Value::Real(scale * agg.sum());
    default:
      return agg.Finish();
  }
}

double EstimateSe(const Aggregator& agg, const Approx& approx) {
  const double n = static_cast<double>(approx.sample_rows);
  const double N = static_cast<double>(approx.population_rows);
  const double fpc = std::max(0.0, 1.0 - n / N);
  switch (agg.kind()) {
    case AggKind::kCount:
    case AggKind::kCountStar: {
      if (approx.sample_rows < 2) return HUGE_VAL;
      const double p = static_cast<double>(agg.count()) / n;
      return N * std::sqrt(p * (1.0 - p) / n) * std::sqrt(fpc);
    }
    case AggKind::kSum: {
      if (approx.sample_rows < 2) return HUGE_VAL;
      const double s = agg.sum();
      const double var_y =
          std::max(0.0, (agg.sum_squares() - s * s / n) / (n - 1.0));
      return N * std::sqrt(var_y / n) * std::sqrt(fpc);
    }
    case AggKind::kAvg: {
      if (agg.count() < 2) return HUGE_VAL;
      const double c = static_cast<double>(agg.count());
      const double s = agg.sum();
      const double var_x =
          std::max(0.0, (agg.sum_squares() - s * s / c) / (c - 1.0));
      return std::sqrt(var_x / c) * std::sqrt(fpc);
    }
    default:
      return HUGE_VAL;
  }
}

struct Reference {
  explicit Reference(Table t) : table(std::move(t)) {}
  Table table;
  std::map<std::string, std::vector<double>> column_se;
};

// Executes `sql` (well-formed by construction) against `table`; with
// `approx` set, `table` is the sample and estimates are scaled.
Reference Evaluate(const std::string& sql, const Table& table,
                   const std::optional<Approx>& approx = std::nullopt) {
  Result<SelectStatement> parsed = Parser::ParseSelect(sql);
  QAG_CHECK_OK(parsed.status());
  const SelectStatement& stmt = *parsed;

  std::vector<int64_t> rows;
  std::optional<CompiledExpr> where;
  if (stmt.where) {
    Result<CompiledExpr> compiled =
        CompiledExpr::Compile(*stmt.where, table.schema());
    QAG_CHECK_OK(compiled.status());
    where = std::move(compiled).value();
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (where) {
      const Value keep = where->Eval(table, r);
      if (keep.is_null() || !keep.IsTruthy()) continue;
    }
    rows.push_back(r);
  }

  std::vector<std::string> names;
  for (const SelectItem& item : stmt.items) names.push_back(item.OutputName());
  bool has_calls = stmt.having != nullptr;
  for (const SelectItem& item : stmt.items) {
    has_calls = has_calls || item.expr->ContainsCall();
  }
  if (stmt.group_by.empty() && !has_calls) {
    std::vector<CompiledExpr> items;
    for (const SelectItem& item : stmt.items) {
      Result<CompiledExpr> e =
          CompiledExpr::Compile(*item.expr, table.schema());
      QAG_CHECK_OK(e.status());
      items.push_back(std::move(e).value());
    }
    std::vector<std::vector<Value>> out;
    for (int64_t r : rows) {
      std::vector<Value> row;
      for (const CompiledExpr& e : items) row.push_back(e.Eval(table, r));
      out.push_back(std::move(row));
    }
    OrderAndLimit(stmt, names, &out);
    return Reference(Materialize(names, out));
  }

  // Unique calls in first-appearance order.
  std::vector<const Expr*> all_calls;
  for (const SelectItem& item : stmt.items) {
    CollectCalls(*item.expr, &all_calls);
  }
  if (stmt.having) CollectCalls(*stmt.having, &all_calls);
  std::vector<std::string> call_keys;
  std::vector<AggKind> kinds;
  std::vector<std::optional<CompiledExpr>> args;
  for (const Expr* call : all_calls) {
    const std::string key = call->ToString();
    if (std::find(call_keys.begin(), call_keys.end(), key) != call_keys.end()) {
      continue;
    }
    call_keys.push_back(key);
    Result<AggKind> kind = AggKindFromName(call->function, call->star_arg);
    QAG_CHECK_OK(kind.status());
    kinds.push_back(*kind);
    if (*kind == AggKind::kCountStar) {
      args.emplace_back();
    } else {
      Result<CompiledExpr> e =
          CompiledExpr::Compile(*call->args[0], table.schema());
      QAG_CHECK_OK(e.status());
      args.emplace_back(std::move(e).value());
    }
  }

  // Group rows in first-seen order, one Aggregator per group and call.
  std::vector<int> group_cols;
  for (const std::string& name : stmt.group_by) {
    group_cols.push_back(table.schema().FindField(name));
  }
  std::unordered_map<std::string, size_t> group_of;
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<Aggregator>> aggs;
  for (int64_t r : rows) {
    std::vector<Value> key;
    for (int c : group_cols) key.push_back(table.Get(r, c));
    auto [it, inserted] = group_of.emplace(KeyText(key), keys.size());
    if (inserted) {
      keys.push_back(key);
      aggs.emplace_back();
      for (AggKind kind : kinds) aggs.back().emplace_back(kind);
    }
    for (size_t a = 0; a < kinds.size(); ++a) {
      if (kinds[a] == AggKind::kCountStar) {
        aggs[it->second][a].AddRow();
      } else {
        aggs[it->second][a].Add(args[a]->Eval(table, r));
      }
    }
  }

  const double scale =
      approx ? static_cast<double>(approx->population_rows) /
                   static_cast<double>(approx->sample_rows)
             : 1.0;
  std::vector<std::string> env_names;
  for (int c : group_cols) env_names.push_back(table.schema().field(c).name);
  for (const std::string& key : call_keys) env_names.push_back(key);
  std::vector<std::vector<Value>> env_rows;
  for (size_t g = 0; g < keys.size(); ++g) {
    std::vector<Value> row = keys[g];
    for (const Aggregator& agg : aggs[g]) {
      row.push_back(approx ? ScaledEstimate(agg, scale) : agg.Finish());
    }
    env_rows.push_back(std::move(row));
  }
  const Table env = Materialize(env_names, env_rows);

  std::vector<CompiledExpr> items;
  for (const SelectItem& item : stmt.items) {
    Result<CompiledExpr> e =
        CompiledExpr::Compile(*RewriteCallsToColumns(*item.expr), env.schema());
    QAG_CHECK_OK(e.status());
    items.push_back(std::move(e).value());
  }
  std::optional<CompiledExpr> having;
  if (stmt.having) {
    Result<CompiledExpr> e = CompiledExpr::Compile(
        *RewriteCallsToColumns(*stmt.having), env.schema());
    QAG_CHECK_OK(e.status());
    having = std::move(e).value();
  }
  // Bare count/sum/avg select items carry standard errors, as hidden
  // trailing cells that ride through ORDER BY and LIMIT.
  std::vector<int> item_call(stmt.items.size(), -1);
  if (approx) {
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const Expr& e = *stmt.items[i].expr;
      if (e.kind != ExprKind::kCall) continue;
      const size_t a = static_cast<size_t>(
          std::find(call_keys.begin(), call_keys.end(), e.ToString()) -
          call_keys.begin());
      if (kinds[a] != AggKind::kMin && kinds[a] != AggKind::kMax) {
        item_call[i] = static_cast<int>(a);
      }
    }
  }
  std::vector<std::vector<Value>> out;
  for (int64_t g = 0; g < env.num_rows(); ++g) {
    if (having) {
      const Value keep = having->Eval(env, g);
      if (keep.is_null() || !keep.IsTruthy()) continue;
    }
    std::vector<Value> row;
    for (const CompiledExpr& e : items) row.push_back(e.Eval(env, g));
    for (int a : item_call) {
      if (a >= 0) {
        row.push_back(Value::Real(EstimateSe(
            aggs[static_cast<size_t>(g)][static_cast<size_t>(a)], *approx)));
      }
    }
    out.push_back(std::move(row));
  }
  OrderAndLimit(stmt, names, &out);

  std::map<std::string, std::vector<double>> column_se;
  size_t hidden = names.size();
  for (size_t i = 0; i < item_call.size(); ++i) {
    if (item_call[i] < 0) continue;
    std::vector<double>& ses = column_se[names[i]];
    ses.clear();
    for (const auto& row : out) ses.push_back(row[hidden].as_double());
    ++hidden;
  }
  for (auto& row : out) row.resize(names.size());
  Reference ref(Materialize(names, out));
  ref.column_se = std::move(column_se);
  return ref;
}

// ---------------------------------------------------------------------------
// Bit-for-bit comparison.

void ExpectIdentical(const Table& want, const Table& got,
                     const std::string& what) {
  ASSERT_EQ(want.schema().ToString(), got.schema().ToString()) << what;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << what;
  for (int c = 0; c < want.num_columns(); ++c) {
    const storage::Column& w = want.column(c);
    const storage::Column& g = got.column(c);
    for (int64_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(w.IsNull(r), g.IsNull(r))
          << what << " row " << r << " col " << c;
      if (w.IsNull(r)) continue;
      switch (w.type()) {
        case ValueType::kInt64:
          ASSERT_EQ(w.GetInt(r), g.GetInt(r)) << what << " row " << r;
          break;
        case ValueType::kDouble:
          ASSERT_EQ(Bits(w.GetDouble(r)), Bits(g.GetDouble(r)))
              << what << " row " << r << " col " << c << ": "
              << w.GetDouble(r) << " vs " << g.GetDouble(r);
          break;
        case ValueType::kString:
          ASSERT_EQ(w.GetString(r), g.GetString(r)) << what << " row " << r;
          ASSERT_EQ(w.GetStringCode(r), g.GetStringCode(r))
              << what << " row " << r;
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
}

void ExpectSameExact(const std::string& sql, const Table& table) {
  Catalog catalog;
  catalog.Register("t", &table);
  Result<Table> got = ExecuteSql(sql, catalog);
  ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
  ExpectIdentical(Evaluate(sql, table).table, *got, sql);
}

void ExpectSameApproximate(const std::string& sql, const Table& table,
                           const storage::TableSample& sample) {
  Catalog catalog;
  catalog.Register("t", &table);
  catalog.RegisterSample("t", &sample.rows, sample.population_rows);
  Result<ApproxExecution> got = ExecuteSqlApproximate(sql, catalog);
  ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
  ASSERT_TRUE(got->approximate) << sql;
  EXPECT_EQ(got->sample_rows, sample.rows.num_rows());
  EXPECT_EQ(got->population_rows, sample.population_rows);
  const Approx approx{sample.rows.num_rows(), sample.population_rows};
  const Reference want = Evaluate(sql, sample.rows, approx);
  ExpectIdentical(want.table, got->table, "approx " + sql);
  ASSERT_EQ(want.column_se.size(), got->column_se.size()) << sql;
  for (const auto& [name, ses] : want.column_se) {
    auto it = got->column_se.find(name);
    ASSERT_NE(it, got->column_se.end()) << sql << " lacks se of " << name;
    ASSERT_EQ(ses.size(), it->second.size()) << sql << " " << name;
    for (size_t i = 0; i < ses.size(); ++i) {
      ASSERT_EQ(Bits(ses[i]), Bits(it->second[i])) << sql << " " << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded tables and queries.

// s0/s1 strings, i0/w/big int64, d0 a double key column and v a double
// measure, every column with NULLs. i0 draws -1 often; d0 draws -0.0 next to
// 0.0 and NaN; v sometimes draws NaN too; big holds distinct int64 values
// that convert to the same double, which min/max and ORDER BY compare as
// equal.
Table MakeTable(uint64_t seed, int rows) {
  Schema schema({{"s0", ValueType::kString},
                 {"s1", ValueType::kString},
                 {"i0", ValueType::kInt64},
                 {"d0", ValueType::kDouble},
                 {"v", ValueType::kDouble},
                 {"w", ValueType::kInt64},
                 {"big", ValueType::kInt64}});
  Table table(schema);
  Rng rng(seed);
  const double kD0[] = {-1.5, -0.0, 0.0, 0.5, 2.0, std::nan("")};
  for (int r = 0; r < rows; ++r) {
    auto null = [&rng](int one_in) { return rng.Index(one_in) == 0; };
    std::vector<Value> row;
    row.push_back(null(9) ? Value::Null()
                          : Value::Str(StrCat("a", rng.Index(4))));
    row.push_back(null(11) ? Value::Null()
                           : Value::Str(StrCat("b", rng.Index(30))));
    row.push_back(null(10) ? Value::Null() : Value::Int(rng.Uniform(-3, 3)));
    row.push_back(null(10) ? Value::Null()
                           : Value::Real(kD0[rng.Index(std::size(kD0))]));
    row.push_back(null(8)     ? Value::Null()
                  : null(200) ? Value::Real(std::nan(""))
                              : Value::Real(rng.Gaussian(1.0, 4.0)));
    row.push_back(null(7) ? Value::Null()
                          : Value::Int(rng.Uniform(-1000000, 1000000)));
    row.push_back(null(6) ? Value::Null()
                          : Value::Int((int64_t{1} << 60) + rng.Index(5)));
    QAG_CHECK_OK(table.AppendRow(row));
  }
  return table;
}

const char* const kKeyColumns[] = {"s0", "s1", "i0", "d0", "w", "big"};

// A random query over MakeTable's schema: 0-3 grouping columns, a mix of
// aggregate items (bare calls, min/max over strings, an expression
// argument, an expression over aggregates), optional WHERE, HAVING, ORDER
// BY with ties and LIMIT.
std::string RandomQuery(Rng& rng) {
  std::vector<std::string> group;
  const int num_keys = static_cast<int>(rng.Index(4));
  for (int k = 0; k < num_keys; ++k) {
    const std::string col = kKeyColumns[rng.Index(std::size(kKeyColumns))];
    if (std::find(group.begin(), group.end(), col) == group.end()) {
      group.push_back(col);
    }
  }
  const char* const kAggs[] = {
      "count(*)",    "count(v)", "count(s1)", "sum(v)",     "avg(v)",
      "sum(w)",      "avg(i0)",  "min(v)",    "max(v)",     "min(s1)",
      "max(s0)",     "min(w)",   "max(d0)",   "sum(v * 2)", "avg(w + i0)",
      "min(i0 * 3)", "min(big)", "max(big)",  "sum(big)",
  };
  std::vector<std::string> items = group;
  std::vector<std::string> aliases = group;
  const int num_aggs = 1 + static_cast<int>(rng.Index(3));
  for (int a = 0; a < num_aggs; ++a) {
    const std::string call = kAggs[rng.Index(std::size(kAggs))];
    const std::string alias = StrCat("m", a);
    items.push_back(call + " AS " + alias);
    aliases.push_back(alias);
  }
  if (rng.Index(4) == 0) {
    items.push_back("sum(v) / count(*) AS ratio");
    aliases.push_back("ratio");
  }
  std::string sql = "SELECT " + Join(items, ", ") + " FROM t";
  switch (rng.Index(5)) {
    case 0:
      sql += " WHERE i0 >= 0";
      break;
    case 1:
      sql += " WHERE w > 5000000";  // removes every row
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

class ExecutorDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorDifferentialTest, RandomQueriesMatchReference) {
  Rng rng(GetParam());
  for (int rows : {0, 1, 40, 1500}) {
    const Table table = MakeTable(GetParam() * 31 + rows, rows);
    for (int q = 0; q < 60; ++q) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameExact(RandomQuery(rng), table));
    }
  }
}

TEST_P(ExecutorDifferentialTest, ApproximateMatchesReference) {
  Rng rng(GetParam() ^ 0xA99A);
  const Table table = MakeTable(GetParam() * 7 + 3, 3000);
  storage::ReservoirSampler sampler(table.schema(), 400, GetParam());
  sampler.AddTable(table);
  const std::shared_ptr<const storage::TableSample> sample =
      sampler.Snapshot();
  for (int q = 0; q < 60; ++q) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameApproximate(RandomQuery(rng), table, *sample));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferentialTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Each shape the kernel treats specially, named once, outside the random
// mix.
TEST(ExecutorDifferentialFixedTest, CoversEveryKernelPath) {
  const Table table = MakeTable(99, 2500);
  const Table empty = MakeTable(99, 0);
  const char* const kQueries[] = {
      // String, int64 and double keys, each with NULLs; -1, -0.0, NaN.
      "SELECT s0, count(*) AS n FROM t GROUP BY s0",
      "SELECT i0, count(*) AS n, sum(v) AS s FROM t GROUP BY i0",
      "SELECT d0, count(*) AS n, min(v) AS lo FROM t GROUP BY d0",
      "SELECT s1, i0, d0, w, count(*) AS n FROM t GROUP BY s1, i0, d0, w",
      // No GROUP BY, and a WHERE that removes every row.
      "SELECT count(*) AS n, count(v) AS c, sum(v) AS s, avg(w) AS a, "
      "min(s1) AS lo, max(s1) AS hi FROM t",
      "SELECT s0, sum(v) AS s, min(s1) AS lo FROM t WHERE w > 5000000 "
      "GROUP BY s0",
      "SELECT count(*) AS n FROM t WHERE w > 5000000",
      // Every aggregate kind, expression arguments, and expressions over
      // aggregates.
      "SELECT s0, count(*) AS a, count(s1) AS b, sum(v) AS c, avg(v) AS d, "
      "min(v) AS e, max(v) AS f, min(s1) AS g, max(s1) AS h, min(w) AS i, "
      "max(d0) AS j, sum(v * 2) AS k, avg(v) * 2 AS l, "
      "sum(v) / count(*) AS m FROM t GROUP BY s0",
      // HAVING, and ORDER BY/LIMIT with ties (count ties across groups).
      "SELECT s1, i0, count(*) AS n FROM t GROUP BY s1, i0 "
      "HAVING count(*) > 3 AND sum(v) > 0 ORDER BY n DESC LIMIT 7",
      "SELECT s0, i0, count(*) AS n FROM t GROUP BY s0, i0 "
      "ORDER BY n, s0 DESC LIMIT 9",
      // Projections share the result path.
      "SELECT s1, w, v * 2 AS v2 FROM t WHERE i0 = -1 ORDER BY s1, w DESC "
      "LIMIT 20",
      "SELECT s0, d0 FROM t ORDER BY d0 LIMIT 15",
      "SELECT s1, big FROM t ORDER BY big DESC, s1 LIMIT 40",
  };
  for (const char* sql : kQueries) {
    ASSERT_NO_FATAL_FAILURE(ExpectSameExact(sql, table));
    ASSERT_NO_FATAL_FAILURE(ExpectSameExact(sql, empty));
  }
}

// Nine int64 grouping columns with 254 distinct values each: every column
// has radix 256 (254 values + NULL + the reserved -1 code), so the key
// product reaches 2^72. Rows 2j and 2j+1 differ only in the first column;
// past 2^64 that column's code would be shifted out of the key and the
// pairs would merge. Re-densifying at 2^62 keeps every group apart.
TEST(ExecutorDifferentialFixedTest, RadixOverflowForcesRedensify) {
  constexpr int kColumns = 9;
  constexpr int kDistinct = 254;
  std::vector<Field> fields;
  std::vector<std::string> names;
  for (int c = 0; c < kColumns; ++c) {
    names.push_back(StrCat("k", c));
    fields.push_back({names.back(), ValueType::kInt64});
  }
  fields.push_back({"v", ValueType::kDouble});
  Table table{Schema(fields)};
  for (int r = 0; r < 2 * kDistinct; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(r % kDistinct));
    for (int c = 1; c < kColumns; ++c) row.push_back(Value::Int(r / 2));
    row.push_back(Value::Real(0.25 * r));
    QAG_CHECK_OK(table.AppendRow(row));
  }
  // The shape really passes the bound: 256^9 > 2^62.
  EXPECT_GT(kColumns * std::log2(kDistinct + 2), 62.0);

  const std::string keys = Join(names, ", ");
  const std::string sql = "SELECT " + keys +
                          ", count(*) AS n, sum(v) AS s FROM t GROUP BY " +
                          keys;
  ExpectSameExact(sql, table);
  Catalog catalog;
  catalog.Register("t", &table);
  Result<Table> result = ExecuteSql(sql, catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 2 * kDistinct);  // every row its own group

  // High-cardinality keys of every type together.
  const Table wide = MakeTable(5, 3000);
  ExpectSameExact("SELECT w, s1, v, d0, i0, s0, count(*) AS n FROM t "
                  "GROUP BY w, s1, v, d0, i0, s0 ORDER BY n DESC, w LIMIT 50",
                  wide);
}

// All NaN keys form one group (NaN != NaN, but a group per NaN row would
// make GROUP BY over a NaN-bearing column unbounded); -0.0 joins 0.0's group
// and the group shows its first row's key.
TEST(ExecutorDifferentialFixedTest, NanKeysFormOneGroupSignedZerosMerge) {
  Table table{Schema({{"d", ValueType::kDouble}, {"x", ValueType::kInt64}})};
  const double nan = std::nan("");
  for (const auto& [d, x] : std::vector<std::pair<double, int64_t>>{
           {nan, 1}, {-0.0, 2}, {1.0, 3}, {-nan, 4}, {0.0, 5}, {nan, 6}}) {
    QAG_CHECK_OK(table.AppendRow({Value::Real(d), Value::Int(x)}));
  }
  Catalog catalog;
  catalog.Register("t", &table);
  Result<Table> r =
      ExecuteSql("SELECT d, count(*) AS n, sum(x) AS s FROM t GROUP BY d",
                 catalog);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3);
  EXPECT_TRUE(std::isnan(r->Get(0, 0).as_double()));
  EXPECT_EQ(r->Get(0, 1).as_int(), 3);
  EXPECT_EQ(r->Get(0, 2).as_double(), 11.0);
  EXPECT_TRUE(std::signbit(r->Get(1, 0).as_double()));  // first row: -0.0
  EXPECT_EQ(r->Get(1, 1).as_int(), 2);
  EXPECT_EQ(r->Get(2, 1).as_int(), 1);
}

}  // namespace
}  // namespace qagview::sql
