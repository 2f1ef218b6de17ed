#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "common/flat_map.h"
#include "common/string_util.h"
#include "sql/aggregate.h"
#include "sql/expr.h"
#include "sql/parser.h"

namespace qagview::sql {

using storage::Column;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

void Catalog::Register(const std::string& name, const Table* table) {
  tables_[ToLower(name)] = table;
}

const Table* Catalog::Find(const std::string& name) const {
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) return nullptr;
  if (std::find(accessed_.begin(), accessed_.end(), key) ==
      accessed_.end()) {
    accessed_.push_back(std::move(key));
  }
  return it->second;
}

void Catalog::RegisterSample(const std::string& name, const Table* rows,
                             int64_t population_rows) {
  samples_[ToLower(name)] = SampleInfo{rows, population_rows};
}

const Catalog::SampleInfo* Catalog::FindSample(const std::string& name) const {
  auto it = samples_.find(ToLower(name));
  return it == samples_.end() ? nullptr : &it->second;
}

namespace {

// ---------------------------------------------------------------------------
// Result columns.
//
// Every table the executor builds -- the per-group env table and the result
// -- follows one typing rule: a column takes its cells' type (DOUBLE where
// ints and doubles mix) and a column without a non-NULL cell is INT64.

// Builds a column from boxed cells under the result typing rule.
Result<Column> ColumnFromValues(const std::string& name,
                                const std::vector<Value>& cells) {
  ValueType type = ValueType::kInt64;
  for (const Value& v : cells) {
    if (v.type() == ValueType::kString) {
      type = ValueType::kString;
      break;
    }
    if (v.type() == ValueType::kDouble) type = ValueType::kDouble;
  }
  Column column(type);
  column.Reserve(static_cast<int64_t>(cells.size()));
  for (const Value& v : cells) {
    if (!v.is_null() && v.type() != type &&
        !(type == ValueType::kDouble && v.type() == ValueType::kInt64)) {
      return Status::InvalidArgument(
          StrCat("column ", name, " expects ", ValueTypeToString(type),
                 ", got ", ValueTypeToString(v.type())));
    }
    column.Append(v);
  }
  return column;
}

// Applies the result typing rule to a typed column: one without a non-NULL
// cell becomes INT64.
Column RetypeAllNull(Column column) {
  const Span<uint8_t> valid = column.validity();
  if (column.type() == ValueType::kInt64 ||
      std::find(valid.begin(), valid.end(), 1) != valid.end()) {
    return column;
  }
  Column out(ValueType::kInt64);
  out.Reserve(column.size());
  for (int64_t r = 0; r < column.size(); ++r) out.AppendNull();
  return out;
}

// One select item's cells for the candidate result rows: a bare column
// reference reads `column` at the candidate's source row; any other item
// holds one evaluated cell per candidate.
struct OutputColumn {
  std::string name;
  const Column* column = nullptr;
  std::vector<Value> cells;
};

int Sign(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

// Value::Compare of two candidates' cells (`source` maps a candidate to its
// row of a typed column): NULL first, numerics as doubles, strings
// lexicographically.
int CompareCells(const OutputColumn& out, const std::vector<int64_t>& source,
                 size_t a, size_t b) {
  if (out.column == nullptr) return out.cells[a].Compare(out.cells[b]);
  const Column& column = *out.column;
  const int64_t ra = source[a];
  const int64_t rb = source[b];
  const bool null_a = column.IsNull(ra);
  const bool null_b = column.IsNull(rb);
  if (null_a || null_b) return null_a == null_b ? 0 : (null_a ? -1 : 1);
  const size_t ia = static_cast<size_t>(ra);
  const size_t ib = static_cast<size_t>(rb);
  switch (column.type()) {
    case ValueType::kInt64:
      return Sign(static_cast<double>(column.ints()[ia]),
                  static_cast<double>(column.ints()[ib]));
    case ValueType::kDouble:
      return Sign(column.doubles()[ia], column.doubles()[ib]);
    case ValueType::kString: {
      const int32_t ca = column.codes()[ia];
      const int32_t cb = column.codes()[ib];
      if (ca == cb) return 0;
      const int c = column.dictionary().GetString(ca).compare(
          column.dictionary().GetString(cb));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kNull:
      break;
  }
  return 0;
}

// ORDER BY (a stable sort, so ties keep candidate order) and LIMIT over the
// candidates; returns the surviving candidate indices in result order.
Result<std::vector<size_t>> OrderAndLimit(
    const SelectStatement& stmt, const std::vector<OutputColumn>& columns,
    const std::vector<int64_t>& source) {
  std::vector<size_t> order(source.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<const OutputColumn*, bool>> keys;  // descending?
    for (const OrderByItem& item : stmt.order_by) {
      auto it = std::find_if(columns.begin(), columns.end(),
                             [&item](const OutputColumn& c) {
                               return EqualsIgnoreCase(c.name, item.column);
                             });
      if (it == columns.end()) {
        return Status::InvalidArgument(
            "ORDER BY column is not in the select list: " + item.column);
      }
      keys.emplace_back(&*it, item.descending);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&keys, &source](size_t a, size_t b) {
                       for (const auto& [column, desc] : keys) {
                         const int c = CompareCells(*column, source, a, b);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (stmt.limit >= 0 && static_cast<int64_t>(order.size()) > stmt.limit) {
    order.resize(static_cast<size_t>(stmt.limit));
  }
  return order;
}

// Builds the result table from the candidates at `order`.
Result<Table> MaterializeResult(std::vector<OutputColumn> columns,
                                const std::vector<int64_t>& source,
                                const std::vector<size_t>& order) {
  std::vector<int64_t> rows(order.size());
  for (size_t i = 0; i < order.size(); ++i) rows[i] = source[order[i]];
  std::vector<Field> fields;
  std::vector<Column> result;
  for (OutputColumn& out : columns) {
    if (out.column != nullptr) {
      result.push_back(RetypeAllNull(out.column->Take(rows)));
    } else {
      std::vector<Value> cells;
      cells.reserve(order.size());
      for (size_t i : order) cells.push_back(std::move(out.cells[i]));
      QAG_ASSIGN_OR_RETURN(Column column, ColumnFromValues(out.name, cells));
      result.push_back(std::move(column));
    }
    fields.push_back({out.name, result.back().type()});
  }
  return Table::FromColumns(Schema(std::move(fields)), std::move(result));
}

// Evaluates the WHERE clause over rows [first, num_rows) and returns the
// surviving row indices.
Result<std::vector<int64_t>> FilterRows(const SelectStatement& stmt,
                                        const Table& table,
                                        int64_t first = 0) {
  std::vector<int64_t> rows;
  if (stmt.where == nullptr) {
    rows.reserve(static_cast<size_t>(table.num_rows() - first));
    for (int64_t r = first; r < table.num_rows(); ++r) rows.push_back(r);
    return rows;
  }
  if (stmt.where->ContainsCall()) {
    return Status::InvalidArgument("aggregates are not allowed in WHERE");
  }
  QAG_ASSIGN_OR_RETURN(CompiledExpr where,
                       CompiledExpr::Compile(*stmt.where, table.schema()));
  for (int64_t r = first; r < table.num_rows(); ++r) {
    Value v = where.Eval(table, r);
    if (!v.is_null() && v.IsTruthy()) rows.push_back(r);
  }
  return rows;
}

// Plain (non-grouped, aggregate-free) SELECT.
Result<Table> ExecuteProjection(const SelectStatement& stmt,
                                const Table& table,
                                const std::vector<int64_t>& rows) {
  std::vector<CompiledExpr> exprs;
  for (const SelectItem& item : stmt.items) {
    QAG_ASSIGN_OR_RETURN(CompiledExpr e,
                         CompiledExpr::Compile(*item.expr, table.schema()));
    exprs.push_back(std::move(e));
  }
  std::vector<OutputColumn> columns(stmt.items.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const Expr& expr = *stmt.items[i].expr;
    columns[i].name = stmt.items[i].OutputName();
    if (expr.kind == ExprKind::kColumnRef) {
      columns[i].column = &table.column(table.schema().FindField(expr.column));
      continue;
    }
    columns[i].cells.reserve(rows.size());
    for (int64_t r : rows) columns[i].cells.push_back(exprs[i].Eval(table, r));
  }
  QAG_ASSIGN_OR_RETURN(std::vector<size_t> order,
                       OrderAndLimit(stmt, columns, rows));
  return MaterializeResult(std::move(columns), rows, order);
}

// ---------------------------------------------------------------------------
// The grouping kernel (DESIGN.md, "The aggregate kernel").

// Radix bound of a mixed-radix group key. Past it the partial key is
// re-densified (see AssignGroups), which keeps every key below 2^62 and so
// clear of FlatMap64's reserved all-ones key.
constexpr uint64_t kMaxRadix = uint64_t{1} << 62;

// Row limit of one aggregate: group ids are FlatMap64 values (int32), and
// it keeps a re-densified key (< rows) times the next radix (<= rows + 2, or
// a dictionary's size + 1) below 2^62.
constexpr size_t kMaxAggregateRows = std::numeric_limits<int32_t>::max();

// Replaces every key with a dense id in first-seen order, recording the
// mapping in `ids`; returns the number of distinct keys. Keys are below
// kMaxRadix.
uint64_t Densify(std::vector<uint64_t>* keys, FlatMap64* ids) {
  for (uint64_t& key : *keys) {
    key = static_cast<uint64_t>(
        ids->FindOrInsert(key, static_cast<int32_t>(ids->size())).first);
  }
  return ids->size();
}

// One grouping column's code space: an exclusive bound on its dense codes
// (0 = NULL) and, for an int64 or double column, the value -> code map
// (string columns use their dictionary codes). A fold codes new rows in the
// frozen space: a value outside it has no code.
struct KeyCodes {
  int column = 0;
  uint64_t radix = 1;
  FlatMap64 codes;
};

// Writes one grouping column's dense code for every row at `rows` and
// fills in its code space. Int64 and double columns are made dense in
// first-seen order.
void DenseCodes(const Column& column, const std::vector<int64_t>& rows,
                std::vector<uint64_t>* codes, KeyCodes* space) {
  const Span<uint8_t> valid = column.validity();
  codes->resize(rows.size());
  switch (column.type()) {
    case ValueType::kString: {
      const Span<int32_t> dict_codes = column.codes();
      for (size_t i = 0; i < rows.size(); ++i) {
        const size_t r = static_cast<size_t>(rows[i]);
        (*codes)[i] =
            valid[r] ? static_cast<uint64_t>(dict_codes[r]) + 1 : 0;
      }
      space->radix = static_cast<uint64_t>(column.dictionary().size()) + 1;
      return;
    }
    case ValueType::kInt64: {
      // Code 1 is -1: its all-ones bit pattern is FlatMap64's reserved key.
      uint64_t next = 2;
      for (size_t i = 0; i < rows.size(); ++i) {
        const size_t r = static_cast<size_t>(rows[i]);
        const uint64_t bits = static_cast<uint64_t>(column.ints()[r]);
        if (!valid[r]) {
          (*codes)[i] = 0;
        } else if (bits == ~uint64_t{0}) {
          (*codes)[i] = 1;
        } else {
          auto [code, inserted] =
              space->codes.FindOrInsert(bits, static_cast<int32_t>(next));
          (*codes)[i] = static_cast<uint64_t>(code);
          next += inserted;
        }
      }
      space->radix = next;
      return;
    }
    case ValueType::kDouble: {
      // GroupingBits never yields all ones (a NaN pattern).
      uint64_t next = 1;
      for (size_t i = 0; i < rows.size(); ++i) {
        const size_t r = static_cast<size_t>(rows[i]);
        if (!valid[r]) {
          (*codes)[i] = 0;
          continue;
        }
        auto [code, inserted] = space->codes.FindOrInsert(
            storage::GroupingBits(column.doubles()[r]),
            static_cast<int32_t>(next));
        (*codes)[i] = static_cast<uint64_t>(code);
        next += inserted;
      }
      space->radix = next;
      return;
    }
    case ValueType::kNull:
      break;
  }
}

// The code DenseCodes gave the value at `row`, if the frozen `space` holds
// one.
std::optional<uint64_t> FrozenCode(const Column& column,
                                   const KeyCodes& space, int64_t row) {
  const size_t r = static_cast<size_t>(row);
  if (!column.validity()[r]) return 0;
  int32_t code = -1;
  switch (column.type()) {
    case ValueType::kString:
      code = column.codes()[r] + 1;
      break;
    case ValueType::kInt64: {
      const uint64_t bits = static_cast<uint64_t>(column.ints()[r]);
      code = bits == ~uint64_t{0} ? 1 : space.codes.FindOr(bits, -1);
      break;
    }
    case ValueType::kDouble:
      code = space.codes.FindOr(storage::GroupingBits(column.doubles()[r]),
                                -1);
      break;
    case ValueType::kNull:
      break;
  }
  if (code < 0 || static_cast<uint64_t>(code) >= space.radix) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(code);
}

// Flat per-group state of one unique aggregate call.
struct AggArrays {
  AggKind kind = AggKind::kCountStar;
  std::string key;                    // canonical call text
  const Column* arg = nullptr;        // nullptr for count(*)
  std::optional<CompiledExpr> expr;   // an argument that is no bare column
  std::unique_ptr<Column> evaluated;  // owns `arg` for expression arguments
  std::vector<int64_t> count;         // non-NULL inputs (rows for count(*))
  std::vector<double> sum;            // sum and avg only
  std::vector<double> sum_squares;    // sum and avg only
  std::vector<int64_t> extreme;       // min/max: cell of `arg`, or -1
};

}  // namespace

// Everything a grouped aggregate's result is derived from: the groups in
// first-seen row order with their first rows, and each aggregate call's
// per-group accumulators. Retained by ExecuteSelectRetained, with the code
// spaces and the key -> group map a fold extends; min/max extremes are
// table rows then, and no argument column is held.
struct GroupedState {
  std::vector<int> group_cols;
  std::vector<KeyCodes> key_codes;  // one per grouping column
  FlatMap64 group_ids;              // mixed-radix key -> group id
  bool foldable = true;             // false once a key was re-densified
  std::vector<int64_t> first_row;
  std::vector<AggArrays> aggs;
  int64_t table_rows = 0;  // rows of the table accumulated, filtered or not
  int64_t input_rows = 0;  // of which WHERE kept
};

namespace {

// Assigns each row at `rows` a dense group id, numbering groups in
// first-seen row order, and records each group's first table row. The key
// of a row is a mixed-radix number over its grouping columns' dense codes;
// a partial key about to exceed kMaxRadix is re-densified, after which the
// state cannot be folded.
std::vector<uint64_t> AssignGroups(const Table& table,
                                   const std::vector<int64_t>& rows,
                                   GroupedState* state) {
  std::vector<uint64_t> key(rows.size(), 0);
  std::vector<uint64_t> codes;
  uint64_t bound = 1;  // exclusive bound on the keys built so far
  for (int c : state->group_cols) {
    KeyCodes& space = state->key_codes.emplace_back();
    space.column = c;
    DenseCodes(table.column(c), rows, &codes, &space);
    const uint64_t radix = space.radix;
    if (radix > kMaxRadix / bound) {
      FlatMap64 ids;
      bound = std::max<uint64_t>(Densify(&key, &ids), 1);
      state->foldable = false;
    }
    for (size_t i = 0; i < key.size(); ++i) key[i] = key[i] * radix + codes[i];
    bound *= radix;
  }
  state->first_row.reserve(
      static_cast<size_t>(Densify(&key, &state->group_ids)));
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] == state->first_row.size()) {
      state->first_row.push_back(rows[i]);
    }
  }
  return key;
}

template <typename T>
void AccumulateSum(Span<T> values, const std::vector<uint64_t>& group,
                   const std::vector<int64_t>& cells, AggArrays* agg) {
  const Span<uint8_t> valid = agg->arg->validity();
  for (size_t i = 0; i < cells.size(); ++i) {
    const size_t r = static_cast<size_t>(cells[i]);
    if (!valid[r]) continue;
    const size_t g = group[i];
    const double x = static_cast<double>(values[r]);
    agg->sum[g] += x;
    agg->sum_squares[g] += x * x;
    ++agg->count[g];
  }
}

// Keeps the first cell whose value no later cell beats: `less(a, b)` orders
// cells a and b by value.
template <typename Less>
void AccumulateExtreme(Less less, const std::vector<uint64_t>& group,
                       const std::vector<int64_t>& cells, AggArrays* agg) {
  const Span<uint8_t> valid = agg->arg->validity();
  const bool max = agg->kind == AggKind::kMax;
  for (size_t i = 0; i < cells.size(); ++i) {
    const int64_t r = cells[i];
    if (!valid[static_cast<size_t>(r)]) continue;
    int64_t& e = agg->extreme[group[i]];
    if (e < 0 || (max ? less(e, r) : less(r, e))) e = r;
  }
}

// Folds input i -- cell `cells[i]` of the argument column, in group
// `group[i]` -- into the accumulators, grown to `num_groups`, in ascending
// input order: per group the same sequence of double additions a
// streaming Aggregator makes, so sums and averages match it bit for bit,
// however the inputs are split across calls.
void Accumulate(const std::vector<uint64_t>& group,
                const std::vector<int64_t>& cells, size_t num_groups,
                AggArrays* agg) {
  agg->count.resize(num_groups, 0);
  switch (agg->kind) {
    case AggKind::kCountStar:
      for (uint64_t g : group) ++agg->count[g];
      return;
    case AggKind::kCount: {
      const Span<uint8_t> valid = agg->arg->validity();
      for (size_t i = 0; i < cells.size(); ++i) {
        agg->count[group[i]] += valid[static_cast<size_t>(cells[i])];
      }
      return;
    }
    case AggKind::kSum:
    case AggKind::kAvg:
      agg->sum.resize(num_groups, 0.0);
      agg->sum_squares.resize(num_groups, 0.0);
      if (agg->arg->type() == ValueType::kInt64) {
        AccumulateSum(agg->arg->ints(), group, cells, agg);
      } else {
        AccumulateSum(agg->arg->doubles(), group, cells, agg);
      }
      return;
    case AggKind::kMin:
    case AggKind::kMax: {
      agg->extreme.resize(num_groups, -1);
      const Column& arg = *agg->arg;
      switch (arg.type()) {
        case ValueType::kInt64: {
          const Span<int64_t> v = arg.ints();
          AccumulateExtreme(
              [&v](int64_t a, int64_t b) {
                return static_cast<double>(v[static_cast<size_t>(a)]) <
                       static_cast<double>(v[static_cast<size_t>(b)]);
              },
              group, cells, agg);
          return;
        }
        case ValueType::kDouble: {
          const Span<double> v = arg.doubles();
          AccumulateExtreme(
              [&v](int64_t a, int64_t b) {
                return v[static_cast<size_t>(a)] < v[static_cast<size_t>(b)];
              },
              group, cells, agg);
          return;
        }
        case ValueType::kString: {
          const Span<int32_t> v = arg.codes();
          const storage::Dictionary& dict = arg.dictionary();
          AccumulateExtreme(
              [&v, &dict](int64_t a, int64_t b) {
                const int32_t ca = v[static_cast<size_t>(a)];
                const int32_t cb = v[static_cast<size_t>(b)];
                return ca != cb && dict.GetString(ca) < dict.GetString(cb);
              },
              group, cells, agg);
          return;
        }
        case ValueType::kNull:
          return;
      }
    }
  }
}

// Scaling context for approximate execution: n sample rows drawn from N
// population rows, and the sink for per-output-column standard errors.
struct ApproxContext {
  int64_t sample_rows = 0;
  int64_t population_rows = 0;
  std::map<std::string, std::vector<double>>* column_se = nullptr;
};

// One aggregate call's env column: its value per group. Approximate
// execution publishes Horvitz-Thompson-style estimates instead: count and
// sum scale by N/n, avg is self-normalizing, min/max pass through (the
// sample extreme is the best available estimate, but it carries no CLT
// bound -- see EstimateSe).
Column AggregateColumn(const AggArrays& agg, size_t num_groups,
                       const ApproxContext* approx) {
  const double scale =
      approx == nullptr
          ? 1.0
          : static_cast<double>(approx->population_rows) /
                static_cast<double>(approx->sample_rows);
  switch (agg.kind) {
    case AggKind::kCount:
    case AggKind::kCountStar: {
      Column out(approx == nullptr ? ValueType::kInt64 : ValueType::kDouble);
      out.Reserve(static_cast<int64_t>(num_groups));
      for (size_t g = 0; g < num_groups; ++g) {
        if (approx == nullptr) {
          out.AppendInt(agg.count[g]);
        } else {
          out.AppendDouble(scale * static_cast<double>(agg.count[g]));
        }
      }
      return out;
    }
    case AggKind::kSum:
    case AggKind::kAvg: {
      Column out(ValueType::kDouble);
      out.Reserve(static_cast<int64_t>(num_groups));
      for (size_t g = 0; g < num_groups; ++g) {
        if (agg.count[g] == 0) {
          out.AppendNull();
        } else if (agg.kind == AggKind::kAvg) {
          out.AppendDouble(agg.sum[g] / static_cast<double>(agg.count[g]));
        } else {
          out.AppendDouble(approx == nullptr ? agg.sum[g]
                                             : scale * agg.sum[g]);
        }
      }
      return out;
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return agg.arg->Take(agg.extreme);
  }
  return Column(ValueType::kInt64);
}

// CLT standard error of group g's approximate estimate under uniform
// sampling without replacement (finite-population correction applied).
// Estimating a group's count or sum from a uniform table sample is
// estimating a population total of y_i = x_i * 1[row i in group] over all n
// sample rows, which is why those variances are over n, not the group size.
// Returns HUGE_VAL when no CLT error exists (min/max, avg over fewer than
// two sample rows).
double EstimateSe(const AggArrays& agg, size_t g, int64_t sample_rows,
                  int64_t population_rows) {
  const double n = static_cast<double>(sample_rows);
  const double N = static_cast<double>(population_rows);
  const double fpc = std::max(0.0, 1.0 - n / N);
  switch (agg.kind) {
    case AggKind::kCount:
    case AggKind::kCountStar: {
      if (sample_rows < 2) return HUGE_VAL;
      const double p = static_cast<double>(agg.count[g]) / n;
      return N * std::sqrt(p * (1.0 - p) / n) * std::sqrt(fpc);
    }
    case AggKind::kSum: {
      if (sample_rows < 2) return HUGE_VAL;
      const double s = agg.sum[g];
      const double var_y =
          std::max(0.0, (agg.sum_squares[g] - s * s / n) / (n - 1.0));
      return N * std::sqrt(var_y / n) * std::sqrt(fpc);
    }
    case AggKind::kAvg: {
      if (agg.count[g] < 2) return HUGE_VAL;
      const double c = static_cast<double>(agg.count[g]);
      const double s = agg.sum[g];
      const double var_x =
          std::max(0.0, (agg.sum_squares[g] - s * s / c) / (c - 1.0));
      return std::sqrt(var_x / c) * std::sqrt(fpc);
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return HUGE_VAL;
  }
  return HUGE_VAL;
}

// sum and avg take numeric arguments only.
Status CheckArgumentType(const AggArrays& agg) {
  if ((agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg) &&
      agg.arg->type() == ValueType::kString) {
    return Status::InvalidArgument(
        StrCat("aggregate ", agg.key, " needs a numeric argument, got STRING"));
  }
  return Status::OK();
}

// Resolves every unique aggregate call of the select list and HAVING: its
// kind and its argument, typed before the scan. A bare column argument is
// read in place; any other argument is compiled for EvaluateArgument.
Result<std::vector<AggArrays>> ResolveCalls(const SelectStatement& stmt,
                                            const Table& table) {
  std::vector<const Expr*> calls;
  for (const SelectItem& item : stmt.items) CollectCalls(*item.expr, &calls);
  if (stmt.having) CollectCalls(*stmt.having, &calls);

  std::vector<const Expr*> unique_calls;
  std::vector<AggArrays> aggs;
  std::unordered_set<std::string> seen;
  for (const Expr* call : calls) {
    for (const auto& arg : call->args) {
      if (arg->ContainsCall()) {
        return Status::InvalidArgument(
            "nested aggregate calls are not supported: " + call->ToString());
      }
    }
    std::string key = call->ToString();
    if (!seen.insert(key).second) continue;
    unique_calls.push_back(call);
    aggs.emplace_back();
    aggs.back().key = std::move(key);
  }

  // Kinds and argument expressions, all checked before any is evaluated.
  for (size_t a = 0; a < aggs.size(); ++a) {
    const Expr& call = *unique_calls[a];
    QAG_ASSIGN_OR_RETURN(aggs[a].kind,
                         AggKindFromName(call.function, call.star_arg));
    if (aggs[a].kind == AggKind::kCountStar) continue;
    if (call.args.size() != 1) {
      return Status::InvalidArgument(
          StrCat("aggregate ", call.function, " takes exactly one argument"));
    }
    const Expr& arg = *call.args[0];
    QAG_ASSIGN_OR_RETURN(CompiledExpr e,
                         CompiledExpr::Compile(arg, table.schema()));
    if (arg.kind == ExprKind::kColumnRef) {
      aggs[a].arg = &table.column(table.schema().FindField(arg.column));
      QAG_RETURN_IF_ERROR(CheckArgumentType(aggs[a]));
    } else {
      aggs[a].expr = std::move(e);
    }
  }
  return aggs;
}

// Evaluates an expression argument at each row of `cell_rows` into a column
// of its own, one cell per entry, and points agg->arg at it.
Status EvaluateArgument(const Table& table,
                        const std::vector<int64_t>& cell_rows,
                        AggArrays* agg) {
  std::vector<Value> cells;
  cells.reserve(cell_rows.size());
  for (int64_t r : cell_rows) cells.push_back(agg->expr->Eval(table, r));
  QAG_ASSIGN_OR_RETURN(Column column, ColumnFromValues(agg->key, cells));
  agg->evaluated = std::make_unique<Column>(std::move(column));
  agg->arg = agg->evaluated.get();
  return CheckArgumentType(*agg);
}

// Derives the result from a grouped state: the env table, HAVING, the
// select items, ORDER BY and LIMIT. With `approx` set, `table` is the
// sample, estimates are scaled, and per-row standard errors for bare
// count/sum/avg select items are written to approx->column_se keyed by
// output column name, aligned with the result's rows.
Result<Table> FinishAggregate(const SelectStatement& stmt, const Table& table,
                              const GroupedState& state,
                              const ApproxContext* approx) {
  const size_t num_groups = state.first_row.size();
  // Build the intermediate "group env" table: group-by columns (original
  // names, cells of each group's first row) + one column per unique
  // aggregate call, named by its canonical text. Select items and HAVING
  // are evaluated against it after rewriting calls into column refs, so
  // under approximate execution they see population-scale estimates. The
  // env columns keep their source types (no RetypeAllNull here), so a
  // well-typed expression type-checks even over empty or all-NULL groups;
  // MaterializeResult applies the result typing rule.
  std::vector<Field> env_fields;
  std::vector<Column> env_columns;
  for (int c : state.group_cols) {
    env_columns.push_back(table.column(c).Take(state.first_row));
    env_fields.push_back(
        {table.schema().field(c).name, env_columns.back().type()});
  }
  for (const AggArrays& agg : state.aggs) {
    env_columns.push_back(AggregateColumn(agg, num_groups, approx));
    env_fields.push_back({agg.key, env_columns.back().type()});
  }
  const Table env = Table::FromColumns(Schema(std::move(env_fields)),
                                       std::move(env_columns));

  // Compile rewritten select items / HAVING against the env table.
  std::vector<std::unique_ptr<Expr>> rewritten;
  std::vector<CompiledExpr> out_exprs;
  for (const SelectItem& item : stmt.items) {
    rewritten.push_back(RewriteCallsToColumns(*item.expr));
    auto compiled = CompiledExpr::Compile(*rewritten.back(), env.schema());
    if (!compiled.ok()) {
      if (compiled.status().code() != StatusCode::kNotFound) {
        return compiled.status();  // ill-typed
      }
      // A bare column that is neither grouped nor aggregated.
      return Status::InvalidArgument(
          StrCat("select item ", item.expr->ToString(),
                 " must be a grouping column or an aggregate (",
                 compiled.status().message(), ")"));
    }
    out_exprs.push_back(std::move(compiled).value());
  }
  std::optional<CompiledExpr> having;
  if (stmt.having) {
    std::unique_ptr<Expr> expr = RewriteCallsToColumns(*stmt.having);
    QAG_ASSIGN_OR_RETURN(CompiledExpr e,
                         CompiledExpr::Compile(*expr, env.schema()));
    having = std::move(e);
  }

  // Candidate result rows: the groups HAVING keeps, in first-seen order.
  std::vector<int64_t> kept;
  kept.reserve(num_groups);
  for (int64_t g = 0; g < env.num_rows(); ++g) {
    if (having) {
      Value keep = having->Eval(env, g);
      if (keep.is_null() || !keep.IsTruthy()) continue;
    }
    kept.push_back(g);
  }
  std::vector<OutputColumn> columns(stmt.items.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    columns[i].name = stmt.items[i].OutputName();
    if (rewritten[i]->kind == ExprKind::kColumnRef) {
      columns[i].column =
          &env.column(env.schema().FindField(rewritten[i]->column));
      continue;
    }
    columns[i].cells.reserve(kept.size());
    for (int64_t g : kept) {
      columns[i].cells.push_back(out_exprs[i].Eval(env, g));
    }
  }
  QAG_ASSIGN_OR_RETURN(std::vector<size_t> order,
                       OrderAndLimit(stmt, columns, kept));

  // Standard errors of bare count/sum/avg select items, in result order.
  // min/max items get no column_se entry, which tells the caller no bound
  // exists for that column.
  if (approx != nullptr) {
    for (const SelectItem& item : stmt.items) {
      if (item.expr->kind != ExprKind::kCall) continue;
      const std::string key = item.expr->ToString();
      const AggArrays& agg = *std::find_if(
          state.aggs.begin(), state.aggs.end(),
          [&key](const AggArrays& a) { return a.key == key; });
      if (agg.kind == AggKind::kMin || agg.kind == AggKind::kMax) continue;
      std::vector<double>& ses = (*approx->column_se)[item.OutputName()];
      ses.clear();
      ses.reserve(order.size());
      for (size_t i : order) {
        ses.push_back(EstimateSe(agg, static_cast<size_t>(kept[i]),
                                 approx->sample_rows,
                                 approx->population_rows));
      }
    }
  }
  return MaterializeResult(std::move(columns), kept, order);
}

// Turns a finished state into a retained one: min/max extremes of an
// expression argument go from cells of its column to the table rows the
// cells were evaluated at (`cell_rows(a)` for call a), and no argument
// column is held.
template <typename CellRows>
void Release(CellRows cell_rows, GroupedState* state) {
  for (size_t a = 0; a < state->aggs.size(); ++a) {
    AggArrays& agg = state->aggs[a];
    if (agg.evaluated != nullptr) {
      const std::vector<int64_t>& rows = cell_rows(a);
      for (int64_t& e : agg.extreme) {
        if (e >= 0) e = rows[static_cast<size_t>(e)];
      }
    }
    agg.arg = nullptr;
    agg.expr.reset();
    agg.evaluated.reset();
  }
}

// Grouped-aggregate path shared by exact and approximate execution (see
// FinishAggregate for `approx`). With `retain` set, an exact execution
// whose keys can be folded hands back its state there.
Result<Table> ExecuteAggregate(const SelectStatement& stmt, const Table& table,
                               const std::vector<int64_t>& rows,
                               const ApproxContext* approx,
                               std::shared_ptr<GroupedState>* retain) {
  if (rows.size() > kMaxAggregateRows) {
    return Status::InvalidArgument(
        StrCat("aggregate input of ", rows.size(), " rows exceeds ",
               kMaxAggregateRows));
  }
  GroupedState state;
  // Resolve grouping columns.
  for (const std::string& name : stmt.group_by) {
    QAG_ASSIGN_OR_RETURN(int idx, table.schema().GetFieldIndex(name));
    state.group_cols.push_back(idx);
  }
  QAG_ASSIGN_OR_RETURN(state.aggs, ResolveCalls(stmt, table));
  // An expression argument is evaluated at the filtered rows only, so its
  // cell i belongs to input row i.
  std::vector<int64_t> positions;
  for (AggArrays& agg : state.aggs) {
    if (!agg.expr) continue;
    QAG_RETURN_IF_ERROR(EvaluateArgument(table, rows, &agg));
    if (positions.empty()) {
      positions.resize(rows.size());
      std::iota(positions.begin(), positions.end(), int64_t{0});
    }
  }

  // Group and accumulate.
  const std::vector<uint64_t> group = AssignGroups(table, rows, &state);
  const size_t num_groups = state.first_row.size();
  for (AggArrays& agg : state.aggs) {
    Accumulate(group, agg.expr ? positions : rows, num_groups, &agg);
  }
  QAG_ASSIGN_OR_RETURN(Table result,
                       FinishAggregate(stmt, table, state, approx));
  if (retain != nullptr && state.foldable) {
    Release([&rows](size_t) -> const std::vector<int64_t>& { return rows; },
            &state);
    state.table_rows = table.num_rows();
    state.input_rows = static_cast<int64_t>(rows.size());
    *retain = std::make_shared<GroupedState>(std::move(state));
  }
  return result;
}

// Folds rows [state.table_rows, n) of `table` into `state`; see
// FoldAppendedRows.
Result<std::optional<Table>> Fold(const SelectStatement& stmt,
                                  const Table& table, GroupedState* state) {
  if (table.num_rows() < state->table_rows) return std::optional<Table>();
  QAG_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                       FilterRows(stmt, table, state->table_rows));
  if (static_cast<size_t>(state->input_rows) + rows.size() >
      kMaxAggregateRows) {
    return std::optional<Table>();  // the full run reports the limit
  }
  // Key the new rows in the frozen code spaces, before anything changes.
  std::vector<uint64_t> key(rows.size(), 0);
  for (const KeyCodes& space : state->key_codes) {
    const Column& column = table.column(space.column);
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::optional<uint64_t> code = FrozenCode(column, space, rows[i]);
      if (!code) return std::optional<Table>();
      key[i] = key[i] * space.radix + *code;
    }
  }
  // Arguments. An expression's column holds its cells at the old extreme
  // rows of a min/max (so new rows compare against them), then at the new
  // rows; `cells[a]` is the argument cell of each new row.
  QAG_ASSIGN_OR_RETURN(std::vector<AggArrays> calls,
                       ResolveCalls(stmt, table));
  std::vector<std::vector<int64_t>> cell_rows(calls.size());
  std::vector<std::vector<int64_t>> cells(calls.size());
  std::vector<std::vector<int64_t>> extremes(calls.size());
  for (size_t a = 0; a < calls.size(); ++a) {
    AggArrays& call = calls[a];
    if (!call.expr) {
      cells[a] = rows;
      continue;
    }
    extremes[a] = state->aggs[a].extreme;
    for (int64_t& e : extremes[a]) {
      if (e < 0) continue;
      cell_rows[a].push_back(e);
      e = static_cast<int64_t>(cell_rows[a].size()) - 1;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      cells[a].push_back(static_cast<int64_t>(cell_rows[a].size()));
      cell_rows[a].push_back(rows[i]);
    }
    QAG_RETURN_IF_ERROR(EvaluateArgument(table, cell_rows[a], &call));
  }

  // Group and accumulate the new rows, in ascending row order after the
  // old ones: the state a full run over all rows would build.
  std::vector<uint64_t> group(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto [id, inserted] = state->group_ids.FindOrInsert(
        key[i], static_cast<int32_t>(state->first_row.size()));
    if (inserted) state->first_row.push_back(rows[i]);
    group[i] = static_cast<uint64_t>(id);
  }
  const size_t num_groups = state->first_row.size();
  for (size_t a = 0; a < calls.size(); ++a) {
    AggArrays& agg = state->aggs[a];
    agg.arg = calls[a].arg;
    agg.expr = std::move(calls[a].expr);
    agg.evaluated = std::move(calls[a].evaluated);
    if (agg.expr) agg.extreme = std::move(extremes[a]);
    Accumulate(group, cells[a], num_groups, &agg);
  }
  Result<Table> result = FinishAggregate(stmt, table, *state, nullptr);
  Release([&cell_rows](size_t a) -> const std::vector<int64_t>& {
    return cell_rows[a];
  }, state);
  state->table_rows = table.num_rows();
  state->input_rows += static_cast<int64_t>(rows.size());
  if (!result.ok()) return result.status();
  return std::optional<Table>(std::move(result).value());
}

// The exact execution behind ExecuteSelect and ExecuteSelectRetained.
Result<Table> ExecuteExact(const SelectStatement& stmt, const Catalog& catalog,
                           std::shared_ptr<GroupedState>* retain) {
  const Table* table = catalog.Find(stmt.table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table_name);
  }
  if (stmt.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  QAG_ASSIGN_OR_RETURN(std::vector<int64_t> rows, FilterRows(stmt, *table));

  // Detect aggregation.
  bool has_calls = stmt.having != nullptr && stmt.having->ContainsCall();
  for (const SelectItem& item : stmt.items) {
    has_calls = has_calls || item.expr->ContainsCall();
  }
  if (stmt.group_by.empty() && !has_calls) {
    if (stmt.having != nullptr) {
      return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    return ExecuteProjection(stmt, *table, rows);
  }

  return ExecuteAggregate(stmt, *table, rows, /*approx=*/nullptr, retain);
}

}  // namespace

Result<Table> ExecuteSelect(const SelectStatement& stmt,
                            const Catalog& catalog) {
  return ExecuteExact(stmt, catalog, /*retain=*/nullptr);
}

Result<Table> ExecuteSelectRetained(const SelectStatement& stmt,
                                    const Catalog& catalog,
                                    std::shared_ptr<GroupedState>* state) {
  state->reset();
  return ExecuteExact(stmt, catalog, state);
}

Result<std::optional<Table>> FoldAppendedRows(const SelectStatement& stmt,
                                              const Catalog& catalog,
                                              GroupedState* state) {
  const Table* table = catalog.Find(stmt.table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table_name);
  }
  return Fold(stmt, *table, state);
}

Result<Table> ExecuteSql(const std::string& sql, const Catalog& catalog) {
  QAG_ASSIGN_OR_RETURN(SelectStatement stmt, Parser::ParseSelect(sql));
  return ExecuteSelect(stmt, catalog);
}

Result<ApproxExecution> ExecuteSelectApproximate(const SelectStatement& stmt,
                                                 const Catalog& catalog) {
  const Table* table = catalog.Find(stmt.table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table_name);
  }
  if (stmt.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  bool has_calls = stmt.having != nullptr && stmt.having->ContainsCall();
  for (const SelectItem& item : stmt.items) {
    has_calls = has_calls || item.expr->ContainsCall();
  }
  const bool aggregate = !stmt.group_by.empty() || has_calls;

  // Sampling only pays off on the aggregate path, and only when the sample
  // is a strict subset of the population: an empty sample estimates
  // nothing, and a sample that covers the whole table IS the exact answer,
  // so run it as one rather than attaching vacuous error bounds.
  const Catalog::SampleInfo* sample = catalog.FindSample(stmt.table_name);
  const bool sampled = aggregate && sample != nullptr &&
                       sample->rows != nullptr &&
                       sample->rows->num_rows() > 0 &&
                       sample->rows->num_rows() < sample->population_rows;
  if (!sampled) {
    QAG_ASSIGN_OR_RETURN(Table exact, ExecuteSelect(stmt, catalog));
    ApproxExecution out{std::move(exact)};
    out.sample_rows = table->num_rows();
    out.population_rows = table->num_rows();
    return out;
  }

  QAG_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                       FilterRows(stmt, *sample->rows));
  std::map<std::string, std::vector<double>> column_se;
  ApproxContext ctx;
  ctx.sample_rows = sample->rows->num_rows();
  ctx.population_rows = sample->population_rows;
  ctx.column_se = &column_se;
  QAG_ASSIGN_OR_RETURN(
      Table estimate,
      ExecuteAggregate(stmt, *sample->rows, rows, &ctx, /*retain=*/nullptr));
  ApproxExecution out{std::move(estimate)};
  out.approximate = true;
  out.sample_rows = ctx.sample_rows;
  out.population_rows = ctx.population_rows;
  out.sample_fraction = static_cast<double>(ctx.sample_rows) /
                        static_cast<double>(ctx.population_rows);
  out.column_se = std::move(column_se);
  return out;
}

Result<ApproxExecution> ExecuteSqlApproximate(const std::string& sql,
                                              const Catalog& catalog) {
  QAG_ASSIGN_OR_RETURN(SelectStatement stmt, Parser::ParseSelect(sql));
  return ExecuteSelectApproximate(stmt, catalog);
}

}  // namespace qagview::sql
