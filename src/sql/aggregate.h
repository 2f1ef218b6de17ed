#ifndef QAGVIEW_SQL_AGGREGATE_H_
#define QAGVIEW_SQL_AGGREGATE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "storage/value.h"

namespace qagview::sql {

enum class AggKind { kCount, kCountStar, kSum, kAvg, kMin, kMax };

/// Maps a lower-cased function name ("avg", ...) to its kind.
/// `star` selects count(*) over count(expr).
Result<AggKind> AggKindFromName(const std::string& name, bool star);

/// \brief Streaming aggregate accumulator (SQL NULL semantics: NULL inputs
/// are skipped by every aggregate except count(*)).
///
/// The row-at-a-time statement of the aggregate semantics. The executor
/// does not call it -- its columnar kernel keeps the same state in flat
/// per-group arrays (sql/executor.cc) -- but the reference evaluator of
/// executor_differential_test does, holding the kernel to its results bit
/// for bit.
class Aggregator {
 public:
  explicit Aggregator(AggKind kind) : kind_(kind) {}

  /// Folds one input row's argument value in.
  void Add(const storage::Value& v);

  /// Folds one row into count(*) (no argument).
  void AddRow();

  /// Final value: count -> INT64, sum/avg -> DOUBLE, min/max -> input type.
  /// Empty input: count -> 0, others -> NULL.
  storage::Value Finish() const;

  void Reset();

  AggKind kind() const { return kind_; }

  /// Accumulator internals, from which approximate execution derives its
  /// scaled estimators and CLT standard errors: non-null inputs folded
  /// (rows for count(*)), their sum, and their sum of squares (sum and
  /// sum_squares are maintained for sum/avg only).
  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double sum_squares() const { return sum_squares_; }

 private:
  AggKind kind_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
  bool has_extreme_ = false;
  storage::Value extreme_;  // current min or max
};

}  // namespace qagview::sql

#endif  // QAGVIEW_SQL_AGGREGATE_H_
