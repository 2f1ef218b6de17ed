#ifndef QAGVIEW_SQL_EXECUTOR_H_
#define QAGVIEW_SQL_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace qagview::sql {

/// \brief Name → table registry the executor resolves FROM clauses against.
///
/// The catalog does not own tables; registered tables must outlive it. A
/// Catalog instance is built per execution and is not thread-safe (the
/// service layer snapshots one per query).
class Catalog {
 public:
  /// Registers (or replaces) a table under a case-insensitive name.
  void Register(const std::string& name, const storage::Table* table);

  /// Looks a table up; nullptr if absent. Successful lookups are recorded
  /// in accessed().
  const storage::Table* Find(const std::string& name) const;

  /// A registered uniform sample backing approximate execution of queries
  /// against one table: the sampled rows plus the population size they
  /// were drawn from.
  struct SampleInfo {
    const storage::Table* rows = nullptr;
    int64_t population_rows = 0;
  };

  /// Registers (or replaces) the uniform sample for `name`. Like the table
  /// itself, the sample is not owned and must outlive the catalog.
  void RegisterSample(const std::string& name, const storage::Table* rows,
                      int64_t population_rows);

  /// The sample registered for `name`, or nullptr. Does not touch
  /// accessed(): approximate execution resolves the table through Find()
  /// first, so the dependency set is the same as an exact execution's.
  const SampleInfo* FindSample(const std::string& name) const;

  /// Lower-cased names of the tables Find() resolved so far, in
  /// first-access order, deduplicated — the dependency set of the queries
  /// executed against this catalog instance. The versioned-refresh layer
  /// uses it to know which table versions a cached answer set was built
  /// from.
  const std::vector<std::string>& accessed() const { return accessed_; }

 private:
  std::unordered_map<std::string, const storage::Table*> tables_;
  std::unordered_map<std::string, SampleInfo> samples_;
  mutable std::vector<std::string> accessed_;
};

/// \brief Executes a parsed SELECT against the catalog.
///
/// Supports the paper's aggregate template — WHERE filter, GROUP BY over any
/// columns, aggregates (count/count(*)/sum/avg/min/max) in the select list
/// and HAVING, expressions over aggregates and grouping columns, ORDER BY
/// output columns, LIMIT — plus plain (non-grouped) projections.
Result<storage::Table> ExecuteSelect(const SelectStatement& stmt,
                                     const Catalog& catalog);

/// Parses and executes `sql` in one step.
Result<storage::Table> ExecuteSql(const std::string& sql,
                                  const Catalog& catalog);

/// \brief The per-group state of one exact grouped execution: the groups
/// with their first rows and each aggregate call's accumulators (count,
/// sum, sum of squares, extreme row), the grouping columns' code spaces
/// frozen, and the key -> group map. Opaque; see FoldAppendedRows.
struct GroupedState;

/// Executes like ExecuteSelect and, when the statement is a grouped
/// aggregate whose group keys can be folded (no key had to be
/// re-densified), hands back its per-group state in `*state` (nullptr
/// otherwise).
Result<storage::Table> ExecuteSelectRetained(
    const SelectStatement& stmt, const Catalog& catalog,
    std::shared_ptr<GroupedState>* state);

/// Folds the rows the statement's table gained since `state` was taken --
/// rows [n_prior, n) -- into `state`, in ascending row order, and re-runs
/// the select items, HAVING, ORDER BY and LIMIT over the groups: the
/// result ExecuteSelect returns over all n rows, bit for bit. The caller
/// guarantees the table is the one `stmt` ran over when `state` was taken,
/// grown by appends only (rows below n_prior unchanged). Returns
/// std::nullopt, with `state` unchanged, when the rows cannot be folded: a
/// new row carries a grouping value outside a frozen code space (a string
/// new to the dictionary, an int64 or double value the groups never had),
/// or the table shrank. The caller then runs the statement in full.
Result<std::optional<storage::Table>> FoldAppendedRows(
    const SelectStatement& stmt, const Catalog& catalog, GroupedState* state);

/// \brief Result of an approximate execution.
///
/// When `approximate` is false the statement was executed exactly (no
/// sample registered for the table, the sample covers the whole table, or
/// the statement has no aggregate path) and `column_se` is empty. When
/// true, `table` holds estimates computed from the registered sample —
/// count and sum estimators scaled by N/n, avg unscaled — and `column_se`
/// maps each output column that is a bare count/sum/avg aggregate call to
/// its per-row CLT standard errors, aligned with `table`'s rows. min/max
/// and expressions over aggregates get no `column_se` entry (no CLT error
/// bound exists for them); per-group standard errors that do not exist
/// (avg over fewer than two sample rows) are HUGE_VAL.
struct ApproxExecution {
  explicit ApproxExecution(storage::Table estimate)
      : table(std::move(estimate)) {}

  storage::Table table;
  bool approximate = false;
  int64_t sample_rows = 0;       // n: sample rows, before WHERE
  int64_t population_rows = 0;   // N: full-table rows, before WHERE
  double sample_fraction = 1.0;  // n / N (1.0 when exact)
  std::map<std::string, std::vector<double>> column_se;
};

/// Executes the statement against the sample registered for its table,
/// scaling estimators and attaching CLT standard errors (see
/// ApproxExecution). Falls back to exact execution — same result as
/// ExecuteSelect — when no useful sample exists or the statement has no
/// aggregate path. Estimates are deterministic in (sample, statement).
Result<ApproxExecution> ExecuteSelectApproximate(const SelectStatement& stmt,
                                                 const Catalog& catalog);

/// Parses and approximately executes `sql` in one step.
Result<ApproxExecution> ExecuteSqlApproximate(const std::string& sql,
                                              const Catalog& catalog);

}  // namespace qagview::sql

#endif  // QAGVIEW_SQL_EXECUTOR_H_
