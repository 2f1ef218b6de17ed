#ifndef QAGVIEW_STORAGE_TABLE_H_
#define QAGVIEW_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace qagview::storage {

/// \brief An in-memory columnar table: a Schema plus one Column per field.
///
/// This is the relational substrate standing in for the paper's PostgreSQL
/// backend: data generators and the CSV reader produce Tables; the SQL layer
/// executes aggregate queries over them; query results are again Tables.
class Table {
 public:
  explicit Table(Schema schema);

  // Tables own sizable column data; pass by pointer/reference instead.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_fields(); }
  int64_t num_rows() const { return num_rows_; }

  const Column& column(int i) const { return *columns_[static_cast<size_t>(i)]; }

  /// Assembles a table from whole columns, one per schema field, each of its
  /// field's type and all of one length (a programming error otherwise).
  static Table FromColumns(Schema schema, std::vector<Column> columns);

  /// A table with this one's schema and rows whose columns share its
  /// column storage (Column::Clone): O(columns), and appending to either
  /// table never changes what the other reads. Explicit — Table stays
  /// move-only; the versioned dataset catalog clones the current snapshot
  /// before applying an update.
  Table Clone() const;

  /// Appends one row; `values.size()` must equal the number of columns and
  /// each value must match its column type.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends a batch of rows atomically: every row is validated before any
  /// is appended, so on error the table is unchanged (no partial batch).
  /// Each column claims room for the whole batch once, so appending to a
  /// clone of a table that has not grown since writes in place: O(batch).
  Status AppendRows(const std::vector<std::vector<Value>>& rows);

  /// Boxed cell access.
  Value Get(int64_t row, int col) const { return column(col).Get(row); }

  /// One row as boxed values.
  std::vector<Value> GetRow(int64_t row) const;

  /// Pretty-prints up to `max_rows` rows as an aligned text table.
  std::string ToString(int64_t max_rows = 20) const;

 private:
  /// Shape/type checks of AppendRow, without mutating anything.
  Status ValidateRow(const std::vector<Value>& values) const;

  Schema schema_;
  std::vector<std::unique_ptr<Column>> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_TABLE_H_
