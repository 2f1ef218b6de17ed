#ifndef QAGVIEW_STORAGE_COLUMN_H_
#define QAGVIEW_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/dictionary.h"
#include "storage/value.h"

namespace qagview::storage {

/// \brief One typed, in-memory column.
///
/// Int64 and double columns store flat vectors; string columns are
/// dictionary-encoded (int32 codes + a per-column Dictionary). NULLs are
/// tracked in a validity vector.
class Column {
 public:
  explicit Column(ValueType type);

  ValueType type() const { return type_; }
  int64_t size() const { return static_cast<int64_t>(valid_.size()); }

  /// Deep copy of the column (data plus dictionary). Explicit — Column is
  /// not copy-constructible, so sizable copies never happen by accident;
  /// the snapshot-producing catalog mutations are the intended caller.
  Column Clone() const;

  /// Appends a value; NULL is always accepted, otherwise the value type must
  /// match the column type (int64 is accepted into double columns).
  void Append(const Value& v);

  /// Typed appends (hot paths in the data generators).
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  bool IsNull(int64_t row) const { return !valid_[static_cast<size_t>(row)]; }

  /// Boxed access (NULL-aware).
  Value Get(int64_t row) const;

  /// Unboxed access; requires a non-NULL row of the matching type.
  int64_t GetInt(int64_t row) const;
  double GetDouble(int64_t row) const;
  const std::string& GetString(int64_t row) const;

  /// Dictionary code of a string cell (string columns only).
  int32_t GetStringCode(int64_t row) const;

  /// The dictionary backing a string column.
  const Dictionary& dictionary() const;

  /// Native per-row arrays for columnar kernels (sql/executor.cc). Only the
  /// array of the column's type is populated; a NULL row holds a placeholder
  /// (0, 0.0, or code -1) there and 0 in validity().
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& codes() const { return codes_; }
  const std::vector<uint8_t>& validity() const { return valid_; }

  /// New column of the same type holding the cells at `rows`, in order; a
  /// negative index yields NULL. A string column's dictionary holds only
  /// the strings the selected cells use, in first-use order — the same
  /// codes appending those cells one by one would assign.
  Column Take(const std::vector<int64_t>& rows) const;

 private:
  ValueType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  std::unique_ptr<Dictionary> dict_;
  std::vector<uint8_t> valid_;  // 1 = present, 0 = NULL
};

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_COLUMN_H_
