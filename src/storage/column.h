#ifndef QAGVIEW_STORAGE_COLUMN_H_
#define QAGVIEW_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "storage/dictionary.h"
#include "storage/value.h"

namespace qagview::storage {

/// \brief One typed, in-memory column.
///
/// Int64 and double columns store flat arrays; string columns are
/// dictionary-encoded (int32 codes + a Dictionary). NULLs are tracked in a
/// validity array.
///
/// **Shared, append-only storage.** The cells live in a buffer that
/// columns share: Clone() copies two pointers and a length, and each column
/// reads only the rows below its own length. The buffer records a
/// frontier, the highest row any column sharing it has claimed. An append
/// writes in place when the column's length equals the frontier (it claims
/// the new rows with one compare-and-swap per batch); otherwise another
/// column already owns the rows past this one's end, so the append copies
/// this column's prefix into a fresh buffer of twice the capacity. A
/// string column shares its Dictionary the same way and copies it only to
/// intern a new string into one another column also uses. Every column
/// therefore keeps value semantics: appending to one never changes what
/// another reads. Not thread-safe for writes; concurrent reads of columns
/// that share storage with a column being appended to are safe.
class Column {
 public:
  explicit Column(ValueType type);

  // Not copyable (use Clone(), which says what it costs); movable.
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  ValueType type() const { return type_; }
  int64_t size() const { return size_; }

  /// Rows the column's storage has room for before an append moves it.
  int64_t capacity() const { return buf_ ? buf_->capacity : 0; }

  /// A column with this one's cells that shares its storage: O(1). Later
  /// appends to either column never change what the other reads.
  Column Clone() const;

  /// Appends a value; NULL is always accepted, otherwise the value type must
  /// match the column type (int64 is accepted into double columns).
  void Append(const Value& v);

  /// Typed appends (hot paths in the data generators).
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  /// Claims room for `count` more rows at once, so the next `count` appends
  /// write without claiming again (a batch append's single claim; a bulk
  /// builder that knows its row count reserves it up front).
  void Reserve(int64_t count);

  bool IsNull(int64_t row) const {
    return validity()[static_cast<size_t>(row)] == 0;
  }

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

  /// Native per-row arrays for columnar kernels (sql/executor.cc), one
  /// element per row. Only the array of the column's type is populated (the
  /// others are empty); a NULL row holds a placeholder (0, 0.0, or code -1)
  /// there and 0 in validity().
  Span<int64_t> ints() const {
    return View(buf_ ? buf_->ints.get() : nullptr);
  }
  Span<double> doubles() const {
    return View(buf_ ? buf_->doubles.get() : nullptr);
  }
  Span<int32_t> codes() const {
    return View(buf_ ? buf_->codes.get() : nullptr);
  }
  Span<uint8_t> validity() const {
    return View(buf_ ? buf_->valid.get() : nullptr);
  }

  /// New column of the same type holding the cells at `rows`, in order; a
  /// negative index yields NULL. A string column's dictionary holds only
  /// the strings the selected cells use, in first-use order — the same
  /// codes appending those cells one by one would assign.
  Column Take(const std::vector<int64_t>& rows) const;

 private:
  /// Storage shared by a column and its clones: capacity rows of the typed
  /// array (only the column type's is allocated) and of validity.
  struct Buffer {
    Buffer(ValueType type, int64_t capacity);

    const int64_t capacity;
    /// Rows [0, frontier) have been claimed by some column; only the column
    /// whose length equals the frontier may claim more.
    std::atomic<int64_t> frontier{0};
    std::unique_ptr<int64_t[]> ints;
    std::unique_ptr<double[]> doubles;
    std::unique_ptr<int32_t[]> codes;
    std::unique_ptr<uint8_t[]> valid;  // 1 = present, 0 = NULL
  };

  /// This column's rows of one of buf_'s arrays (empty when not allocated).
  template <typename T>
  Span<T> View(const T* data) const {
    return data == nullptr ? Span<T>()
                           : Span<T>(data, static_cast<size_t>(size_));
  }

  /// Makes rows [size_, size_ + count) writable: claims them in the shared
  /// buffer, or moves this column's prefix to a fresh buffer.
  void Claim(int64_t count);

  /// Claims one row unless an earlier Reserve already did.
  void ClaimOne() {
    if (size_ == claimed_) Claim(1);
  }

  /// Sets the validity of row size_, whose cell is written, and advances.
  void Put(uint8_t valid) {
    buf_->valid[static_cast<size_t>(size_)] = valid;
    ++size_;
  }

  ValueType type_;
  std::shared_ptr<Buffer> buf_;
  std::shared_ptr<Dictionary> dict_;
  int64_t size_ = 0;
  /// Rows [size_, claimed_) of buf_ are claimed by this column.
  int64_t claimed_ = 0;
};

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_COLUMN_H_
