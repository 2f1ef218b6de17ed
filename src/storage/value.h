#ifndef QAGVIEW_STORAGE_VALUE_H_
#define QAGVIEW_STORAGE_VALUE_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"

namespace qagview::storage {

/// Physical type of a column or scalar value.
enum class ValueType { kNull, kInt64, kDouble, kString };

const char* ValueTypeToString(ValueType type);

/// The bit pattern a double groups under: its own, except that -0.0 groups
/// with 0.0 and every NaN with every other (one quiet-NaN pattern, never
/// all ones).
inline uint64_t GroupingBits(double x) {
  if (std::isnan(x)) return 0x7ff8000000000000ULL;
  if (x == 0.0) x = 0.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// \brief A dynamically-typed scalar: NULL, 64-bit int, double, or string.
///
/// Used at API boundaries (query literals, CSV cells, result rows). Hot
/// loops in the summarization core never touch Value; they operate on
/// dictionary codes (see storage::Dictionary).
class Value {
 public:
  /// Constructs NULL.
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.type_ = ValueType::kInt64;
    out.int_ = v;
    return out;
  }
  static Value Real(double v) {
    Value out;
    out.type_ = ValueType::kDouble;
    out.double_ = v;
    return out;
  }
  static Value Str(std::string v) {
    Value out;
    out.type_ = ValueType::kString;
    out.string_ = std::move(v);
    return out;
  }
  static Value Bool(bool v) { return Int(v ? 1 : 0); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t as_int() const {
    QAG_DCHECK(type_ == ValueType::kInt64);
    return int_;
  }
  double as_double() const {
    QAG_DCHECK(type_ == ValueType::kDouble);
    return double_;
  }
  const std::string& as_string() const {
    QAG_DCHECK(type_ == ValueType::kString);
    return string_;
  }

  /// Numeric coercion: int64 and double both read as double.
  /// Requires a numeric type.
  double ToDouble() const;

  /// True iff the value is numeric and non-zero (SQL-ish truthiness).
  bool IsTruthy() const;

  /// Human-readable form ("NULL", "42", "3.14", "abc").
  std::string ToString() const;

  /// Equality with int/double coercion (1 == 1.0). NULL != anything,
  /// including NULL (SQL semantics are applied at the expression layer; this
  /// operator treats two NULLs as equal so Values can live in containers).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Three-way compare: -1/0/1. Numerics coerce; strings compare
  /// lexicographically; NULL sorts before everything. Comparing a string
  /// with a numeric is a programming error.
  int Compare(const Value& other) const;

 private:
  ValueType type_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
};

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_VALUE_H_
