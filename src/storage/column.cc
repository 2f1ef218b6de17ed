#include "storage/column.h"

#include <algorithm>
#include <cstring>

namespace qagview::storage {

namespace {

// Capacity of a column's first buffer when it grows row by row.
constexpr int64_t kMinCapacity = 16;

template <typename T>
std::unique_ptr<T[]> Allocate(int64_t capacity) {
  return std::unique_ptr<T[]>(new T[static_cast<size_t>(capacity)]);
}

template <typename T>
void CopyPrefix(const std::unique_ptr<T[]>& from, int64_t rows,
                std::unique_ptr<T[]>* to) {
  if (from != nullptr && rows > 0) {
    std::memcpy(to->get(), from.get(), static_cast<size_t>(rows) * sizeof(T));
  }
}

}  // namespace

Column::Buffer::Buffer(ValueType type, int64_t capacity_rows)
    : capacity(capacity_rows), valid(Allocate<uint8_t>(capacity_rows)) {
  switch (type) {
    case ValueType::kInt64:
      ints = Allocate<int64_t>(capacity);
      break;
    case ValueType::kDouble:
      doubles = Allocate<double>(capacity);
      break;
    case ValueType::kString:
      codes = Allocate<int32_t>(capacity);
      break;
    case ValueType::kNull:
      break;
  }
}

Column::Column(ValueType type) : type_(type) {
  QAG_CHECK(type != ValueType::kNull) << "column type may not be NULL";
  if (type_ == ValueType::kString) dict_ = std::make_shared<Dictionary>();
}

Column Column::Clone() const {
  Column out(type_);
  out.buf_ = buf_;
  out.dict_ = dict_;
  out.size_ = size_;
  out.claimed_ = size_;
  return out;
}

void Column::Claim(int64_t count) {
  // In place: nothing past this column's claimed rows has been claimed by
  // another column, and the new rows fit. Rows below the frontier are never
  // written again, so the readers of every other column sharing the buffer
  // are undisturbed.
  if (buf_ != nullptr && claimed_ + count <= buf_->capacity) {
    int64_t expected = claimed_;
    if (buf_->frontier.compare_exchange_strong(expected, claimed_ + count,
                                               std::memory_order_relaxed)) {
      claimed_ += count;
      return;
    }
  }
  // Another column owns the rows past this one's end, or the buffer is
  // full: move this column's rows to a fresh buffer of at least twice the
  // capacity.
  const int64_t capacity =
      std::max({claimed_ + count, 2 * (buf_ ? buf_->capacity : 0),
                kMinCapacity});
  auto fresh = std::make_shared<Buffer>(type_, capacity);
  if (buf_ != nullptr) {
    CopyPrefix(buf_->ints, size_, &fresh->ints);
    CopyPrefix(buf_->doubles, size_, &fresh->doubles);
    CopyPrefix(buf_->codes, size_, &fresh->codes);
    CopyPrefix(buf_->valid, size_, &fresh->valid);
  }
  claimed_ += count;
  fresh->frontier.store(claimed_, std::memory_order_relaxed);
  buf_ = std::move(fresh);
}

void Column::Reserve(int64_t count) {
  if (claimed_ - size_ < count) Claim(count - (claimed_ - size_));
}

Column Column::Take(const std::vector<int64_t>& rows) const {
  Column out(type_);
  out.Reserve(static_cast<int64_t>(rows.size()));
  std::vector<int32_t> remap;  // source code -> output code, -1 = unused
  if (type_ == ValueType::kString) {
    remap.assign(static_cast<size_t>(dict_->size()), -1);
  }
  for (const int64_t row : rows) {
    if (row < 0 || IsNull(row)) {
      out.AppendNull();
      continue;
    }
    const size_t r = static_cast<size_t>(row);
    switch (type_) {
      case ValueType::kInt64:
        out.AppendInt(buf_->ints[r]);
        break;
      case ValueType::kDouble:
        out.AppendDouble(buf_->doubles[r]);
        break;
      case ValueType::kString: {
        int32_t& code = remap[static_cast<size_t>(buf_->codes[r])];
        if (code < 0) code = out.dict_->Intern(dict_->GetString(buf_->codes[r]));
        out.buf_->codes[static_cast<size_t>(out.size_)] = code;
        out.Put(1);
        break;
      }
      case ValueType::kNull:
        break;
    }
  }
  return out;
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      QAG_CHECK(v.type() == ValueType::kInt64)
          << "appending " << ValueTypeToString(v.type()) << " to INT64 column";
      AppendInt(v.as_int());
      return;
    case ValueType::kDouble:
      AppendDouble(v.ToDouble());
      return;
    case ValueType::kString:
      QAG_CHECK(v.type() == ValueType::kString)
          << "appending " << ValueTypeToString(v.type())
          << " to STRING column";
      AppendString(v.as_string());
      return;
    case ValueType::kNull:
      break;
  }
  QAG_LOG(Fatal) << "unreachable";
}

void Column::AppendInt(int64_t v) {
  QAG_DCHECK(type_ == ValueType::kInt64);
  ClaimOne();
  buf_->ints[static_cast<size_t>(size_)] = v;
  Put(1);
}

void Column::AppendDouble(double v) {
  QAG_DCHECK(type_ == ValueType::kDouble);
  ClaimOne();
  buf_->doubles[static_cast<size_t>(size_)] = v;
  Put(1);
}

void Column::AppendString(std::string_view v) {
  QAG_DCHECK(type_ == ValueType::kString);
  std::optional<int32_t> code = dict_->Find(v);
  if (!code.has_value()) {
    // Copy-on-write: a dictionary another column reads is never changed.
    if (dict_.use_count() > 1) dict_ = std::make_shared<Dictionary>(*dict_);
    code = dict_->Intern(v);
  }
  ClaimOne();
  buf_->codes[static_cast<size_t>(size_)] = *code;
  Put(1);
}

void Column::AppendNull() {
  ClaimOne();
  const size_t r = static_cast<size_t>(size_);
  switch (type_) {
    case ValueType::kInt64:
      buf_->ints[r] = 0;
      break;
    case ValueType::kDouble:
      buf_->doubles[r] = 0.0;
      break;
    case ValueType::kString:
      buf_->codes[r] = -1;
      break;
    case ValueType::kNull:
      break;
  }
  Put(0);
}

Value Column::Get(int64_t row) const {
  QAG_DCHECK(row >= 0 && row < size());
  if (IsNull(row)) return Value::Null();
  const size_t r = static_cast<size_t>(row);
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int(buf_->ints[r]);
    case ValueType::kDouble:
      return Value::Real(buf_->doubles[r]);
    case ValueType::kString:
      return Value::Str(dict_->GetString(buf_->codes[r]));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

int64_t Column::GetInt(int64_t row) const {
  QAG_DCHECK(type_ == ValueType::kInt64 && !IsNull(row));
  return ints()[static_cast<size_t>(row)];
}

double Column::GetDouble(int64_t row) const {
  QAG_DCHECK(!IsNull(row));
  if (type_ == ValueType::kInt64) {
    return static_cast<double>(ints()[static_cast<size_t>(row)]);
  }
  QAG_DCHECK(type_ == ValueType::kDouble);
  return doubles()[static_cast<size_t>(row)];
}

const std::string& Column::GetString(int64_t row) const {
  QAG_DCHECK(type_ == ValueType::kString && !IsNull(row));
  return dict_->GetString(codes()[static_cast<size_t>(row)]);
}

int32_t Column::GetStringCode(int64_t row) const {
  QAG_DCHECK(type_ == ValueType::kString);
  return codes()[static_cast<size_t>(row)];
}

const Dictionary& Column::dictionary() const {
  QAG_DCHECK(type_ == ValueType::kString);
  return *dict_;
}

}  // namespace qagview::storage
