#include "storage/column.h"

namespace qagview::storage {

Column::Column(ValueType type) : type_(type) {
  QAG_CHECK(type != ValueType::kNull) << "column type may not be NULL";
  if (type_ == ValueType::kString) dict_ = std::make_unique<Dictionary>();
}

Column Column::Clone() const {
  Column out(type_);
  out.ints_ = ints_;
  out.doubles_ = doubles_;
  out.codes_ = codes_;
  if (dict_ != nullptr) out.dict_ = std::make_unique<Dictionary>(*dict_);
  out.valid_ = valid_;
  return out;
}

Column Column::Take(const std::vector<int64_t>& rows) const {
  Column out(type_);
  out.valid_.reserve(rows.size());
  std::vector<int32_t> remap;  // source code -> output code, -1 = unused
  switch (type_) {
    case ValueType::kInt64:
      out.ints_.reserve(rows.size());
      break;
    case ValueType::kDouble:
      out.doubles_.reserve(rows.size());
      break;
    case ValueType::kString:
      out.codes_.reserve(rows.size());
      remap.assign(static_cast<size_t>(dict_->size()), -1);
      break;
    case ValueType::kNull:
      break;
  }
  for (const int64_t row : rows) {
    if (row < 0 || IsNull(row)) {
      out.AppendNull();
      continue;
    }
    const size_t r = static_cast<size_t>(row);
    switch (type_) {
      case ValueType::kInt64:
        out.AppendInt(ints_[r]);
        break;
      case ValueType::kDouble:
        out.AppendDouble(doubles_[r]);
        break;
      case ValueType::kString: {
        int32_t& code = remap[static_cast<size_t>(codes_[r])];
        if (code < 0) code = out.dict_->Intern(dict_->GetString(codes_[r]));
        out.codes_.push_back(code);
        out.valid_.push_back(1);
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
  ints_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendDouble(double v) {
  QAG_DCHECK(type_ == ValueType::kDouble);
  doubles_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendString(std::string_view v) {
  QAG_DCHECK(type_ == ValueType::kString);
  codes_.push_back(dict_->Intern(v));
  valid_.push_back(1);
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      codes_.push_back(-1);
      break;
    case ValueType::kNull:
      break;
  }
  valid_.push_back(0);
}

Value Column::Get(int64_t row) const {
  QAG_DCHECK(row >= 0 && row < size());
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int(ints_[static_cast<size_t>(row)]);
    case ValueType::kDouble:
      return Value::Real(doubles_[static_cast<size_t>(row)]);
    case ValueType::kString:
      return Value::Str(dict_->GetString(codes_[static_cast<size_t>(row)]));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

int64_t Column::GetInt(int64_t row) const {
  QAG_DCHECK(type_ == ValueType::kInt64 && !IsNull(row));
  return ints_[static_cast<size_t>(row)];
}

double Column::GetDouble(int64_t row) const {
  QAG_DCHECK(!IsNull(row));
  if (type_ == ValueType::kInt64) {
    return static_cast<double>(ints_[static_cast<size_t>(row)]);
  }
  QAG_DCHECK(type_ == ValueType::kDouble);
  return doubles_[static_cast<size_t>(row)];
}

const std::string& Column::GetString(int64_t row) const {
  QAG_DCHECK(type_ == ValueType::kString && !IsNull(row));
  return dict_->GetString(codes_[static_cast<size_t>(row)]);
}

int32_t Column::GetStringCode(int64_t row) const {
  QAG_DCHECK(type_ == ValueType::kString);
  return codes_[static_cast<size_t>(row)];
}

const Dictionary& Column::dictionary() const {
  QAG_DCHECK(type_ == ValueType::kString);
  return *dict_;
}

}  // namespace qagview::storage
