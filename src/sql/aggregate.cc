#include "sql/aggregate.h"

namespace qagview::sql {

Result<AggKind> AggKindFromName(const std::string& name, bool star) {
  if (name == "count") return star ? AggKind::kCountStar : AggKind::kCount;
  if (star) {
    return Status::ParseError("'*' argument is only valid for count()");
  }
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  return Status::ParseError("unknown aggregate function: " + name);
}

void Aggregator::Add(const storage::Value& v) {
  if (kind_ == AggKind::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  switch (kind_) {
    case AggKind::kCount:
      ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg: {
      const double x = v.ToDouble();
      sum_ += x;
      sum_squares_ += x * x;
      ++count_;
      break;
    }
    case AggKind::kMin:
      if (!has_extreme_ || v.Compare(extreme_) < 0) extreme_ = v;
      has_extreme_ = true;
      break;
    case AggKind::kMax:
      if (!has_extreme_ || v.Compare(extreme_) > 0) extreme_ = v;
      has_extreme_ = true;
      break;
    case AggKind::kCountStar:
      break;
  }
}

void Aggregator::AddRow() {
  QAG_DCHECK(kind_ == AggKind::kCountStar);
  ++count_;
}

storage::Value Aggregator::Finish() const {
  switch (kind_) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return storage::Value::Int(count_);
    case AggKind::kSum:
      return count_ == 0 ? storage::Value::Null()
                         : storage::Value::Real(sum_);
    case AggKind::kAvg:
      return count_ == 0 ? storage::Value::Null()
                         : storage::Value::Real(sum_ / count_);
    case AggKind::kMin:
    case AggKind::kMax:
      return has_extreme_ ? extreme_ : storage::Value::Null();
  }
  return storage::Value::Null();
}

void Aggregator::Reset() {
  count_ = 0;
  sum_ = 0.0;
  sum_squares_ = 0.0;
  has_extreme_ = false;
  extreme_ = storage::Value::Null();
}

}  // namespace qagview::sql
