#include "core/answer_set.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace qagview::core {

namespace {

/// The exact bit pattern of a double, so fingerprint equality means
/// bit-identity (distinguishes -0.0 from 0.0, unlike operator==).
uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Display name of a double attribute value: its usual rendering when that
/// parses back to the value, else all 17 significant digits, so two values
/// that group apart never share a name.
std::string DoubleName(double v) {
  std::string name = storage::Value::Real(v).ToString();
  if (storage::GroupingBits(std::strtod(name.c_str(), nullptr)) ==
      storage::GroupingBits(v)) {
    return name;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Interns one attribute column's cells to dense codes in first-seen order,
/// by typed value, as the SQL kernel groups them: a string by its
/// dictionary code, an int64 by value, a double by GroupingBits (-0.0 with
/// 0.0, every NaN together), and NULL as a value of its own. Appends each
/// new value's display name to `names`.
class AttributeInterner {
 public:
  AttributeInterner(const storage::Column& column,
                    std::vector<std::string>* names)
      : column_(column), names_(names) {
    if (column.type() == storage::ValueType::kString) {
      by_code_.assign(static_cast<size_t>(column.dictionary().size()), -1);
    }
  }

  int32_t Intern(int64_t row) {
    if (column_.IsNull(row)) return Code(&null_, [] { return "<null>"; });
    const size_t r = static_cast<size_t>(row);
    switch (column_.type()) {
      case storage::ValueType::kString: {
        const int32_t dict_code = column_.codes()[r];
        return Code(&by_code_[static_cast<size_t>(dict_code)], [&] {
          return column_.dictionary().GetString(dict_code);
        });
      }
      case storage::ValueType::kInt64: {
        const int64_t v = column_.ints()[r];
        auto name = [v] { return std::to_string(v); };
        // -1's all-ones pattern is FlatMap64's reserved key.
        if (v == -1) return Code(&minus_one_, name);
        return CodeOf(static_cast<uint64_t>(v), name);
      }
      case storage::ValueType::kDouble: {
        const double v = column_.doubles()[r];
        return CodeOf(storage::GroupingBits(v), [v] { return DoubleName(v); });
      }
      case storage::ValueType::kNull:
        break;
    }
    return 0;
  }

 private:
  // The code in `*slot`, first assigning the next one (named `name()`).
  template <typename Name>
  int32_t Code(int32_t* slot, Name name) {
    if (*slot < 0) {
      *slot = static_cast<int32_t>(names_->size());
      names_->push_back(name());
    }
    return *slot;
  }

  template <typename Name>
  int32_t CodeOf(uint64_t key, Name name) {
    const auto [code, inserted] =
        by_bits_.FindOrInsert(key, static_cast<int32_t>(names_->size()));
    if (inserted) names_->push_back(name());
    return code;
  }

  const storage::Column& column_;
  std::vector<std::string>* names_;
  std::vector<int32_t> by_code_;  // dictionary code -> code, -1 = unseen
  FlatMap64 by_bits_;             // int64 value / double bits -> code
  int32_t minus_one_ = -1;
  int32_t null_ = -1;
};

}  // namespace

double TwoSidedNormalQuantile(double confidence) {
  QAG_CHECK(confidence > 0.0 && confidence < 1.0)
      << "confidence must be in (0, 1)";
  // P(|Z| <= z) = erf(z / sqrt(2)) is monotone; bisect it. 200 halvings of
  // [0, 40] are far below double epsilon, so this is exact to the ulp.
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (std::erf(mid / std::sqrt(2.0)) < confidence) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Result<AnswerSet> AnswerSet::FromTable(const storage::Table& table,
                                       const std::string& value_column) {
  return FromTableImpl(table, value_column, /*row_se=*/nullptr, /*z=*/0.0,
                       Approximation{});
}

Result<AnswerSet> AnswerSet::FromTableApproximate(
    const storage::Table& table, const std::string& value_column,
    const std::vector<double>& row_se, double confidence, int64_t sample_rows,
    int64_t population_rows) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  if (static_cast<int64_t>(row_se.size()) != table.num_rows()) {
    return Status::InvalidArgument(
        StrCat("row_se has ", row_se.size(), " entries for ", table.num_rows(),
               " result rows"));
  }
  if (sample_rows <= 0 || sample_rows > population_rows) {
    return Status::InvalidArgument(
        "need 0 < sample_rows <= population_rows");
  }
  Approximation approx;
  approx.is_exact = false;
  approx.sample_fraction = static_cast<double>(sample_rows) /
                           static_cast<double>(population_rows);
  approx.confidence = confidence;
  approx.sample_rows = sample_rows;
  approx.population_rows = population_rows;
  return FromTableImpl(table, value_column, &row_se,
                       TwoSidedNormalQuantile(confidence), std::move(approx));
}

Result<AnswerSet> AnswerSet::FromTableImpl(const storage::Table& table,
                                           const std::string& value_column,
                                           const std::vector<double>* row_se,
                                           double z, Approximation approx) {
  const storage::Schema& schema = table.schema();
  QAG_ASSIGN_OR_RETURN(int value_col, schema.GetFieldIndex(value_column));
  storage::ValueType vt = schema.field(value_col).type;
  if (vt != storage::ValueType::kInt64 && vt != storage::ValueType::kDouble) {
    return Status::InvalidArgument(
        StrCat("value column ", value_column, " must be numeric, is ",
               storage::ValueTypeToString(vt)));
  }

  AnswerSet out;
  std::vector<int> attr_cols;
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (c == value_col) continue;
    attr_cols.push_back(c);
    out.attr_names_.push_back(schema.field(c).name);
  }
  if (attr_cols.empty()) {
    return Status::InvalidArgument("answer set needs at least one attribute");
  }

  out.value_names_.resize(attr_cols.size());
  std::vector<AttributeInterner> interning;
  interning.reserve(attr_cols.size());
  for (size_t a = 0; a < attr_cols.size(); ++a) {
    interning.emplace_back(table.column(attr_cols[a]), &out.value_names_[a]);
  }

  const storage::Column& values = table.column(value_col);
  out.elements_.reserve(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (values.IsNull(r)) continue;  // no score: skip
    Element e;
    e.value = values.GetDouble(r);
    if (row_se != nullptr) {
      // Every element of an approximate set must carry a usable bound;
      // rows without one (non-finite SE) are dropped before their
      // attribute values are interned.
      e.bound = z * (*row_se)[static_cast<size_t>(r)];
      if (!std::isfinite(e.bound)) continue;
    }
    e.attrs.reserve(attr_cols.size());
    for (AttributeInterner& interner : interning) {
      e.attrs.push_back(interner.Intern(r));
    }
    out.elements_.push_back(std::move(e));
  }
  if (out.elements_.empty()) {
    return Status::InvalidArgument("answer set is empty");
  }
  out.approx_ = std::move(approx);  // before SortAndFinalize: is_exact is
                                    // part of the content fingerprint
  out.SortAndFinalize();
  return out;
}

Result<AnswerSet> AnswerSet::FromRaw(
    std::vector<std::string> attr_names,
    std::vector<std::vector<std::string>> value_names,
    std::vector<Element> elements) {
  if (attr_names.empty()) {
    return Status::InvalidArgument("need at least one attribute");
  }
  if (attr_names.size() != value_names.size()) {
    return Status::InvalidArgument("attr_names/value_names size mismatch");
  }
  for (const Element& e : elements) {
    if (e.attrs.size() != attr_names.size()) {
      return Status::InvalidArgument("element arity mismatch");
    }
    for (size_t a = 0; a < e.attrs.size(); ++a) {
      if (e.attrs[a] < 0 ||
          e.attrs[a] >= static_cast<int32_t>(value_names[a].size())) {
        return Status::OutOfRange(
            StrCat("element code ", e.attrs[a], " out of range for attr ",
                   attr_names[a]));
      }
    }
  }
  if (elements.empty()) {
    return Status::InvalidArgument("answer set is empty");
  }
  AnswerSet out;
  out.attr_names_ = std::move(attr_names);
  out.value_names_ = std::move(value_names);
  out.elements_ = std::move(elements);
  out.SortAndFinalize();
  return out;
}

void AnswerSet::SortAndFinalize() {
  std::sort(elements_.begin(), elements_.end(),
            [](const Element& a, const Element& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.attrs < b.attrs;  // deterministic tie-break
            });
  double sum = 0.0;
  approx_.max_bound = 0.0;
  for (const Element& e : elements_) {
    sum += e.value;
    approx_.max_bound = std::max(approx_.max_bound, e.bound);
  }
  trivial_average_ = sum / static_cast<double>(elements_.size());

  // Domain fingerprint: the attribute/value-name hierarchy (code space).
  size_t h = 0;
  HashCombine(&h, attr_names_.size());
  for (const std::string& name : attr_names_) HashCombine(&h, name);
  for (const auto& names : value_names_) {
    HashCombine(&h, names.size());
    for (const std::string& name : names) HashCombine(&h, name);
  }
  domain_fingerprint_ = static_cast<uint64_t>(h);

  // Content fingerprint: the domain, the exactness bit, and every ranked
  // element. Mixing is_exact in means an exact rebuild of an approximate
  // set always reads as new content, which is what forces the refresh path
  // to republish it (two-phase publication).
  HashCombine(&h, approx_.is_exact ? size_t{1} : size_t{0});
  HashCombine(&h, elements_.size());
  for (const Element& e : elements_) {
    for (int32_t code : e.attrs) HashCombine(&h, code);
    HashCombine(&h, DoubleBits(e.value));
  }
  content_fingerprint_ = static_cast<uint64_t>(h);
}

bool AnswerSet::SameContent(const AnswerSet& other) const {
  if (approx_.is_exact != other.approx_.is_exact ||
      attr_names_ != other.attr_names_ ||
      value_names_ != other.value_names_ ||
      elements_.size() != other.elements_.size()) {
    return false;
  }
  for (size_t i = 0; i < elements_.size(); ++i) {
    if (elements_[i].attrs != other.elements_[i].attrs ||
        DoubleBits(elements_[i].value) !=
            DoubleBits(other.elements_[i].value)) {
      return false;
    }
  }
  return true;
}

const std::string& AnswerSet::ValueName(int a, int32_t code) const {
  QAG_DCHECK(a >= 0 && a < num_attrs());
  QAG_DCHECK(code >= 0 && code < domain_size(a));
  return value_names_[static_cast<size_t>(a)][static_cast<size_t>(code)];
}

double AnswerSet::TopAverage(int l) const {
  QAG_DCHECK(l > 0 && l <= size());
  double sum = 0.0;
  for (int i = 0; i < l; ++i) sum += value(i);
  return sum / l;
}

std::string AnswerSet::ToString(int edge) const {
  std::ostringstream out;
  out << "rank";
  for (const std::string& name : attr_names_) out << "\t" << name;
  out << "\tval";
  if (!approx_.is_exact) out << "\t±";
  out << "\n";
  auto print_row = [&](int i) {
    out << (i + 1);
    const Element& e = element(i);
    for (int a = 0; a < num_attrs(); ++a) {
      out << "\t" << ValueName(a, e.attrs[static_cast<size_t>(a)]);
    }
    out << "\t" << FormatDouble(e.value, 2);
    if (!approx_.is_exact) out << "\t" << FormatDouble(e.bound, 2);
    out << "\n";
  };
  if (size() <= 2 * edge) {
    for (int i = 0; i < size(); ++i) print_row(i);
  } else {
    for (int i = 0; i < edge; ++i) print_row(i);
    out << "...\n";
    for (int i = size() - edge; i < size(); ++i) print_row(i);
  }
  return out.str();
}

}  // namespace qagview::core
