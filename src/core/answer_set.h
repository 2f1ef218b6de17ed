#ifndef QAGVIEW_CORE_ANSWER_SET_H_
#define QAGVIEW_CORE_ANSWER_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace qagview::core {

/// One tuple of the aggregate query answer S: the grouping-attribute values
/// (as dense int32 codes, see AnswerSet) plus the aggregate value. In an
/// approximate answer set, `bound` is the half-width of the two-sided
/// confidence interval around `value` (0.0 in exact sets).
struct Element {
  std::vector<int32_t> attrs;
  double value = 0.0;
  double bound = 0.0;
};

/// \brief Provenance of an answer set: exact, or estimated from a uniform
/// sample with per-element confidence intervals.
///
/// Rides along through summarize/guidance unchanged — the algorithms
/// operate on `value` regardless — and is consulted by the service layer,
/// which stamps responses and decides whether background refinement is
/// still owed. `is_exact` participates in content_fingerprint() and
/// SameContent(), so an exact rebuild of an approximate set never
/// fingerprints as "unchanged" even when every estimate happened to land on
/// the true value: the refresh path always republishes the exact
/// generation.
struct Approximation {
  bool is_exact = true;
  double sample_fraction = 1.0;  // n / N of the sample the set was built from
  double confidence = 0.0;       // two-sided CI level, e.g. 0.95 (0 if exact)
  int64_t sample_rows = 0;       // n (0 if exact)
  int64_t population_rows = 0;   // N (0 if exact)
  double max_bound = 0.0;        // largest element bound (0 if exact)
};

/// z such that a two-sided standard-normal interval [-z, z] has mass
/// `confidence` (e.g. 0.95 -> 1.95996...). Requires confidence in (0, 1).
double TwoSidedNormalQuantile(double confidence);

/// \brief The materialized answer set S of an aggregate query, the input to
/// every summarization algorithm.
///
/// Elements are sorted by value descending (ties broken by attribute codes
/// for determinism), so `element(i)` is the rank-(i+1) answer and the first
/// L elements are S*_L. Every attribute value is interned into a dense
/// int32 code per attribute — the paper's "hash values for fields"
/// optimization — with code->display-string maps retained for rendering.
class AnswerSet {
 public:
  /// Builds from a query-result table. All columns except `value_column`
  /// become grouping attributes (in schema order); `value_column` must be
  /// numeric. Attribute values are interned by typed value, in first-seen
  /// row order, exactly as the SQL kernel groups them: distinct groups stay
  /// distinct answers. A string's name is the string, an int64's its
  /// decimal form, a double's usual rendering (all 17 significant digits
  /// where that would not parse back to it), and NULL's "<null>".
  static Result<AnswerSet> FromTable(const storage::Table& table,
                                     const std::string& value_column);

  /// Like FromTable, but marks the set approximate: `row_se[r]` is the CLT
  /// standard error of row r's value (aligned with `table`'s rows), turned
  /// into per-element bounds at the given two-sided `confidence` level.
  /// Rows whose bound is not finite (no CLT error exists for them) are
  /// dropped — every element of an approximate set carries a usable bound,
  /// by construction. `confidence` must be in (0, 1) and
  /// 0 < sample_rows <= population_rows.
  static Result<AnswerSet> FromTableApproximate(
      const storage::Table& table, const std::string& value_column,
      const std::vector<double>& row_se, double confidence,
      int64_t sample_rows, int64_t population_rows);

  /// Builds directly from attribute-name / value-name tables and elements
  /// (used by tests, generators, and the hardness constructions).
  /// `value_names[a]` maps each attribute-a code to its display string;
  /// element codes must be within range. Elements are re-sorted.
  static Result<AnswerSet> FromRaw(
      std::vector<std::string> attr_names,
      std::vector<std::vector<std::string>> value_names,
      std::vector<Element> elements);

  /// Number of grouping attributes (m).
  int num_attrs() const { return static_cast<int>(attr_names_.size()); }

  /// Number of answer tuples (n).
  int size() const { return static_cast<int>(elements_.size()); }

  /// i-th answer in descending-value order (0-based; rank = i + 1).
  const Element& element(int i) const {
    return elements_[static_cast<size_t>(i)];
  }
  double value(int i) const { return elements_[static_cast<size_t>(i)].value; }

  /// Confidence-interval half-width of the i-th answer (0.0 in exact sets).
  double bound(int i) const { return elements_[static_cast<size_t>(i)].bound; }

  /// Exact/approximate provenance of this set.
  const Approximation& approximation() const { return approx_; }

  const std::vector<Element>& elements() const { return elements_; }
  const std::vector<std::string>& attr_names() const { return attr_names_; }

  /// Domain size of attribute a (number of distinct codes).
  int32_t domain_size(int a) const {
    return static_cast<int32_t>(value_names_[static_cast<size_t>(a)].size());
  }

  /// Display string for a code of attribute a.
  const std::string& ValueName(int a, int32_t code) const;

  /// Average value over all n elements — the value of the trivial solution
  /// (*, *, ..., *), the paper's "Lower Bound" baseline.
  double TrivialAverage() const { return trivial_average_; }

  /// Average value of the top-L elements (an upper bound on any solution
  /// covering exactly the top L).
  double TopAverage(int l) const;

  /// 64-bit content hash of the whole answer set: attribute names, the
  /// per-attribute value-name tables, and every element's codes and value
  /// bits in ranked order. This is the input fingerprint the refresh path
  /// compares — a cached structure built from an answer set with the same
  /// fingerprint (confirmed by SameContent) can be reused verbatim.
  uint64_t content_fingerprint() const { return content_fingerprint_; }

  /// Hash of the attribute/value-name hierarchy alone (names and domains,
  /// no elements): the code space. Two answer sets with equal domain
  /// fingerprints intern every attribute value to the same code even when
  /// the ranked elements differ.
  uint64_t domain_fingerprint() const { return domain_fingerprint_; }

  /// Exact equality of names, domains, and elements (codes plus value bit
  /// patterns). Refresh pairs this with content_fingerprint() so cache
  /// reuse is provable, never probabilistic.
  bool SameContent(const AnswerSet& other) const;

  /// Renders the top and bottom `edge` ranked tuples (Figure 1a style).
  std::string ToString(int edge = 8) const;

 private:
  static Result<AnswerSet> FromTableImpl(const storage::Table& table,
                                         const std::string& value_column,
                                         const std::vector<double>* row_se,
                                         double z, Approximation approx);

  std::vector<std::string> attr_names_;
  std::vector<std::vector<std::string>> value_names_;  // per attr: code->name
  std::vector<Element> elements_;                      // sorted desc by value
  Approximation approx_;
  double trivial_average_ = 0.0;
  uint64_t content_fingerprint_ = 0;
  uint64_t domain_fingerprint_ = 0;

  void SortAndFinalize();
};

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_ANSWER_SET_H_
