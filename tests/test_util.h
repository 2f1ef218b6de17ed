#ifndef QAGVIEW_TESTS_TEST_UTIL_H_
#define QAGVIEW_TESTS_TEST_UTIL_H_

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/answer_set.h"
#include "core/semilattice.h"
#include "storage/table.h"

namespace qagview::testutil {

/// Builds a random categorical answer set: n elements over m attributes
/// with the given per-attribute domain size; values are drawn so that
/// elements sharing low codes on the first attributes tend to score higher
/// (giving the top of the ranking shared structure, like real aggregates).
inline core::AnswerSet MakeRandomAnswerSet(uint64_t seed, int n, int m,
                                           int domain) {
  // The generator rejection-samples distinct attribute combinations; it can
  // only terminate if the domain product is large enough to hold n of them.
  double capacity = 1.0;
  for (int a = 0; a < m; ++a) capacity *= domain;
  QAG_CHECK(static_cast<double>(n) <= capacity)
      << "MakeRandomAnswerSet: n=" << n << " distinct rows impossible with "
      << m << " attrs of domain " << domain << " (capacity " << capacity
      << ")";
  Rng rng(seed);
  std::vector<std::string> attr_names;
  std::vector<std::vector<std::string>> value_names(
      static_cast<size_t>(m));
  for (int a = 0; a < m; ++a) {
    attr_names.push_back(StrCat("a", a));
    for (int v = 0; v < domain; ++v) {
      value_names[static_cast<size_t>(a)].push_back(StrCat("a", a, "v", v));
    }
  }
  std::vector<core::Element> elements;
  elements.reserve(static_cast<size_t>(n));
  // De-duplicate attribute combinations (group-by outputs are unique).
  std::vector<std::vector<int32_t>> seen;
  while (static_cast<int>(elements.size()) < n) {
    std::vector<int32_t> attrs(static_cast<size_t>(m));
    for (int a = 0; a < m; ++a) {
      attrs[static_cast<size_t>(a)] =
          static_cast<int32_t>(rng.Zipf(domain, 0.8));
    }
    bool duplicate = false;
    for (const auto& other : seen) {
      if (other == attrs) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    seen.push_back(attrs);
    double signal = 0.0;
    for (int a = 0; a < m; ++a) {
      signal += (domain - attrs[static_cast<size_t>(a)]) /
                static_cast<double>(domain * m);
    }
    core::Element e;
    e.attrs = std::move(attrs);
    e.value = 2.0 + 2.0 * signal + rng.Gaussian(0.0, 0.3);
    elements.push_back(std::move(e));
  }
  auto result = core::AnswerSet::FromRaw(std::move(attr_names),
                                         std::move(value_names),
                                         std::move(elements));
  QAG_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The elements cluster `id` of `u` covers, as a vector, so coverage lists
/// compare (and print) with EXPECT_EQ.
inline std::vector<int32_t> Covered(const core::ClusterUniverse& u, int id) {
  const Span<int32_t> covered = u.covered(id);
  return std::vector<int32_t>(covered.begin(), covered.end());
}

/// A tiny hand-built answer set mirroring the movie example of Figure 1a:
/// 4 attributes (hdec, agegrp, gender, occupation), 12 elements, values
/// chosen so male-student patterns dominate the top.
inline core::AnswerSet MakeMovieExample() {
  std::vector<std::string> attrs = {"hdec", "agegrp", "gender", "occupation"};
  std::vector<std::vector<std::string>> names = {
      {"1975", "1980", "1985", "1995"},
      {"10s", "20s", "30s"},
      {"M", "F"},
      {"Student", "Programmer", "Engineer", "Writer", "Educator"},
  };
  // (hdec, agegrp, gender, occupation) -> value
  std::vector<core::Element> elements = {
      {{0, 1, 0, 0}, 4.24},  // 1975 20s M Student
      {{1, 1, 0, 1}, 4.13},  // 1980 20s M Programmer
      {{1, 0, 0, 0}, 3.96},  // 1980 10s M Student
      {{1, 1, 0, 0}, 3.91},  // 1980 20s M Student
      {{2, 1, 0, 1}, 3.86},  // 1985 20s M Programmer
      {{1, 1, 0, 2}, 3.83},  // 1980 20s M Engineer
      {{2, 0, 0, 0}, 3.77},  // 1985 10s M Student
      {{2, 1, 0, 0}, 3.76},  // 1985 20s M Student
      {{3, 2, 1, 4}, 3.70},  // 1995 30s F Educator
      {{3, 1, 0, 3}, 2.51},  // 1995 20s M Writer
      {{3, 2, 0, 0}, 2.81},  // 1995 30s M Student
      {{3, 1, 1, 4}, 1.98},  // 1995 20s F Educator
  };
  auto result = core::AnswerSet::FromRaw(std::move(attrs), std::move(names),
                                         std::move(elements));
  QAG_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Shape of a synthetic base table: one Zipf-skewed categorical grouping
/// column g0..g{m-1} per domain entry, plus a `rating` double with a
/// planted signal on low codes — so aggregate queries produce ranked
/// answer sets with shared top patterns. This is the one seeded generator
/// every table-level harness shares (service tests, the refresh
/// differential oracle, bench_refresh); keep ad-hoc copies out of tests.
struct RandomTableSpec {
  std::vector<int> domains = {6, 5, 4, 3};
  double zipf_theta = 0.7;
  double noise_stddev = 0.25;
  /// Heavy-tail factor for the rating column: 0 (the default) keeps the
  /// pure Gaussian noise model, > 0 adds `value_skew * exp(N(0,1))` — a
  /// lognormal tail that stresses CLT error bounds far harder than
  /// symmetric noise. The extra RNG draw happens only when enabled, so
  /// every default-spec row stream is byte-identical to before the knob
  /// existed.
  double value_skew = 0.0;

  storage::Schema MakeSchema() const {
    std::vector<storage::Field> fields;
    for (size_t a = 0; a < domains.size(); ++a) {
      fields.push_back({StrCat("g", a), storage::ValueType::kString});
    }
    fields.push_back({"rating", storage::ValueType::kDouble});
    return storage::Schema(std::move(fields));
  }
};

/// One batch of `count` random rows for the spec — directly usable as a
/// table/catalog append batch. A given (spec, seed, count) always produces
/// the same rows, and the batch for seed s is the same whether generated
/// alone or as a prefix of a longer batch.
inline std::vector<std::vector<storage::Value>> MakeRandomRows(
    const RandomTableSpec& spec, uint64_t seed, int count) {
  const int m = static_cast<int>(spec.domains.size());
  Rng rng(seed);
  std::vector<std::vector<storage::Value>> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<storage::Value> row;
    row.reserve(static_cast<size_t>(m) + 1);
    double signal = 0.0;
    for (int a = 0; a < m; ++a) {
      int domain = spec.domains[static_cast<size_t>(a)];
      int code = static_cast<int>(rng.Zipf(domain, spec.zipf_theta));
      signal += (domain - code) / (static_cast<double>(m) * domain);
      row.push_back(storage::Value::Str(StrCat("g", a, "v", code)));
    }
    double value = 2.0 + 2.0 * signal + rng.Gaussian(0.0, spec.noise_stddev);
    if (spec.value_skew > 0.0) {
      value += spec.value_skew * std::exp(rng.Gaussian(0.0, 1.0));
    }
    row.push_back(storage::Value::Real(value));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A full random table: MakeRandomRows over a fresh table of the spec's
/// schema.
inline storage::Table MakeRandomTable(const RandomTableSpec& spec,
                                      uint64_t seed, int rows) {
  storage::Table table(spec.MakeSchema());
  QAG_CHECK_OK(table.AppendRows(MakeRandomRows(spec, seed, rows)));
  return table;
}

/// The default-shaped table (g0..g3, domains 6/5/4/3) the service tests
/// use. Same seed, same table — byte-identical to the pre-factoring
/// generator.
inline storage::Table MakeRatingsTable(uint64_t seed, int rows) {
  return MakeRandomTable(RandomTableSpec(), seed, rows);
}

/// The default shape with a lognormal value tail — the adversarial input
/// for approximate-answer coverage tests (skewed populations are where
/// naive bounds break first).
inline RandomTableSpec SkewedTableSpec() {
  RandomTableSpec spec;
  spec.value_skew = 1.5;
  return spec;
}

/// A copy of `table` built row by row through boxed values: storage that
/// shares nothing with the original, the reference a test compares
/// shared-storage reads against.
inline storage::Table RowByRowCopy(const storage::Table& table) {
  storage::Table copy(table.schema());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    QAG_CHECK_OK(copy.AppendRow(table.GetRow(r)));
  }
  return copy;
}

/// "" when `got` equals `want` cell for cell -- schema, NULLs, int64s,
/// double bit patterns, strings and their dictionary codes -- else the
/// first difference.
inline std::string TableDiff(const storage::Table& want,
                             const storage::Table& got) {
  if (want.schema().ToString() != got.schema().ToString()) {
    return StrCat("schema ", want.schema().ToString(), " vs ",
                  got.schema().ToString());
  }
  if (want.num_rows() != got.num_rows()) {
    return StrCat(want.num_rows(), " rows vs ", got.num_rows());
  }
  for (int c = 0; c < want.num_columns(); ++c) {
    const storage::Column& w = want.column(c);
    const storage::Column& g = got.column(c);
    for (int64_t r = 0; r < want.num_rows(); ++r) {
      const std::string where = StrCat("row ", r, " col ", c, ": ");
      if (w.IsNull(r) != g.IsNull(r)) return where + "NULL differs";
      if (w.IsNull(r)) continue;
      switch (w.type()) {
        case storage::ValueType::kInt64:
          if (w.GetInt(r) != g.GetInt(r)) {
            return StrCat(where, w.GetInt(r), " vs ", g.GetInt(r));
          }
          break;
        case storage::ValueType::kDouble: {
          const double a = w.GetDouble(r);
          const double b = g.GetDouble(r);
          if (std::memcmp(&a, &b, sizeof(a)) != 0) {
            return StrCat(where, a, " vs ", b);
          }
          break;
        }
        case storage::ValueType::kString:
          if (w.GetString(r) != g.GetString(r) ||
              w.GetStringCode(r) != g.GetStringCode(r)) {
            return StrCat(where, w.GetString(r), " vs ", g.GetString(r));
          }
          break;
        case storage::ValueType::kNull:
          break;
      }
    }
  }
  return "";
}

/// One-shot start barrier for concurrency tests (std::barrier is C++20):
/// every participant blocks in ArriveAndWait() until `count` threads have
/// arrived, maximizing the overlap window the test wants to exercise.
class StartLatch {
 public:
  explicit StartLatch(int count) : remaining_(count) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--remaining_ == 0) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

}  // namespace qagview::testutil

#endif  // QAGVIEW_TESTS_TEST_UTIL_H_
