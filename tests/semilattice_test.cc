#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/semilattice.h"
#include "sql/executor.h"
#include "test_util.h"

namespace qagview::core {
namespace {

std::vector<std::string> Names255() {
  std::vector<std::string> names;
  for (int i = 0; i < 255; ++i) names.push_back(StrCat("v", i));
  return names;
}

// Two attributes: a 255-value domain (codes up to 254, which packs to the
// lane 0xFF, and codes >= 127, which set a lane's top bit) next to a
// four-value one.
Result<AnswerSet> MakeDomain255Set() {
  // The top elements hold lanes that differ only in the top bit: 0xFF vs
  // 0x7F (codes 254 and 126), 0x80 vs a wildcard (code 127), and 0x81 vs
  // 0x01 (codes 128 and 0).
  const int32_t kLaneEdges[] = {254, 126, 127, 128, 0};
  std::vector<Element> elements;
  for (int i = 0; i < 60; ++i) {
    const int32_t wide = i < 5 ? kLaneEdges[i]
                               : static_cast<int32_t>(254 - (i * 13) % 255);
    elements.push_back({{wide, static_cast<int32_t>(i % 4)}, 60.0 - i});
  }
  return AnswerSet::FromRaw({"wide", "narrow"},
                            {Names255(), {"a", "b", "c", "d"}},
                            std::move(elements));
}

// Eight attributes, each at the full 255-value domain, led by the element
// holding code 254 in every position.
Result<AnswerSet> MakeSaturatedSet() {
  std::vector<Element> elements;
  // The dangerous element: code 254 in every one of the 8 attributes.
  elements.push_back({std::vector<int32_t>(8, 254), 100.0});
  for (int i = 0; i < 20; ++i) {
    std::vector<int32_t> attrs(8);
    for (int a = 0; a < 8; ++a) {
      attrs[static_cast<size_t>(a)] =
          static_cast<int32_t>((i * 31 + a * 7) % 255);
    }
    elements.push_back({std::move(attrs), 50.0 - i});
  }
  std::vector<std::vector<std::string>> domains(8, Names255());
  std::vector<std::string> attr_names;
  for (int a = 0; a < 8; ++a) attr_names.push_back(StrCat("attr", a));
  return AnswerSet::FromRaw(attr_names, domains, std::move(elements));
}

TEST(ClusterUniverseTest, GeneratesAllGeneralizationsOfTopL) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, /*top_l=*/3);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  // Every mask of every top-3 element must be present.
  for (int i = 0; i < 3; ++i) {
    for (uint32_t mask = 0; mask < 16u; ++mask) {
      Cluster c = Cluster::Generalize(s.element(i).attrs, mask);
      EXPECT_GE(u->FindId(c), 0) << c.ToString();
    }
  }
  // And nothing else: every cluster covers >= 1 top-L element.
  for (int id = 0; id < u->num_clusters(); ++id) {
    EXPECT_GT(u->TopCoveredCount(id, u->top_l()), 0);
  }
  // Upper bound: at most L * 2^m clusters (deduplicated).
  EXPECT_LE(u->num_clusters(), 3 * 16);
}

TEST(ClusterUniverseTest, CoverageMappingIsExact) {
  AnswerSet s = testutil::MakeRandomAnswerSet(7, 60, 4, 4);
  auto u = ClusterUniverse::Build(&s, 10);
  ASSERT_TRUE(u.ok());
  for (int id = 0; id < u->num_clusters(); ++id) {
    const Cluster& c = u->cluster(id);
    // Recompute coverage by brute force.
    std::vector<int32_t> expected;
    double expected_sum = 0.0;
    for (int e = 0; e < s.size(); ++e) {
      if (c.CoversElement(s.element(e).attrs)) {
        expected.push_back(e);
        expected_sum += s.value(e);
      }
    }
    EXPECT_EQ(testutil::Covered(*u, id), expected) << c.ToString();
    EXPECT_NEAR(u->covered_sum(id), expected_sum, 1e-9);
    EXPECT_TRUE(std::is_sorted(u->covered(id).begin(), u->covered(id).end()));
  }
}

uint64_t SumBits(double sum) {
  uint64_t bits;
  std::memcpy(&bits, &sum, sizeof(bits));
  return bits;
}

// Figure 8a's per-cluster scan and the per-element probes agree exactly —
// covered lists, sum bits and top-L counts — in both index layouts.
TEST(ClusterUniverseTest, NaiveMappingMatchesOptimized) {
  AnswerSet s = testutil::MakeRandomAnswerSet(11, 80, 5, 3);
  for (bool force_unpacked : {false, true}) {
    SCOPED_TRACE(StrCat("force_unpacked=", force_unpacked));
    UniverseOptions naive_options;
    naive_options.naive_mapping = true;
    naive_options.force_unpacked = force_unpacked;
    auto naive = ClusterUniverse::Build(&s, 12, naive_options);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(naive->packed_index(), !force_unpacked);
    UniverseOptions options;
    options.force_unpacked = force_unpacked;
    auto fast = ClusterUniverse::Build(&s, 12, options);
    ASSERT_TRUE(fast.ok());
    ASSERT_EQ(fast->num_clusters(), naive->num_clusters());
    for (int id = 0; id < fast->num_clusters(); ++id) {
      int other = naive->FindId(fast->cluster(id));
      ASSERT_GE(other, 0);
      EXPECT_EQ(testutil::Covered(*fast, id), testutil::Covered(*naive, other));
      EXPECT_EQ(SumBits(fast->covered_sum(id)),
                SumBits(naive->covered_sum(other)));
      EXPECT_EQ(fast->TopCoveredCount(id, fast->top_l()),
                naive->TopCoveredCount(other, naive->top_l()));
    }
  }
}

// m = 9 attributes exceeds the packed-key limit of 8, forcing the
// vector-keyed index; coverage must stay exact and algorithms functional.
TEST(ClusterUniverseTest, UnpackedFallbackAtNineAttributes) {
  AnswerSet s = testutil::MakeRandomAnswerSet(23, 50, 9, 2);
  auto u = ClusterUniverse::Build(&s, 6);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  for (int id = 0; id < u->num_clusters(); id += 17) {
    const Cluster& c = u->cluster(id);
    std::vector<int32_t> expected;
    for (int e = 0; e < s.size(); ++e) {
      if (c.CoversElement(s.element(e).attrs)) {
        expected.push_back(e);
      }
    }
    ASSERT_EQ(testutil::Covered(*u, id), expected) << c.ToString();
  }
}

// A domain wider than a byte lane (>255 codes) also bypasses packing.
TEST(ClusterUniverseTest, UnpackedFallbackAtWideDomain) {
  std::vector<std::string> wide_names;
  for (int i = 0; i < 300; ++i) wide_names.push_back(StrCat("w", i));
  std::vector<Element> elements;
  for (int i = 0; i < 40; ++i) {
    elements.push_back(
        {{static_cast<int32_t>((i * 7) % 300), static_cast<int32_t>(i % 3)},
         40.0 - i});
  }
  auto s = AnswerSet::FromRaw({"wide", "narrow"},
                              {wide_names, {"x", "y", "z"}},
                              std::move(elements));
  ASSERT_TRUE(s.ok());
  auto u = ClusterUniverse::Build(&*s, 8);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_FALSE(u->packed_index());
  // Exact singleton mapping survives the fallback.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(testutil::Covered(*u, u->singleton_id(i)),
              std::vector<int32_t>{i});
  }
  // The trivial cluster still covers all 40 elements.
  int trivial = u->FindId(Cluster::Trivial(2));
  ASSERT_GE(trivial, 0);
  EXPECT_EQ(u->covered_count(trivial), 40);
}

// Packed-lane boundary: codes 0..254 — a domain of exactly 255 values —
// store as code+1 in a byte, so a domain-255 attribute must still take the
// packed path, and its clusters/coverage must match the forced fallback
// cluster-for-cluster.
TEST(ClusterUniverseTest, PackedPathAtDomain255Boundary) {
  auto s = MakeDomain255Set();
  ASSERT_TRUE(s.ok()) << s.status().ToString();

  auto packed = ClusterUniverse::Build(&*s, 10);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_TRUE(packed->packed_index());

  UniverseOptions fallback_options;
  fallback_options.force_unpacked = true;
  auto fallback = ClusterUniverse::Build(&*s, 10, fallback_options);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback->packed_index());

  ASSERT_EQ(packed->num_clusters(), fallback->num_clusters());
  for (int id = 0; id < packed->num_clusters(); ++id) {
    int other = fallback->FindId(packed->cluster(id));
    ASSERT_GE(other, 0) << packed->cluster(id).ToString();
    EXPECT_EQ(testutil::Covered(*packed, id),
              testutil::Covered(*fallback, other));
    EXPECT_EQ(packed->covered_sum(id), fallback->covered_sum(other));
    EXPECT_EQ(packed->TopCoveredCount(id, packed->top_l()),
              fallback->TopCoveredCount(other, fallback->top_l()));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(packed->cluster(packed->singleton_id(i)),
              Cluster(s->element(i).attrs));
  }
}

// With 8 attributes all at the full 255-value domain, the all-maximal-code
// pattern would pack to FlatMap64's reserved empty marker; that corner must
// fall back to the vector-keyed index and still build correctly.
TEST(ClusterUniverseTest, EightSaturatedLanesFallBackToUnpacked) {
  auto s = MakeSaturatedSet();
  ASSERT_TRUE(s.ok()) << s.status().ToString();

  auto u = ClusterUniverse::Build(&*s, 4);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_FALSE(u->packed_index());
  // The all-254 element ranks first; its singleton must be findable and
  // cover exactly itself.
  EXPECT_EQ(testutil::Covered(*u, u->singleton_id(0)),
            std::vector<int32_t>{0});
  int trivial = u->FindId(Cluster::Trivial(8));
  ASSERT_GE(trivial, 0);
  EXPECT_EQ(u->covered_count(trivial), s->size());
}

TEST(ClusterUniverseTest, SingletonIdsMatchTopElements) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 5);
  ASSERT_TRUE(u.ok());
  for (int i = 0; i < 5; ++i) {
    int id = u->singleton_id(i);
    EXPECT_EQ(u->cluster(id), Cluster(s.element(i).attrs));
    // A singleton's covered list contains exactly the identical elements
    // (group-by outputs are unique, so just element i).
    EXPECT_EQ(testutil::Covered(*u, id), std::vector<int32_t>{i});
  }
}

TEST(ClusterUniverseTest, LcaClosureAndSymmetry) {
  AnswerSet s = testutil::MakeRandomAnswerSet(3, 40, 4, 3);
  auto u = ClusterUniverse::Build(&s, 8);
  ASSERT_TRUE(u.ok());
  // LCA of any two universe clusters resolves to a universe id, and the
  // pattern matches Cluster::Lca.
  for (int a = 0; a < u->num_clusters(); a += 7) {
    for (int b = 0; b < u->num_clusters(); b += 11) {
      int lca = u->LcaId(a, b);
      ASSERT_GE(lca, 0);
      EXPECT_EQ(u->cluster(lca),
                Cluster::Lca(u->cluster(a), u->cluster(b)));
      EXPECT_EQ(u->LcaId(b, a), lca);
    }
  }
}

// The O(1) probes must agree with their definitions on every input: the
// packed CoversElement with a search of the covered list, the packed
// lane-arithmetic LCA with Cluster::Lca. Checked exhaustively on the packed
// and the forced vector-keyed build of fixtures that stress the byte lanes.
void ExpectProbesMatchDefinitions(const AnswerSet& s, int top_l) {
  for (bool force_unpacked : {false, true}) {
    UniverseOptions options;
    options.force_unpacked = force_unpacked;
    auto u = ClusterUniverse::Build(&s, top_l, options);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    for (int id = 0; id < u->num_clusters(); ++id) {
      const Span<int32_t> covered = u->covered(id);
      for (int e = 0; e < s.size(); ++e) {
        ASSERT_EQ(u->CoversElement(id, e),
                  std::binary_search(covered.begin(), covered.end(), e))
            << "packed=" << u->packed_index() << " cluster "
            << u->cluster(id).ToString() << " element " << e;
      }
    }
    for (int a = 0; a < u->num_clusters(); ++a) {
      for (int b = a; b < u->num_clusters(); ++b) {
        int lca = u->LcaId(a, b);
        ASSERT_EQ(u->cluster(lca),
                  Cluster::Lca(u->cluster(a), u->cluster(b)))
            << "packed=" << u->packed_index() << " "
            << u->cluster(a).ToString() << " ^ " << u->cluster(b).ToString();
        ASSERT_EQ(u->LcaId(b, a), lca);
      }
    }
  }
}

TEST(ClusterUniverseTest, ProbesMatchDefinitionsAtDomain255) {
  auto s = MakeDomain255Set();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExpectProbesMatchDefinitions(*s, 20);
}

// This fixture never packs (see EightSaturatedLanesFallBackToUnpacked), so
// both builds take the vector-keyed path.
TEST(ClusterUniverseTest, ProbesMatchDefinitionsOnSaturatedLanes) {
  auto s = MakeSaturatedSet();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExpectProbesMatchDefinitions(*s, 4);
}

TEST(ClusterUniverseTest, ProbesMatchDefinitionsAtEightAttributes) {
  AnswerSet s = testutil::MakeRandomAnswerSet(31, 60, 8, 3);
  auto u = ClusterUniverse::Build(&s, 4);
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(u->packed_index());
  ExpectProbesMatchDefinitions(s, 4);
}

TEST(ClusterUniverseTest, ProbesMatchDefinitionsOnRandomSet) {
  AnswerSet s = testutil::MakeRandomAnswerSet(37, 200, 5, 4);
  ExpectProbesMatchDefinitions(s, 30);
}

TEST(ClusterUniverseTest, TrivialClusterCoversEverything) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 4);
  ASSERT_TRUE(u.ok());
  int id = u->FindId(Cluster::Trivial(s.num_attrs()));
  ASSERT_GE(id, 0);
  EXPECT_EQ(u->covered_count(id), s.size());
  EXPECT_NEAR(u->Average(id), s.TrivialAverage(), 1e-9);
}

TEST(ClusterUniverseTest, LevelStartIdsAreAtRequestedLevel) {
  AnswerSet s = testutil::MakeRandomAnswerSet(5, 50, 5, 3);
  auto u = ClusterUniverse::Build(&s, 10);
  ASSERT_TRUE(u.ok());
  for (int level : {0, 1, 2}) {
    std::vector<int> ids = u->LevelStartIds(level, u->top_l());
    EXPECT_FALSE(ids.empty());
    std::set<int> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), ids.size()) << "duplicates at level " << level;
    for (int id : ids) {
      EXPECT_EQ(u->cluster(id).level(), level);
    }
    // Together they cover all top-L elements.
    std::set<int32_t> covered;
    for (int id : ids) {
      for (int32_t e : u->covered(id)) {
        if (e < u->top_l()) covered.insert(e);
      }
    }
    EXPECT_EQ(static_cast<int>(covered.size()), u->top_l());
  }
}

TEST(ClusterUniverseTest, RejectsBadArguments) {
  AnswerSet s = testutil::MakeMovieExample();
  EXPECT_FALSE(ClusterUniverse::Build(&s, 0).ok());
  EXPECT_FALSE(ClusterUniverse::Build(&s, s.size() + 1).ok());
  // One attribute past the limit: 2^25 generalizations per element.
  const int m = ClusterUniverse::kMaxAttrs + 1;
  std::vector<std::string> names;
  for (int a = 0; a < m; ++a) names.push_back(StrCat("a", a));
  auto wide = AnswerSet::FromRaw(
      names, std::vector<std::vector<std::string>>(m, {"x", "y"}),
      {{std::vector<int32_t>(m, 0), 2.0}, {std::vector<int32_t>(m, 1), 1.0}});
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(wide->num_attrs(), 25);
  EXPECT_FALSE(ClusterUniverse::Build(&*wide, 1).ok());
}

// --- Growing a universe across L. ---

/// Asserts `grown` is `cold`, bit for bit, through the public read path:
/// ids, patterns, covered lists, sum bits, top-L counts, singleton ids, and
/// the index behind FindId and LcaId.
void ExpectSameUniverse(const ClusterUniverse& grown,
                        const ClusterUniverse& cold) {
  ASSERT_EQ(grown.top_l(), cold.top_l());
  ASSERT_EQ(grown.packed_index(), cold.packed_index());
  ASSERT_EQ(&grown.answer_set(), &cold.answer_set());
  ASSERT_EQ(grown.num_clusters(), cold.num_clusters());
  for (int id = 0; id < cold.num_clusters(); ++id) {
    ASSERT_EQ(grown.cluster(id), cold.cluster(id)) << "id " << id;
    ASSERT_EQ(testutil::Covered(grown, id), testutil::Covered(cold, id))
        << cold.cluster(id).ToString();
    ASSERT_EQ(SumBits(grown.covered_sum(id)), SumBits(cold.covered_sum(id)));
    ASSERT_EQ(grown.TopCoveredCount(id, grown.top_l()),
              cold.TopCoveredCount(id, cold.top_l()))
        << cold.cluster(id).ToString();
    ASSERT_EQ(grown.FindId(cold.cluster(id)), id);
  }
  for (int i = 0; i < cold.top_l(); ++i) {
    ASSERT_EQ(grown.singleton_id(i), cold.singleton_id(i));
  }
  // About 40 x 40 pairs, whatever the universe's size.
  const int stride = std::max(1, cold.num_clusters() / 40);
  for (int a = 0; a < cold.num_clusters(); a += stride) {
    for (int b = stride / 2; b < cold.num_clusters(); b += stride) {
      ASSERT_EQ(grown.LcaId(a, b), cold.LcaId(a, b));
    }
  }
}

/// Grows a universe built at each of `from` to each L of `to` at or above
/// it, in both index layouts, and compares with a cold build at that L.
void ExpectGrowthMatchesColdBuilds(const AnswerSet& s,
                                   const std::vector<int>& from,
                                   const std::vector<int>& to) {
  for (bool force_unpacked : {false, true}) {
    UniverseOptions options;
    options.force_unpacked = force_unpacked;
    for (int l0 : from) {
      auto base = ClusterUniverse::Build(&s, l0, options);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      for (int l : to) {
        if (l < l0) continue;
        SCOPED_TRACE(StrCat("force_unpacked=", force_unpacked, " L0=", l0,
                            " L=", l));
        auto grown = ClusterUniverse::Grow(*base, l);
        ASSERT_TRUE(grown.ok()) << grown.status().ToString();
        auto cold = ClusterUniverse::Build(&s, l, options);
        ASSERT_TRUE(cold.ok());
        ExpectSameUniverse(*grown, *cold);
      }
    }
  }
}

// Steps of every size: a level at a time (a few new clusters, each mapped
// by its own pass over the elements), by zero levels, and from L = 1 to
// L = n (most clusters new, mapped by the elements' probes).
TEST(ClusterUniverseGrowTest, MatchesColdBuildsFromZeroLevelsToEveryElement) {
  AnswerSet s = testutil::MakeRandomAnswerSet(41, 300, 5, 4);
  ExpectGrowthMatchesColdBuilds(s, {1, 12, 40}, {1, 12, 13, 40, 41, 47, 300});
}

TEST(ClusterUniverseGrowTest, GrowingByZeroLevelsCopiesTheUniverse) {
  AnswerSet s = testutil::MakeMovieExample();
  auto base = ClusterUniverse::Build(&s, 5);
  ASSERT_TRUE(base.ok());
  auto same = ClusterUniverse::Grow(*base, 5);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  ExpectSameUniverse(*same, *base);
  // The copy owns its arrays: growing it leaves base as it was.
  auto wider = ClusterUniverse::Grow(*same, s.size());
  ASSERT_TRUE(wider.ok());
  EXPECT_EQ(base->top_l(), 5);
  auto cold = ClusterUniverse::Build(&s, 5);
  ASSERT_TRUE(cold.ok());
  ExpectSameUniverse(*base, *cold);
}

TEST(ClusterUniverseGrowTest, MatchesColdBuildsAtNineAttributes) {
  AnswerSet s = testutil::MakeRandomAnswerSet(23, 50, 9, 2);
  auto u = ClusterUniverse::Build(&s, 2);
  ASSERT_TRUE(u.ok());
  ASSERT_FALSE(u->packed_index());
  ExpectGrowthMatchesColdBuilds(s, {2, 6}, {3, 6, 7, 12});
}

TEST(ClusterUniverseGrowTest, MatchesColdBuildsAtWideDomain) {
  std::vector<std::string> wide_names;
  for (int i = 0; i < 300; ++i) wide_names.push_back(StrCat("w", i));
  std::vector<Element> elements;
  for (int i = 0; i < 40; ++i) {
    elements.push_back(
        {{static_cast<int32_t>((i * 7) % 300), static_cast<int32_t>(i % 3)},
         40.0 - i});
  }
  auto s = AnswerSet::FromRaw({"wide", "narrow"},
                              {wide_names, {"x", "y", "z"}},
                              std::move(elements));
  ASSERT_TRUE(s.ok());
  auto u = ClusterUniverse::Build(&*s, 3);
  ASSERT_TRUE(u.ok());
  ASSERT_FALSE(u->packed_index());
  ExpectGrowthMatchesColdBuilds(*s, {1, 8}, {2, 8, 9, 40});
}

TEST(ClusterUniverseGrowTest, MatchesColdBuildsAtDomain255Boundary) {
  auto s = MakeDomain255Set();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExpectGrowthMatchesColdBuilds(*s, {1, 5}, {2, 5, 6, 20, 60});
}

TEST(ClusterUniverseGrowTest, MatchesColdBuildsOnEightSaturatedLanes) {
  auto s = MakeSaturatedSet();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto u = ClusterUniverse::Build(&*s, 1);
  ASSERT_TRUE(u.ok());
  ASSERT_FALSE(u->packed_index());
  ExpectGrowthMatchesColdBuilds(*s, {1, 2}, {2, 3, 4, s->size()});
}

TEST(ClusterUniverseGrowTest, OutOfRangeLIsAnError) {
  AnswerSet s = testutil::MakeMovieExample();
  auto base = ClusterUniverse::Build(&s, 6);
  ASSERT_TRUE(base.ok());
  for (int l : {0, 1, 5, s.size() + 1}) {
    auto grown = ClusterUniverse::Grow(*base, l);
    EXPECT_FALSE(grown.ok()) << "L=" << l;
    EXPECT_EQ(grown.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AnswerSetTest, FromTableInternsAndSorts) {
  storage::Schema schema({{"g", storage::ValueType::kString},
                          {"year", storage::ValueType::kInt64},
                          {"val", storage::ValueType::kDouble}});
  storage::Table t(schema);
  QAG_CHECK_OK(t.AppendRow({storage::Value::Str("a"), storage::Value::Int(1990),
                            storage::Value::Real(1.0)}));
  QAG_CHECK_OK(t.AppendRow({storage::Value::Str("b"), storage::Value::Int(1995),
                            storage::Value::Real(3.0)}));
  QAG_CHECK_OK(t.AppendRow({storage::Value::Str("a"), storage::Value::Int(1995),
                            storage::Value::Real(2.0)}));
  auto s = AnswerSet::FromTable(t, "val");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->num_attrs(), 2);
  EXPECT_EQ(s->size(), 3);
  EXPECT_DOUBLE_EQ(s->value(0), 3.0);  // sorted desc
  EXPECT_EQ(s->ValueName(0, s->element(0).attrs[0]), "b");
  EXPECT_EQ(s->ValueName(1, s->element(0).attrs[1]), "1995");
  EXPECT_NEAR(s->TrivialAverage(), 2.0, 1e-9);
  EXPECT_NEAR(s->TopAverage(2), 2.5, 1e-9);
}

// Attribute values intern by typed value, as the SQL kernel groups them:
// doubles that print alike, and a NULL next to the string "<null>", stay
// distinct answers with codes and clusters of their own.
TEST(AnswerSetTest, DistinctGroupsStayDistinctAnswers) {
  storage::Schema schema({{"a", storage::ValueType::kDouble},
                          {"b", storage::ValueType::kString},
                          {"v", storage::ValueType::kDouble}});
  storage::Table t(schema);
  using storage::Value;
  QAG_CHECK_OK(t.AppendRow({Value::Real(1.0000001), Value::Str("x"),
                            Value::Real(5)}));
  QAG_CHECK_OK(t.AppendRow({Value::Real(1.0000002), Value::Str("x"),
                            Value::Real(4)}));
  QAG_CHECK_OK(t.AppendRow({Value::Null(), Value::Str("<null>"),
                            Value::Real(3)}));
  QAG_CHECK_OK(t.AppendRow({Value::Real(2.0), Value::Null(), Value::Real(2)}));
  sql::Catalog catalog;
  catalog.Register("t", &t);
  Result<storage::Table> groups = sql::ExecuteSql(
      "SELECT a, b, sum(v) AS val FROM t GROUP BY a, b", catalog);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->num_rows(), 4);

  Result<AnswerSet> s = AnswerSet::FromTable(*groups, "val");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->size(), 4);
  // Ranks 1 and 2 differ in `a`; rank 3's b is the string, rank 4's NULL.
  EXPECT_NE(s->element(0).attrs, s->element(1).attrs);
  EXPECT_NE(s->element(2).attrs[1], s->element(3).attrs[1]);
  EXPECT_EQ(s->domain_size(0), 4);  // 1.0000001, 1.0000002, NULL, 2
  EXPECT_EQ(s->domain_size(1), 3);  // "x", "<null>", NULL
  // Doubles that print alike get names that parse back to each value.
  const std::string& first = s->ValueName(0, s->element(0).attrs[0]);
  const std::string& second = s->ValueName(0, s->element(1).attrs[0]);
  EXPECT_NE(first, second);
  EXPECT_EQ(std::strtod(first.c_str(), nullptr), 1.0000001);
  EXPECT_EQ(std::strtod(second.c_str(), nullptr), 1.0000002);
  EXPECT_EQ(s->ValueName(0, s->element(3).attrs[0]), "2");
  EXPECT_EQ(s->ValueName(1, s->element(3).attrs[1]), "<null>");

  // Every answer is a singleton cluster of its own.
  Result<ClusterUniverse> universe = ClusterUniverse::Build(&*s, 4);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  std::set<int> singletons;
  for (int i = 0; i < s->size(); ++i) {
    singletons.insert(universe->singleton_id(i));
  }
  EXPECT_EQ(singletons.size(), 4u);
}

TEST(AnswerSetTest, FromTableErrors) {
  storage::Schema schema({{"g", storage::ValueType::kString},
                          {"val", storage::ValueType::kString}});
  storage::Table t(schema);
  QAG_CHECK_OK(t.AppendRow({storage::Value::Str("a"), storage::Value::Str("x")}));
  EXPECT_FALSE(AnswerSet::FromTable(t, "val").ok());   // non-numeric value
  EXPECT_FALSE(AnswerSet::FromTable(t, "nope").ok());  // missing column
}

TEST(AnswerSetTest, FromRawValidation) {
  EXPECT_FALSE(AnswerSet::FromRaw({}, {}, {}).ok());
  EXPECT_FALSE(AnswerSet::FromRaw({"a"}, {{"x"}}, {}).ok());  // empty
  EXPECT_FALSE(
      AnswerSet::FromRaw({"a"}, {{"x"}}, {{{5}, 1.0}}).ok());  // bad code
  EXPECT_FALSE(
      AnswerSet::FromRaw({"a"}, {{"x"}}, {{{0, 0}, 1.0}}).ok());  // arity
}

TEST(AnswerSetTest, ToStringShowsTopAndBottom) {
  AnswerSet s = testutil::MakeMovieExample();
  std::string text = s.ToString(2);
  EXPECT_NE(text.find("4.24"), std::string::npos);  // top value
  EXPECT_NE(text.find("1.98"), std::string::npos);  // bottom value
  EXPECT_NE(text.find("..."), std::string::npos);
}

}  // namespace
}  // namespace qagview::core
