// Golden fingerprints of the default (k, D) guidance grid, and of the
// cluster universe it is built over.
//
// The greedy merge loop behind every grid (Fixed-Order once, then one
// Bottom-Up replay per D) may be made faster, but never different: every
// TentativeAverage must return the same double, so every stored solution
// must keep the same clusters and the same average, bit for bit. These
// fingerprints were recorded on the binary-search membership probe and the
// locked LCA memo that the constant-time probe and lane-arithmetic LCA
// replaced; a change to any of them is a behaviour change, not noise.
// The same holds for the universe build, cold or grown from a narrower
// universe: every cluster id, covered list, covered-sum bit pattern and
// top-L count is part of what the grid reads.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/precompute.h"
#include "test_util.h"

namespace qagview::core {
namespace {

/// FNV-1a over 64-bit words: self-contained, so the fingerprint does not
/// depend on the standard library's std::hash.
class Fnv64 {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xFF;
      state_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Hashes every (d, k) solution of the store through the public read path:
/// the sorted cluster patterns and the bit pattern of the average.
uint64_t GridFingerprint(const SolutionStore& store) {
  Fnv64 hash;
  for (int d : store.d_values()) {
    for (int k = store.MinK(d).value(); k <= store.k_max(); ++k) {
      Result<Solution> sol = store.Retrieve(d, k);
      QAG_CHECK(sol.ok()) << sol.status().ToString();
      std::vector<std::vector<int32_t>> patterns;
      for (int id : sol->cluster_ids) {
        patterns.push_back(store.ClusterPattern(id));
      }
      std::sort(patterns.begin(), patterns.end());
      hash.Add(static_cast<uint64_t>(d));
      hash.Add(static_cast<uint64_t>(k));
      hash.Add(patterns.size());
      for (const auto& pattern : patterns) {
        for (int32_t code : pattern) {
          hash.Add(static_cast<uint64_t>(static_cast<uint32_t>(code)));
        }
      }
      hash.Add(DoubleBits(sol->average));
    }
  }
  return hash.value();
}

/// Hashes a universe through its public read path: per cluster id, its
/// pattern, covered list, covered-sum bits and top-L count; then the
/// singleton id of every top-L element.
uint64_t UniverseFingerprint(const ClusterUniverse& u) {
  Fnv64 hash;
  hash.Add(static_cast<uint64_t>(u.num_clusters()));
  for (int id = 0; id < u.num_clusters(); ++id) {
    for (int32_t code : u.cluster(id).pattern()) {
      hash.Add(static_cast<uint64_t>(static_cast<uint32_t>(code)));
    }
    hash.Add(static_cast<uint64_t>(u.covered_count(id)));
    for (int32_t e : u.covered(id)) hash.Add(static_cast<uint64_t>(e));
    hash.Add(DoubleBits(u.covered_sum(id)));
    hash.Add(static_cast<uint64_t>(u.TopCoveredCount(id, u.top_l())));
  }
  for (int i = 0; i < u.top_l(); ++i) {
    hash.Add(static_cast<uint64_t>(u.singleton_id(i)));
  }
  return hash.value();
}

struct GoldenCase {
  uint64_t seed;
  int n, m, domain, top_l;
  uint64_t expected;
  uint64_t universe_expected;
};

class GridGoldenTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(GridGoldenTest, DefaultGridMatchesRecordedFingerprint) {
  const GoldenCase& c = GetParam();
  AnswerSet s = testutil::MakeRandomAnswerSet(c.seed, c.n, c.m, c.domain);
  for (bool force_unpacked : {false, true}) {
    UniverseOptions universe_options;
    universe_options.force_unpacked = force_unpacked;
    auto u = ClusterUniverse::Build(&s, c.top_l, universe_options);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    for (bool delta : {true, false}) {
      for (int threads : {1, 4}) {
        PrecomputeOptions options;
        options.use_delta_judgment = delta;
        options.num_threads = threads;
        auto store = Precompute::Run(*u, c.top_l, options);
        ASSERT_TRUE(store.ok()) << store.status().ToString();
        EXPECT_EQ(GridFingerprint(*store), c.expected)
            << "packed=" << u->packed_index() << " delta=" << delta
            << " threads=" << threads;
      }
    }
  }
}

TEST_P(GridGoldenTest, UniverseMatchesRecordedFingerprint) {
  const GoldenCase& c = GetParam();
  AnswerSet s = testutil::MakeRandomAnswerSet(c.seed, c.n, c.m, c.domain);
  UniverseOptions unpacked;
  unpacked.force_unpacked = true;
  UniverseOptions naive;
  naive.naive_mapping = true;
  for (const UniverseOptions& options : {UniverseOptions(), unpacked, naive}) {
    auto u = ClusterUniverse::Build(&s, c.top_l, options);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    EXPECT_EQ(UniverseFingerprint(*u), c.universe_expected)
        << "force_unpacked=" << options.force_unpacked
        << " naive_mapping=" << options.naive_mapping;
  }
  // A grown universe is the same universe: grown from L/2 in one step (many
  // new clusters) and through a ladder of single levels from L - 3 (a few
  // per step), in both index layouts.
  for (const UniverseOptions& options : {UniverseOptions(), unpacked}) {
    auto half = ClusterUniverse::Build(&s, c.top_l / 2, options);
    ASSERT_TRUE(half.ok()) << half.status().ToString();
    auto jump = ClusterUniverse::Grow(*half, c.top_l);
    ASSERT_TRUE(jump.ok()) << jump.status().ToString();
    EXPECT_EQ(UniverseFingerprint(*jump), c.universe_expected)
        << "grown from L/2, force_unpacked=" << options.force_unpacked;

    auto ladder = ClusterUniverse::Build(&s, c.top_l - 3, options);
    ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
    for (int l = c.top_l - 2; l <= c.top_l; ++l) {
      ladder = ClusterUniverse::Grow(*ladder, l);
      ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
    }
    EXPECT_EQ(UniverseFingerprint(*ladder), c.universe_expected)
        << "grown from L - 3 a level at a time, force_unpacked="
        << options.force_unpacked;
  }
}

// Grid values recorded at the parent of the change that introduced the
// constant-time probe (commit 8d7615a), where every configuration of a case
// already produced the same fingerprint. Universe values recorded at the
// parent of the change that stored coverage in one CSR array (commit
// eb83a62), where the default, force_unpacked and naive_mapping builds of a
// case already agreed; grown universes are held to the same values. The
// m = 9 case never packs (more than eight byte lanes), so it runs the
// vector-keyed path twice; the others run both index paths. The domain-200
// case puts codes >= 127 in a lane.
INSTANTIATE_TEST_SUITE_P(
    Seeds, GridGoldenTest,
    testing::Values(GoldenCase{101, 300, 5, 4, 40, 0xc1f7aadcad0f97f2ULL,
                               0xbf8c1d8db962e561ULL},
                    GoldenCase{102, 400, 4, 7, 60, 0xbc21923ab4123f07ULL,
                               0xe10fe0b205714c0fULL},
                    GoldenCase{103, 250, 6, 3, 30, 0x9af2abd689694a23ULL,
                               0xb7b940130641ed2bULL},
                    GoldenCase{104, 200, 9, 2, 25, 0x12294243ebd32c9fULL,
                               0x9be5f94466b016d4ULL},
                    GoldenCase{105, 300, 3, 200, 50, 0x9d0378c8e157326dULL,
                               0xe707302e9c922246ULL}));

}  // namespace
}  // namespace qagview::core
