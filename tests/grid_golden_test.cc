// Golden fingerprints of the default (k, D) guidance grid.
//
// The greedy merge loop behind every grid (Fixed-Order once, then one
// Bottom-Up replay per D) may be made faster, but never different: every
// TentativeAverage must return the same double, so every stored solution
// must keep the same clusters and the same average, bit for bit. These
// fingerprints were recorded on the binary-search membership probe and the
// locked LCA memo that the constant-time probe and lane-arithmetic LCA
// replaced; a change to any of them is a behaviour change, not noise.

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
      uint64_t average_bits;
      std::memcpy(&average_bits, &sol->average, sizeof(average_bits));
      hash.Add(average_bits);
    }
  }
  return hash.value();
}

struct GoldenCase {
  uint64_t seed;
  int n, m, domain, top_l;
  uint64_t expected;
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

// Expected values recorded at the parent of the change that introduced the
// constant-time probe (commit 8d7615a), where every configuration of a case
// already produced the same fingerprint. The m = 9 case never packs (more
// than eight byte lanes), so it runs the vector-keyed path twice; the others
// run both index paths. The domain-200 case puts codes >= 127 in a lane.
INSTANTIATE_TEST_SUITE_P(
    Seeds, GridGoldenTest,
    testing::Values(GoldenCase{101, 300, 5, 4, 40, 0xc1f7aadcad0f97f2ULL},
                    GoldenCase{102, 400, 4, 7, 60, 0xbc21923ab4123f07ULL},
                    GoldenCase{103, 250, 6, 3, 30, 0x9af2abd689694a23ULL},
                    GoldenCase{104, 200, 9, 2, 25, 0x12294243ebd32c9fULL},
                    GoldenCase{105, 300, 3, 200, 50, 0x9d0378c8e157326dULL}));

}  // namespace
}  // namespace qagview::core
