#include <cctype>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/precompute.h"
#include "core/session.h"
#include "core/solution_store_io.h"
#include "test_util.h"

namespace qagview::core {
namespace {

struct Instance {
  std::unique_ptr<AnswerSet> set;
  ClusterUniverse u;
};

Instance MakeInstance(uint64_t seed, int n, int m, int domain, int top_l) {
  auto set = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(seed, n, m, domain));
  auto u = ClusterUniverse::Build(set.get(), top_l);
  QAG_CHECK(u.ok()) << u.status().ToString();
  return Instance{std::move(set), std::move(u).value()};
}

SolutionStore MakeStore(const Instance& inst, int top_l) {
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2, 3};
  auto store = Precompute::Run(inst.u, top_l, options);
  QAG_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::string Hex64(uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// `body` (a header line and its blocks, version-2 syntax) sealed with the
/// checksum line SerializeSolutionStore appends.
std::string Sealed(const std::string& body) {
  return body + "checksum " + Hex64(Fnv1a64(body)) + "\n";
}

/// A version-2 header line whose identity fields name `answers`, with the
/// given L, k_max, num_attrs and num_d fields (as text, so a test can put
/// anything there).
std::string Header(const AnswerSet& answers, const std::string& l,
                   const std::string& k_max, const std::string& num_attrs,
                   const std::string& num_d) {
  return "qagview-store 2 " + l + " " + k_max + " " + num_attrs + " " +
         num_d + " " + std::to_string(answers.size()) + " " +
         Hex64(answers.content_fingerprint()) + " " +
         Hex64(answers.domain_fingerprint()) + "\n";
}

TEST(StoreIoTest, RoundTripPreservesEveryRetrievableSolution) {
  Instance inst = MakeInstance(5, 80, 5, 3, 16);
  SolutionStore store = MakeStore(inst, 16);

  std::string text = SerializeSolutionStore(store);
  auto loaded = DeserializeSolutionStore(&inst.u, text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->l(), store.l());
  EXPECT_EQ(loaded->k_max(), store.k_max());
  EXPECT_EQ(loaded->d_values(), store.d_values());
  EXPECT_EQ(loaded->num_intervals(), store.num_intervals());

  for (int d : store.d_values()) {
    int min_k = store.MinK(d).value();
    ASSERT_EQ(loaded->MinK(d).value(), min_k);
    for (int k = min_k; k <= store.k_max() + 2; ++k) {
      auto original = store.Retrieve(d, k);
      auto reloaded = loaded->Retrieve(d, k);
      ASSERT_TRUE(original.ok());
      ASSERT_TRUE(reloaded.ok());
      // Same cluster set (ids resolve back through the shared universe).
      std::vector<int> a = original->cluster_ids;
      std::vector<int> b = reloaded->cluster_ids;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "D=" << d << " k=" << k;
      EXPECT_NEAR(original->average, reloaded->average, 1e-12);
      EXPECT_NEAR(store.Value(d, k).value(), loaded->Value(d, k).value(),
                  1e-12);
    }
  }
}

TEST(StoreIoTest, RoundTripSurvivesUniverseRebuild) {
  // The realistic reload scenario: a later process rebuilds the universe
  // from the same answer set and loads the serialized store against it.
  Instance inst = MakeInstance(7, 70, 4, 4, 12);
  SolutionStore store = MakeStore(inst, 12);
  std::string text = SerializeSolutionStore(store);

  auto rebuilt = ClusterUniverse::Build(inst.set.get(), 12);
  ASSERT_TRUE(rebuilt.ok());
  auto loaded = DeserializeSolutionStore(&*rebuilt, text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int d : store.d_values()) {
    int min_k = store.MinK(d).value();
    for (int k = min_k; k <= store.k_max(); ++k) {
      EXPECT_NEAR(store.Value(d, k).value(), loaded->Value(d, k).value(),
                  1e-12);
      EXPECT_NEAR(store.Retrieve(d, k)->average,
                  loaded->Retrieve(d, k)->average, 1e-12);
    }
  }
}

TEST(StoreIoTest, SerializedFormHasExpectedHeaderAndTrailer) {
  Instance inst = MakeInstance(9, 60, 4, 3, 10);
  SolutionStore store = MakeStore(inst, 10);
  std::string text = SerializeSolutionStore(store);
  EXPECT_EQ(text.rfind(Header(*inst.set, "10", "8", "4", "3"), 0), 0u)
      << text.substr(0, 80);
  // The last line is the checksum of every byte before it.
  const size_t trailer = text.rfind("checksum ");
  ASSERT_NE(trailer, std::string::npos);
  EXPECT_EQ(text, Sealed(text.substr(0, trailer)));
}

TEST(StoreIoTest, RejectsGarbageAndTruncation) {
  Instance inst = MakeInstance(11, 60, 4, 3, 10);
  SolutionStore store = MakeStore(inst, 10);
  std::string text = SerializeSolutionStore(store);

  EXPECT_FALSE(DeserializeSolutionStore(&inst.u, "").ok());
  EXPECT_FALSE(DeserializeSolutionStore(&inst.u, "hello world").ok());
  // Wrong version.
  std::string wrong_version = text;
  wrong_version.replace(0, 16, "qagview-store 9 ");
  EXPECT_FALSE(DeserializeSolutionStore(&inst.u, wrong_version).ok());
  // A version-1 file (no identity, no checksum) is refused by its version.
  auto v1 = DeserializeSolutionStore(
      &inst.u,
      "qagview-store 1 10 8 4 1\nd 2 states 1 intervals 1\ns 1 0.5\n"
      "i 1 8 * * * *\n");
  EXPECT_EQ(v1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v1.status().ToString().find("version '1'"), std::string::npos)
      << v1.status().ToString();
  // Truncated mid-stream.
  EXPECT_FALSE(
      DeserializeSolutionStore(&inst.u, text.substr(0, text.size() / 2))
          .ok());
  EXPECT_FALSE(DeserializeSolutionStore(nullptr, text).ok());
}

TEST(StoreIoTest, RejectsHostileHeadersBeforeDoingWork) {
  // Untrusted-disk hardening: counts and coordinates are range-checked
  // before any narrowing cast or allocation, so a lying header is a clean
  // InvalidArgument, never unbounded work or a crash. Every text carries a
  // valid checksum and (unless the case is about identity) the instance's
  // own identity, so each one reaches the check it targets: the expected
  // message names it.
  Instance inst = MakeInstance(17, 60, 4, 3, 10);
  const AnswerSet& set = *inst.set;
  auto expect_rejected = [&](const std::string& body, const char* label,
                             const std::string& expected_message) {
    auto result = DeserializeSolutionStore(&inst.u, Sealed(body));
    ASSERT_FALSE(result.ok()) << label;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << label;
    EXPECT_NE(result.status().ToString().find(expected_message),
              std::string::npos)
        << label << ": " << result.status().ToString();
  };
  const std::string one_block = Header(set, "10", "8", "4", "1");
  // Counts far beyond the structural ceilings.
  expect_rejected(Header(set, "99999999999", "8", "4", "3"), "huge L",
                  "L = 99999999999 outside");
  expect_rejected(Header(set, "10", "99999999999", "4", "3"), "huge k_max",
                  "k_max = 99999999999 outside");
  expect_rejected(Header(set, "10", "8", "99999999", "3"), "huge num_attrs",
                  "num_attrs = 99999999 outside");
  expect_rejected(Header(set, "10", "8", "4", "99999999"), "huge num_d",
                  "num_d = 99999999 outside");
  // Negative and zero where impossible.
  expect_rejected(Header(set, "-1", "8", "4", "3"), "negative L",
                  "L = -1 outside");
  expect_rejected(Header(set, "0", "8", "4", "3"), "zero L", "L = 0 outside");
  expect_rejected(Header(set, "10", "8", "4", "-1"), "negative num_d",
                  "num_d = -1 outside");
  // Per-D block lying about its shape.
  expect_rejected(one_block + "d 2 states 99999999999 intervals 0\n",
                  "huge state count", "state count = 99999999999 outside");
  expect_rejected(one_block + "d 99 states 1 intervals 0\ns 1 0.5\n",
                  "D beyond num_attrs", "D = 99 outside");
  expect_rejected(
      one_block + "d 2 states 1 intervals 999999999999\ns 1 0.5\n",
      "huge interval count", "interval count = 999999999999 outside");
  // Non-finite state values are damage, not data.
  expect_rejected(one_block + "d 2 states 1 intervals 0\ns 1 nan\n",
                  "NaN state value", "bad state value 'nan'");
  expect_rejected(one_block + "d 2 states 1 intervals 0\ns 1 inf\n",
                  "infinite state value", "bad state value 'inf'");
  // Interval coordinates outside [1, k_max ceiling].
  expect_rejected(
      one_block + "d 2 states 1 intervals 1\ns 1 0.5\ni 0 5 * * * *\n",
      "zero interval lo", "lo = 0 outside");
  expect_rejected(one_block +
                      "d 2 states 1 intervals 1\ns 1 0.5\n"
                      "i 1 99999999999 * * * *\n",
                  "huge interval hi", "hi = 99999999999 outside");
  // Attribute codes must be non-negative int32.
  expect_rejected(
      one_block + "d 2 states 1 intervals 1\ns 1 0.5\ni 1 5 -7 * * *\n",
      "negative attribute code", "attribute code = -7 outside");
  expect_rejected(one_block +
                      "d 2 states 1 intervals 1\ns 1 0.5\n"
                      "i 1 5 99999999999 * * *\n",
                  "overflowing attribute code",
                  "attribute code = 99999999999 outside");

  // The identity fields: each is bounded or well-formed before it is
  // compared, and a well-formed identity of another answer set is refused.
  const std::string n = std::to_string(set.size());
  const std::string content = Hex64(set.content_fingerprint());
  const std::string domain = Hex64(set.domain_fingerprint());
  auto header = [&](const std::string& num_answers, const std::string& cfp,
                    const std::string& dfp) {
    return "qagview-store 2 10 8 4 0 " + num_answers + " " + cfp + " " + dfp +
           "\n";
  };
  expect_rejected(header("99999999999", content, domain), "huge num_answers",
                  "num_answers = 99999999999 outside");
  expect_rejected(header("0", content, domain), "zero num_answers",
                  "num_answers = 0 outside");
  expect_rejected(header(n, "zz" + content.substr(2), domain),
                  "non-hex content fingerprint", "bad content fingerprint");
  expect_rejected(header(n, content.substr(1), domain),
                  "short content fingerprint", "bad content fingerprint");
  expect_rejected(header(n, "0" + content, domain),
                  "long content fingerprint", "bad content fingerprint");
  std::string upper = content;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  if (upper != content) {
    expect_rejected(header(n, upper, domain), "upper-case fingerprint",
                    "bad content fingerprint");
  }
  expect_rejected(header(n, content, "-" + domain.substr(1)),
                  "bad domain fingerprint", "bad domain fingerprint");
  expect_rejected(header(std::to_string(set.size() + 1), content, domain),
                  "other n", "different answer set");
  expect_rejected(header(n, Hex64(set.content_fingerprint() ^ 1), domain),
                  "other content", "different answer set");
  expect_rejected(header(n, content, Hex64(set.domain_fingerprint() ^ 1)),
                  "other domain", "different answer set");
  expect_rejected(Header(set, "10", "8", "5", "0"), "other m",
                  "different answer set");
  expect_rejected("qagview-store 2 10 8 4 0 " + n + " " + content + "\n",
                  "missing field", "expected 9 fields");

  // The checksum line itself.
  const std::string valid = Sealed(Header(set, "10", "8", "4", "0"));
  ASSERT_TRUE(DeserializeSolutionStore(&inst.u, valid).ok());
  auto rejected_with = [&](const std::string& text,
                           const std::string& expected_message) {
    auto result = DeserializeSolutionStore(&inst.u, text);
    return !result.ok() &&
           result.status().ToString().find(expected_message) !=
               std::string::npos;
  };
  EXPECT_TRUE(rejected_with(Header(set, "10", "8", "4", "0"),
                            "does not end in a checksum line"));
  std::string wrong_sum = valid;
  wrong_sum[wrong_sum.size() - 2] =
      wrong_sum[wrong_sum.size() - 2] == '0' ? '1' : '0';
  EXPECT_TRUE(rejected_with(wrong_sum, "checksum mismatch"));
}

TEST(StoreIoTest, BitFlipCorpusNeverCrashesOrCorrupts) {
  // Every single-bit change in the low nibble of every byte, every proper
  // prefix, and the file with bytes appended, over a few seeded stores:
  // every variant must be rejected with a clean InvalidArgument. Nothing
  // damaged may load, because a damaged grid that still parses can serve
  // solutions and averages that no precompute produced.
  for (uint64_t seed : {19u, 29u, 37u}) {
    Instance inst = MakeInstance(seed, 60, 4, 3, 10);
    SolutionStore store = MakeStore(inst, 10);
    const std::string text = SerializeSolutionStore(store);
    ASSERT_TRUE(DeserializeSolutionStore(&inst.u, text).ok());
    int accepted = 0;
    auto expect_rejected = [&](const std::string& damaged,
                               const std::string& label) {
      auto loaded = DeserializeSolutionStore(&inst.u, damaged);
      if (loaded.ok()) {
        if (++accepted <= 5) ADD_FAILURE() << "seed " << seed << ": " << label;
        return;
      }
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << label << ": " << loaded.status().ToString();
    };
    for (size_t pos = 0; pos < text.size(); ++pos) {
      for (char flip : {char(0x01), char(0x02), char(0x04), char(0x08)}) {
        std::string damaged = text;
        damaged[pos] = static_cast<char>(damaged[pos] ^ flip);
        expect_rejected(damaged, "flip " + std::to_string(int(flip)) +
                                     " at " + std::to_string(pos));
      }
    }
    for (size_t size = 0; size < text.size(); ++size) {
      expect_rejected(text.substr(0, size),
                      "prefix of " + std::to_string(size) + " bytes");
    }
    const std::string last_line =
        text.substr(text.rfind('\n', text.size() - 2) + 1);
    const std::vector<std::string> extras = {
        "\n", "x", std::string(1, '\0'), last_line,
        "checksum 0000000000000000\n", text};
    for (const std::string& extra : extras) {
      expect_rejected(text + extra,
                      "appended " + std::to_string(extra.size()) + " bytes");
    }
    EXPECT_EQ(accepted, 0) << "seed " << seed << ": damaged files loaded";
  }
}

TEST(StoreIoTest, HeaderParsesWithoutUniverse) {
  Instance inst = MakeInstance(23, 60, 4, 3, 10);
  SolutionStore store = MakeStore(inst, 10);
  std::string path = testing::TempDir() + "/qagview_store_header.txt";
  ASSERT_TRUE(SaveSolutionStore(store, path).ok());
  auto text = ReadSolutionStoreFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto header = ParseSolutionStoreHeader(*text);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->l, 10);
  EXPECT_EQ(header->k_max, 8);
  EXPECT_EQ(header->num_answers, inst.set->size());
  EXPECT_EQ(header->num_attrs, 4);
  EXPECT_TRUE(header->CheckBuiltFrom(*inst.set).ok());
  Instance other = MakeInstance(24, 60, 4, 3, 10);
  EXPECT_EQ(header->CheckBuiltFrom(*other.set).code(),
            StatusCode::kInvalidArgument);

  EXPECT_FALSE(ParseSolutionStoreHeader("qagview-store 9 10 8 4 3\n").ok())
      << "wrong version must fail";
  EXPECT_FALSE(
      ParseSolutionStoreHeader(
          Sealed(Header(*inst.set, "99999999999", "8", "4", "3")))
          .ok())
      << "implausible L must fail";
  EXPECT_FALSE(ReadSolutionStoreFile(path + ".absent").ok());
  std::remove(path.c_str());
}

TEST(StoreIoTest, RejectsForeignUniverse) {
  Instance inst = MakeInstance(13, 60, 4, 3, 10);
  SolutionStore store = MakeStore(inst, 10);
  std::string text = SerializeSolutionStore(store);

  // Same shape (m, domain) but a different answer set: the patterns in the
  // store are not in this universe's top-L closure.
  Instance other = MakeInstance(999, 60, 4, 3, 10);
  auto loaded = DeserializeSolutionStore(&other.u, text);
  EXPECT_FALSE(loaded.ok());

  // Wrong attribute count fails at the header.
  Instance narrow = MakeInstance(13, 60, 5, 3, 10);
  EXPECT_FALSE(DeserializeSolutionStore(&narrow.u, text).ok());

  // A universe covering a smaller L than the store fails the L check.
  auto small = ClusterUniverse::Build(inst.set.get(), 4);
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(DeserializeSolutionStore(&*small, text).ok());
}

TEST(StoreIoTest, FileRoundTrip) {
  Instance inst = MakeInstance(17, 60, 4, 3, 10);
  SolutionStore store = MakeStore(inst, 10);
  std::string path = testing::TempDir() + "/qagview_store_io_test.txt";
  ASSERT_TRUE(SaveSolutionStore(store, path).ok());
  auto loaded = LoadSolutionStore(&inst.u, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->d_values(), store.d_values());
  std::remove(path.c_str());

  EXPECT_FALSE(SaveSolutionStore(store, "/nonexistent-dir/x.txt").ok());
  EXPECT_FALSE(LoadSolutionStore(&inst.u, "/nonexistent-dir/x.txt").ok());
}

TEST(StoreFromPartsTest, ValidatesParts) {
  Instance inst = MakeInstance(19, 60, 4, 3, 10);
  EXPECT_FALSE(SolutionStore::FromParts(nullptr, 10, 8, {}).ok());

  // Empty states.
  SolutionStore::PartsPerD empty;
  empty.d = 1;
  EXPECT_FALSE(SolutionStore::FromParts(&inst.u, 10, 8, {empty}).ok());

  // Non-decreasing sizes.
  SolutionStore::PartsPerD bad_sizes;
  bad_sizes.d = 1;
  bad_sizes.size_value = {{3, 1.0}, {3, 1.0}};
  EXPECT_FALSE(SolutionStore::FromParts(&inst.u, 10, 8, {bad_sizes}).ok());

  // Malformed interval (lo > hi).
  SolutionStore::PartsPerD bad_interval;
  bad_interval.d = 1;
  bad_interval.size_value = {{3, 1.0}, {2, 0.9}};
  bad_interval.intervals = {{5, 3, 0}};
  EXPECT_FALSE(
      SolutionStore::FromParts(&inst.u, 10, 8, {bad_interval}).ok());

  // Cluster id out of range.
  SolutionStore::PartsPerD bad_id;
  bad_id.d = 1;
  bad_id.size_value = {{3, 1.0}, {2, 0.9}};
  bad_id.intervals = {{2, 3, inst.u.num_clusters()}};
  EXPECT_FALSE(SolutionStore::FromParts(&inst.u, 10, 8, {bad_id}).ok());

  // Duplicate D blocks.
  SolutionStore::PartsPerD ok_part;
  ok_part.d = 1;
  ok_part.size_value = {{1, 1.0}};
  ok_part.intervals = {{1, 8, 0}};
  EXPECT_FALSE(
      SolutionStore::FromParts(&inst.u, 10, 8, {ok_part, ok_part}).ok());
  EXPECT_TRUE(SolutionStore::FromParts(&inst.u, 10, 8, {ok_part}).ok());
}

TEST(StoreIoTest, GridNamingAClusterOutsideItsLFailsEverywhere) {
  // A sealed grid for L = 10 whose interval names a cluster that covers
  // none of the top 10 elements. A universe at L = 10 has no such cluster;
  // a wider one has it, and must refuse the file all the same, so whether
  // the file loads never depends on the levels a session served before.
  constexpr uint64_t kSeed = 23;
  Instance wide = MakeInstance(kSeed, 80, 4, 3, 30);
  int outside = -1;
  for (int id = 0; id < wide.u.num_clusters() && outside < 0; ++id) {
    if (wide.u.covered(id)[0] >= 10) outside = id;
  }
  ASSERT_GE(outside, 0);
  std::string row = "i 1 8";
  for (int32_t code : wide.u.cluster(outside).pattern()) {
    row += code == kWildcard ? " *" : " " + std::to_string(code);
  }
  const std::string text =
      Sealed(Header(*wide.set, "10", "8", "4", "1") +
             "d 1 states 1 intervals 1\ns 1 0.5\n" + row + "\n");

  auto on_wide = DeserializeSolutionStore(&wide.u, text);
  EXPECT_EQ(on_wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(on_wide.status().ToString().find("none of the top L=10"),
            std::string::npos)
      << on_wide.status().ToString();

  const std::string path = testing::TempDir() + "/qagview_outside_l.store";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
    std::fclose(file);
  }
  auto fresh = Session::Create(testutil::MakeRandomAnswerSet(kSeed, 80, 4, 3));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->LoadGuidance(10, path).code(),
            StatusCode::kInvalidArgument);
  auto widened =
      Session::Create(testutil::MakeRandomAnswerSet(kSeed, 80, 4, 3));
  ASSERT_TRUE(widened.ok());
  ASSERT_TRUE((*widened)->UniverseFor(30).ok());
  EXPECT_EQ((*widened)->LoadGuidance(10, path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*widened)->cache_stats().stores, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qagview::core
