#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace qagview {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  QAG_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 21);
  EXPECT_EQ(*r, 21);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(4).value(), 8);
  EXPECT_FALSE(Doubled(-4).ok());
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
  EXPECT_EQ(Join(std::vector<int>{}, ","), "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, StrCatAndFormat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(RandomTest, UniformBounds) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RandomTest, Deterministic) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RandomTest, GaussianIsTheNormalDistributionStream) {
  // Bit-identical to std::normal_distribution(mean, stddev) over the same
  // engine at positive deviations, so seeded generators keep their data.
  for (double stddev : {1.0, 0.3, 7.25}) {
    Rng rng(17);
    std::mt19937_64 engine(17);
    for (int i = 0; i < 2000; ++i) {
      std::normal_distribution<double> dist(2.5, stddev);
      ASSERT_EQ(rng.Gaussian(2.5, stddev), dist(engine)) << i;
    }
  }
}

TEST(RandomTest, GaussianWithZeroDeviationReturnsTheMean) {
  // std::normal_distribution requires stddev > 0; a noise-free simulated
  // subject draws with stddev 0 and must get the mean back.
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Gaussian(4.5, 0.0), 4.5);
}

TEST(RandomTest, ZipfSkewsLow) {
  Rng rng(7);
  int low = 0;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(10, 1.0) == 0) ++low;
  }
  // Index 0 should carry far more than the uniform share of 10%.
  EXPECT_GT(low, kTrials / 5);
}

TEST(RandomTest, WeightedChoiceRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedChoice(weights), 1u);
  }
}

TEST(HashTest, VectorHashDiffers) {
  VectorHash<int32_t> h;
  EXPECT_NE(h({1, 2, 3}), h({3, 2, 1}));
  EXPECT_EQ(h({1, 2, 3}), h({1, 2, 3}));
  EXPECT_NE(h({}), h({0}));
}

TEST(TimerTest, Advances) {
  WallTimer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  testing::Test::RecordProperty("sink", sink);
  EXPECT_GE(t.ElapsedNanos(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace qagview
