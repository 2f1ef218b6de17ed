// Figure 8 + §6.3: effect of the three systems optimizations.
//   8a  cluster generation & tuple mapping (optimized vs naive init)
//   8b  delta judgment (optimized vs naive merge-candidate evaluation)
//   §6.3 hash/dictionary-encoded fields (int32 codes vs raw strings),
//        as a google-benchmark microbenchmark.

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/hybrid.h"

namespace {

using namespace qagview;

int InstanceSize() { return benchutil::SmokeMode() ? 600 : 2087; }

core::AnswerSet& Instance() {
  static core::AnswerSet* s = new core::AnswerSet(
      benchutil::MakeAnswers(InstanceSize(), 8, /*seed=*/9));
  return *s;
}

// --- §6.3 hash-values-for-fields microbenchmark: probing a pattern index
// keyed by int32 codes vs by strings. ---

constexpr int kPatterns = 4096;
constexpr int kAttrs = 8;

std::vector<std::vector<int32_t>> MakeCodePatterns() {
  qagview::Rng rng(11);
  std::vector<std::vector<int32_t>> out;
  for (int i = 0; i < kPatterns; ++i) {
    std::vector<int32_t> p(kAttrs);
    for (int a = 0; a < kAttrs; ++a) {
      p[static_cast<size_t>(a)] = static_cast<int32_t>(rng.Index(9));
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<std::string> CodeToString(const std::vector<int32_t>& codes) {
  std::vector<std::string> out;
  for (int32_t c : codes) {
    out.push_back("attribute_value_" + std::to_string(c));
  }
  return out;
}

void BM_PatternProbe_IntCodes(benchmark::State& state) {
  auto patterns = MakeCodePatterns();
  std::unordered_map<std::vector<int32_t>, int, qagview::VectorHash<int32_t>>
      index;
  for (size_t i = 0; i < patterns.size(); ++i) {
    index.emplace(patterns[i], static_cast<int>(i));
  }
  size_t cursor = 0;
  for (auto _ : state) {
    auto it = index.find(patterns[cursor % patterns.size()]);
    benchmark::DoNotOptimize(it);
    ++cursor;
  }
}
BENCHMARK(BM_PatternProbe_IntCodes);

void BM_PatternProbe_Strings(benchmark::State& state) {
  auto patterns = MakeCodePatterns();
  std::unordered_map<std::vector<std::string>, int, VectorHash<std::string>>
      index;
  std::vector<std::vector<std::string>> keys;
  for (size_t i = 0; i < patterns.size(); ++i) {
    keys.push_back(CodeToString(patterns[i]));
    index.emplace(keys.back(), static_cast<int>(i));
  }
  size_t cursor = 0;
  for (auto _ : state) {
    auto it = index.find(keys[cursor % keys.size()]);
    benchmark::DoNotOptimize(it);
    ++cursor;
  }
}
BENCHMARK(BM_PatternProbe_Strings);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::SmokeMode();
  benchutil::JsonReporter reporter("fig8_optimizations");
  const int n = InstanceSize();
  benchutil::PrintHeader(
      "Figure 8a: initialization with vs without the cluster-generation / "
      "tuple-mapping optimizations (k=20, D=2, N=" + std::to_string(n) + ")",
      "the optimized path (tuples probe the generated-cluster index) beats "
      "the naive per-cluster scan by 2-3 orders of magnitude, growing with L"
      " (paper: >100s -> 0.5s at L=1000)");
  core::AnswerSet& s = Instance();
  std::printf("%-6s %16s %16s %10s\n", "L", "with opt(ms)", "without(ms)",
              "speedup");
  for (int l : {200, 500, 1000}) {
    int use_l = smoke ? l / 5 : l;
    benchutil::TimingStats with_t = benchutil::TimeStats(
        [&] {
          auto u = core::ClusterUniverse::Build(&s, use_l);
          QAG_CHECK(u.ok());
        },
        1);
    core::UniverseOptions naive;
    naive.naive_mapping = true;
    benchutil::TimingStats without_t = benchutil::TimeStats(
        [&] {
          auto u = core::ClusterUniverse::Build(&s, use_l, naive);
          QAG_CHECK(u.ok());
        },
        1);
    std::printf("%-6d %16.2f %16.2f %9.1fx\n", use_l, with_t.median_ms,
                without_t.median_ms, without_t.median_ms / with_t.median_ms);
    reporter.Add("8a_init_optimized", {{"L", use_l}, {"N", n}}, with_t);
    reporter.Add("8a_init_naive", {{"L", use_l}, {"N", n}}, without_t);
  }

  benchutil::PrintHeader(
      "Figure 8b: algorithm runtime with vs without delta judgment "
      "(k=20, D=2, N=" + std::to_string(n) + ")",
      "delta judgment cuts the greedy merge loop by an order of magnitude "
      "or more at large L (paper: 4.6s -> 0.15s at L=1000)");
  std::printf("%-6s %16s %16s %10s\n", "L", "with delta(ms)",
              "without(ms)", "speedup");
  for (int l : {200, 500, 1000}) {
    int use_l = smoke ? l / 5 : l;
    auto u = core::ClusterUniverse::Build(&s, use_l);
    QAG_CHECK(u.ok());
    core::HybridOptions with;
    with.use_delta_judgment = true;
    core::HybridOptions without;
    without.use_delta_judgment = false;
    // One untimed run first, so neither variant pays first-touch costs
    // (page faults, allocator growth) inside the clock.
    QAG_CHECK(core::Hybrid::Run(*u, {20, use_l, 2}, with).ok());
    benchutil::TimingStats with_t = benchutil::TimeStats(
        [&] { QAG_CHECK(core::Hybrid::Run(*u, {20, use_l, 2}, with).ok()); },
        5);
    benchutil::TimingStats without_t = benchutil::TimeStats(
        [&] {
          QAG_CHECK(core::Hybrid::Run(*u, {20, use_l, 2}, without).ok());
        },
        5);
    std::printf("%-6d %16.2f %16.2f %9.1fx\n", use_l, with_t.median_ms,
                without_t.median_ms, without_t.median_ms / with_t.median_ms);
    reporter.Add("8b_hybrid_delta_judgment",
                 {{"L", use_l}, {"N", n}, {"k", 20}, {"D", 2}}, with_t);
    reporter.Add("8b_hybrid_naive_judgment",
                 {{"L", use_l}, {"N", n}, {"k", 20}, {"D", 2}}, without_t);
  }

  benchutil::PrintHeader(
      "§6.3 'hash values for fields': dictionary-coded vs string patterns",
      "integer-coded pattern probes are ~an order of magnitude cheaper "
      "(the paper reports ~50x end-to-end)");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  reporter.WriteFile();
  return 0;
}
