#ifndef QAGVIEW_BENCH_BENCH_UTIL_H_
#define QAGVIEW_BENCH_BENCH_UTIL_H_

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/answer_set.h"
#include "datagen/answers.h"

// Baked in by bench/CMakeLists.txt (git describe at configure time) so a
// recorded BENCH_*.json names the code state it measured.
#ifndef QAGVIEW_GIT_DESCRIBE
#define QAGVIEW_GIT_DESCRIBE "unknown"
#endif

namespace qagview::benchutil {

/// Synthesizes a MovieLens-answer-shaped instance with exact n and m (see
/// DESIGN.md: the benches substitute direct answer-set synthesis for the
/// PostgreSQL-backed queries; the algorithms only ever see the answer set).
inline core::AnswerSet MakeAnswers(int n, int m, uint64_t seed = 1,
                                   int domain = 9) {
  datagen::SyntheticAnswerOptions options;
  options.n = n;
  options.m = m;
  options.domain = domain;
  options.seed = seed;
  return datagen::MakeSyntheticAnswers(options);
}

/// Prints the figure banner: what is being reproduced and what shape the
/// paper reports (absolute numbers differ; see EXPERIMENTS.md).
inline void PrintHeader(const std::string& figure,
                        const std::string& paper_expectation) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper expectation: %s\n", paper_expectation.c_str());
  std::printf("================================================================\n");
}

/// Wall-time summary of repeated runs, as recorded in BENCH_*.json.
struct TimingStats {
  double median_ms = 0.0;
  double min_ms = 0.0;
  int reps = 0;
};

/// Median and min wall time over `reps` runs of fn().
inline TimingStats TimeStats(const std::function<void()>& fn, int reps = 3) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return {times[times.size() / 2], times.front(), reps};
}

/// Median wall time in milliseconds over `reps` runs of fn().
inline double TimeMillis(const std::function<void()>& fn, int reps = 3) {
  return TimeStats(fn, reps).median_ms;
}

/// CI smoke mode (QAGVIEW_BENCH_SMOKE=1): drivers shrink their instances so
/// the whole run takes seconds; the JSON marks the rows as smoke-sized so a
/// baseline comparison never mixes the two scales.
inline bool SmokeMode() {
  const char* v = std::getenv("QAGVIEW_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// The machine a bench ran on, stamped into every BENCH_*.json.
struct HostInfo {
  /// CPUs in this process's affinity mask: what the run could use, which
  /// on a pinned or containerized runner is less than the machine has.
  int nproc = 0;
  /// The first "model name" in /proc/cpuinfo.
  std::string cpu_model = "unknown";
};

inline HostInfo CurrentHost() {
  HostInfo out;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    out.nproc = CPU_COUNT(&mask);
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      out.cpu_model = std::string(StripWhitespace(line.substr(colon + 1)));
      break;
    }
  }
  return out;
}

/// \brief Machine-readable bench output: one BENCH_<figure>.json per
/// driver, accumulating rows of (name, numeric params, median/min ms,
/// reps) plus the figure id, git-describe string, smoke flag, and host.
///
/// The schema is documented in bench/README.md; CI runs the JSON-emitting
/// drivers in smoke mode and uploads the files as artifacts, so the perf
/// trajectory of the repo accumulates per PR.
class JsonReporter {
 public:
  explicit JsonReporter(std::string figure) : figure_(std::move(figure)) {}

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    if (!written_) WriteFile();
  }

  /// Records one timed row. Params are numeric by design (k, L, N, D,
  /// threads, ...) and form the regression gate's join key; variant names
  /// belong in `name`. `extras` are measured outputs reported alongside
  /// (e.g. memory/occupancy counters) — deliberately outside the join key
  /// so their run-to-run variation never un-gates the timing comparison.
  void Add(const std::string& name,
           const std::vector<std::pair<std::string, double>>& params,
           const TimingStats& t,
           const std::vector<std::pair<std::string, double>>& extras = {}) {
    std::string row = "    {\"name\": \"" + name + "\", \"params\": {";
    for (size_t i = 0; i < params.size(); ++i) {
      if (i > 0) row += ", ";
      row += "\"" + params[i].first + "\": " + Num(params[i].second);
    }
    row += "}";
    if (!extras.empty()) {
      row += ", \"extras\": {";
      for (size_t i = 0; i < extras.size(); ++i) {
        if (i > 0) row += ", ";
        row += "\"" + extras[i].first + "\": " + Num(extras[i].second);
      }
      row += "}";
    }
    row += ", \"median_ms\": " + Num(t.median_ms) +
           ", \"min_ms\": " + Num(t.min_ms) +
           ", \"reps\": " + std::to_string(t.reps) + "}";
    rows_.push_back(std::move(row));
  }

  /// Writes BENCH_<figure>.json into the current directory (where CI picks
  /// it up). Returns false on I/O failure.
  bool WriteFile() {
    written_ = true;
    std::string path = "BENCH_" + figure_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot write %s\n", path.c_str());
      return false;
    }
    const HostInfo host = CurrentHost();
    std::string cpu_model;
    json::AppendQuoted(host.cpu_model, &cpu_model);
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n  \"git\": \"%s\",\n"
                    "  \"smoke\": %s,\n"
                    "  \"host\": {\"nproc\": %d, \"cpu_model\": %s},\n"
                    "  \"entries\": [\n",
                 figure_.c_str(), QAGVIEW_GIT_DESCRIBE,
                 SmokeMode() ? "true" : "false", host.nproc,
                 cpu_model.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu entries)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string figure_;
  std::vector<std::string> rows_;
  bool written_ = false;
};

}  // namespace qagview::benchutil

#endif  // QAGVIEW_BENCH_BENCH_UTIL_H_
