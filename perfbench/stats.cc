#include "stats.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// ceil(p/100 * n), computed so that 99.9% of 1000 is exactly 999.
int64_t RankOf(int64_t n, double p) {
  return static_cast<int64_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t index = std::clamp<int64_t>(RankOf(n, p) - 1, 0, n - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[static_cast<size_t>(index)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

int64_t SamplesBeyond(int64_t n, double p) { return n - RankOf(n, p); }

double HighestSupportedPercentile(int64_t n) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first
  CpuJiffies out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice, so the first eight fields are the total).
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double ProcessCpuMs(pid_t pid) {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line, the 12th and 13th after it.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && (rest >> field); ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int64_t TimeWaitSockets() {
  std::ifstream in("/proc/net/sockstat");
  std::string token;
  while (in >> token) {
    if (token == "tw") {
      int64_t count = 0;
      in >> count;
      return count;
    }
  }
  return 0;
}

int NumCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace perfbench
