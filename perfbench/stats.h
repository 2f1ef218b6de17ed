#ifndef QAGVIEW_PERFBENCH_STATS_H_
#define QAGVIEW_PERFBENCH_STATS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (p in (0, 100]): the smallest
/// sample with at least p% of all samples at or below it. 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Samples strictly above the nearest-rank p-th percentile position:
/// n - ceil(p/100 * n).
int64_t SamplesBeyond(int64_t n, double p);

/// The tail-percentile rule of op_tail_ms: the highest percentile of the
/// ladder {50, 75, 90, 95, 99, 99.9} that leaves at least 10 samples
/// beyond it, or 0 when even the median does not.
double HighestSupportedPercentile(int64_t n);

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
/// Steal share of all CPU time between two readings (0 when no time passed).
double StealShare(const CpuJiffies& before, const CpuJiffies& after);

/// utime + stime of a process (all its threads), in milliseconds.
double ProcessCpuMs(pid_t pid);
/// Peak resident set (VmHWM) of a process, in MiB.
double ProcessPeakRssMb(pid_t pid);

/// TIME_WAIT sockets of this network namespace (/proc/net/sockstat "tw").
int64_t TimeWaitSockets();

/// The host facts every run records: online CPUs and the CPU model name.
int NumCpus();
std::string CpuModel();

}  // namespace perfbench

#endif  // QAGVIEW_PERFBENCH_STATS_H_
