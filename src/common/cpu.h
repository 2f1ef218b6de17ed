#ifndef QAGVIEW_COMMON_CPU_H_
#define QAGVIEW_COMMON_CPU_H_

namespace qagview {

/// CPUs this process may run on: the count of its affinity mask, which on a
/// pinned or containerized host is less than the machine has. Falls back to
/// std::thread::hardware_concurrency() where the mask cannot be read, and
/// is at least 1.
int AvailableCpus();

}  // namespace qagview

#endif  // QAGVIEW_COMMON_CPU_H_
