#ifndef QAGVIEW_COMMON_PARALLEL_FOR_H_
#define QAGVIEW_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/cpu.h"

namespace qagview {

/// Invokes fn(i) for every i in [begin, end) on up to `width` threads and
/// returns once every call has finished. The caller runs one share itself,
/// so the call starts min(width, end - begin) - 1 threads and joins them
/// all before returning; no thread outlives it. `width <= 0` means
/// AvailableCpus(), so a process pinned to one CPU runs serially. Width 1,
/// or at most one index, runs every call inline on the caller, with no
/// thread, lock or atomic.
///
/// Indices are handed out by an atomic cursor, so which thread runs which
/// index varies from call to call: `fn` must write only to state owned by
/// its index for the result not to depend on the schedule. The first
/// exception `fn` throws stops further claims and is rethrown on the caller
/// after every thread has joined. Concurrent calls share nothing.
inline void ParallelFor(int width, int64_t begin, int64_t end,
                        const std::function<void(int64_t)>& fn) {
  if (end <= begin) return;
  if (width <= 0) width = AvailableCpus();
  const int threads = static_cast<int>(std::min<int64_t>(width, end - begin));
  if (threads <= 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  std::atomic<int64_t> next{begin};
  std::mutex error_mu;
  std::exception_ptr error;
  auto drain = [&] {
    for (int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < end;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(end, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    try {
      workers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the ones started, and the caller, do it
    }
  }
  drain();
  for (std::thread& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace qagview

#endif  // QAGVIEW_COMMON_PARALLEL_FOR_H_
