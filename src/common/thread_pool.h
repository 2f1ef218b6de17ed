#ifndef QAGVIEW_COMMON_THREAD_POOL_H_
#define QAGVIEW_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/logging.h"

namespace qagview {

/// \brief Deterministic fixed-size thread pool for the (k, D) precompute's
/// parallel per-D replays.
///
/// Design constraints, in order:
///
///  * **Determinism of results.** There is no work stealing and no nested
///    submission; a `ParallelFor` body must write only to slots owned by its
///    index, so the output is bit-identical regardless of which worker
///    executes which index. Index *assignment* is dynamic (an atomic
///    cursor, for load balance across uneven per-D replays), which is safe
///    precisely because bodies are index-pure.
///
///  * **Serial fallback.** `num_threads == 1` spawns no workers and runs
///    every body inline on the caller, so the single-threaded path is
///    exactly the pre-pool code path (no locks, no atomics in the loop).
///
///  * **Exception propagation.** The first exception thrown by any body
///    aborts the remaining iterations and is rethrown on the calling thread
///    once all workers have quiesced.
///
/// The pool keeps its workers parked on a condition variable between jobs.
/// `ParallelFor` may be called repeatedly, but only from one thread at a
/// time (the pool is an engine internal, not a general-purpose scheduler).
class ThreadPool {
 public:
  /// Worker count used for `num_threads <= 0`: the CPUs this process may
  /// run on (AvailableCpus), so a server pinned to one CPU builds serially
  /// instead of time-slicing a pool of the machine's size.
  static int DefaultNumThreads() { return AvailableCpus(); }

  explicit ThreadPool(int num_threads = 0)
      : num_threads_(num_threads > 0 ? num_threads : DefaultNumThreads()) {
    workers_.reserve(static_cast<size_t>(num_threads_ - 1));
    // The calling thread participates in every job, so only n-1 workers.
    for (int i = 1; i < num_threads_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Invokes fn(i) for every i in [begin, end), distributed over the pool.
  /// Blocks until every iteration completed (or one threw; see above).
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& fn) {
    if (end <= begin) return;
    if (num_threads_ == 1 || end - begin == 1) {
      for (int64_t i = begin; i < end; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      QAG_CHECK(fn_ == nullptr) << "ParallelFor is not reentrant";
      fn_ = &fn;
      end_ = end;
      next_.store(begin, std::memory_order_relaxed);
      pending_workers_ = num_threads_ - 1;
      ++epoch_;
    }
    job_cv_.notify_all();
    RunCurrentJob();  // caller is worker 0
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_workers_ == 0; });
    fn_ = nullptr;
    if (exception_) {
      std::exception_ptr e = exception_;
      exception_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      job_cv_.wait(lock,
                   [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      lock.unlock();
      RunCurrentJob();
      lock.lock();
      if (--pending_workers_ == 0) done_cv_.notify_all();
    }
  }

  /// Drains the shared index cursor. On exception, records the first one
  /// and fast-forwards the cursor so all participants stop claiming work.
  void RunCurrentJob() {
    while (true) {
      int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= end_) return;
      try {
        (*fn_)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!exception_) exception_ = std::current_exception();
        next_.store(end_, std::memory_order_relaxed);
        return;
      }
    }
  }

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_cv_;   // workers wait here between jobs
  std::condition_variable done_cv_;  // caller waits here for quiescence
  bool stop_ = false;
  uint64_t epoch_ = 0;      // bumped per job; workers compare-and-run
  int pending_workers_ = 0;  // workers yet to finish the current job
  const std::function<void(int64_t)>* fn_ = nullptr;
  int64_t end_ = 0;
  std::atomic<int64_t> next_{0};
  std::exception_ptr exception_;
};

// Deferred (fire-and-forget) work does not live here: it goes through
// common/background_scheduler.h, the one prioritized, cancelable home for
// refinement and prefetch tasks. ThreadPool remains the engine-internal
// primitive for *synchronous* data parallelism — the caller participates
// and blocks until the job completes — which is a different contract from
// deferral, not a competing executor.

}  // namespace qagview

#endif  // QAGVIEW_COMMON_THREAD_POOL_H_
