#ifndef QAGVIEW_COMMON_BACKGROUND_SCHEDULER_H_
#define QAGVIEW_COMMON_BACKGROUND_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace qagview {

/// \brief The one home for all deferred work: a prioritized, cancelable
/// task scheduler with two lanes and one worker thread.
///
/// Background execution used to be scattered (a private one-thread FIFO
/// executor for refinement, nothing for speculative work); none of that
/// could express "spend idle cycles speculatively, yield instantly to
/// foreground work." The scheduler expresses exactly that:
///
///  * **Lanes, strictly prioritized.** The worker, once free, always takes
///    the oldest task from the highest non-empty lane: kRefinement (exact
///    builds behind approximate answers) beats kPrefetch (speculative
///    builds). Within a lane, FIFO; with one worker, tasks also finish in
///    the order they start, which refinements rely on.
///  * **Validity tokens, superseded work dropped.** Every task carries a
///    uint64 token — by convention the catalog version it was scheduled
///    under; 0 means "never superseded." InvalidateBelow(floor) drops every
///    queued task whose nonzero token is below `floor` without running it
///    (and a Submit after the floor rose drops immediately), so a dataset
///    update cancels the speculative work it just invalidated instead of
///    letting it burn cycles building structures for a retired generation.
///    A task's token proves more than liveness: token still valid at
///    dequeue means no invalidation happened between submit and run.
///  * **Foreground yield.** While any BeginForeground/EndForeground window
///    (or ForegroundGuard) is open, the worker does not *start* kPrefetch
///    tasks — a running one is never interrupted, but the speculative
///    queue pauses until the foreground burst ends. kRefinement is not
///    gated: its work is owed, not speculative.
///
/// Submit never blocks and never runs the task inline. Shutdown drops, it
/// does not drain: the destructor lets running tasks finish, discards
/// everything still queued, and joins. Tasks must therefore be safe to
/// never run, and must not reference state destroyed before the scheduler
/// — declare a BackgroundScheduler *last* in the owning class so it is
/// destroyed (and quiesced) first. Drain() exists for tests and benches
/// that need a quiescent state.
class BackgroundScheduler {
 public:
  enum class Lane {
    kRefinement = 0,  // owed work: exact builds behind approx answers
    kPrefetch = 1,    // speculative: droppable, yields to foreground
  };
  static constexpr int kNumLanes = 2;

  /// Per-lane lifetime counters (monotonic; consistent under counters()).
  struct LaneCounters {
    int64_t submitted = 0;  // Submit() calls accepted or dropped below
    int64_t ran = 0;        // tasks actually executed to completion
    /// Queued (or just-submitted) tasks whose token fell below the
    /// invalidation floor and were discarded without running.
    int64_t dropped_superseded = 0;
  };
  struct Counters {
    LaneCounters lanes[kNumLanes];
    const LaneCounters& lane(Lane lane) const {
      return lanes[static_cast<int>(lane)];
    }
  };

  /// Starts the one worker: tasks run one at a time, so within a lane
  /// they run in submission order.
  BackgroundScheduler();
  ~BackgroundScheduler();

  BackgroundScheduler(const BackgroundScheduler&) = delete;
  BackgroundScheduler& operator=(const BackgroundScheduler&) = delete;

  /// Enqueues `task` on `lane` and returns immediately. `token` is the
  /// validity token (0 = never superseded). After shutdown began, or when
  /// the nonzero token is already below the invalidation floor, the task
  /// is silently dropped (callers must tolerate tasks never running).
  void Submit(Lane lane, uint64_t token, std::function<void()> task);

  /// Raises the invalidation floor: every queued task with a nonzero
  /// token < `floor` is dropped, never run. Call with the new catalog
  /// version after a dataset mutation. The floor is monotonic; stale
  /// (lower) calls are no-ops.
  void InvalidateBelow(uint64_t floor);

  /// Foreground-activity gate. While the count of open windows is > 0,
  /// the worker does not start kPrefetch tasks. Begin is wait-free (one
  /// atomic increment); End takes the scheduler mutex only when closing the
  /// last window (to wake the worker parked on gated prefetch work).
  void BeginForeground();
  void EndForeground();

  /// RAII foreground window; a null scheduler makes it a no-op, so call
  /// sites can gate on configuration without branching.
  class ForegroundGuard {
   public:
    explicit ForegroundGuard(BackgroundScheduler* scheduler)
        : scheduler_(scheduler) {
      if (scheduler_ != nullptr) scheduler_->BeginForeground();
    }
    ~ForegroundGuard() {
      if (scheduler_ != nullptr) scheduler_->EndForeground();
    }
    ForegroundGuard(const ForegroundGuard&) = delete;
    ForegroundGuard& operator=(const ForegroundGuard&) = delete;

   private:
    BackgroundScheduler* scheduler_;
  };

  /// Blocks until every lane is empty and no task is running. Gated
  /// prefetch tasks still count as pending: Drain waits for the foreground
  /// window to close and the work to run (or be invalidated). Only
  /// meaningful when no concurrent Submit is racing (tests, benches).
  void Drain();

  Counters counters() const;

 private:
  struct Task {
    uint64_t token = 0;
    std::function<void()> fn;
  };

  void Loop();
  /// Caller holds mu_. Drops queued tasks with nonzero token < floor_.
  void DropSupersededLocked();
  /// Caller holds mu_. Index of the highest-priority lane with a task the
  /// worker may start now, or -1.
  int RunnableLaneLocked() const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<Task> lanes_[kNumLanes];
  LaneCounters counters_[kNumLanes];
  uint64_t floor_ = 0;
  int active_ = 0;
  bool stop_ = false;
  std::atomic<int64_t> foreground_active_{0};
  std::thread worker_;  // last: started after everything it reads
};

}  // namespace qagview

#endif  // QAGVIEW_COMMON_BACKGROUND_SCHEDULER_H_
