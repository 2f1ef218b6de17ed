#include "common/background_scheduler.h"

#include <utility>

namespace qagview {

BackgroundScheduler::BackgroundScheduler() : worker_([this] { Loop(); }) {}

BackgroundScheduler::~BackgroundScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& lane : lanes_) lane.clear();  // drop, don't drain
  }
  cv_.notify_all();
  worker_.join();
}

void BackgroundScheduler::Submit(Lane lane, uint64_t token,
                                 std::function<void()> task) {
  const int li = static_cast<int>(lane);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    ++counters_[li].submitted;
    if (token != 0 && token < floor_) {
      // Already superseded at submission time (the catalog moved between
      // the caller's token read and here): never enqueue.
      ++counters_[li].dropped_superseded;
      return;
    }
    lanes_[li].push_back(Task{token, std::move(task)});
  }
  cv_.notify_one();
}

void BackgroundScheduler::InvalidateBelow(uint64_t floor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (floor <= floor_) return;
  floor_ = floor;
  DropSupersededLocked();
  // Dropping may have emptied the queues while a Drain() waits.
  if (active_ == 0 && RunnableLaneLocked() < 0) drained_cv_.notify_all();
}

void BackgroundScheduler::DropSupersededLocked() {
  for (int li = 0; li < kNumLanes; ++li) {
    auto& lane = lanes_[li];
    for (auto it = lane.begin(); it != lane.end();) {
      if (it->token != 0 && it->token < floor_) {
        it = lane.erase(it);
        ++counters_[li].dropped_superseded;
      } else {
        ++it;
      }
    }
  }
}

int BackgroundScheduler::RunnableLaneLocked() const {
  for (int li = 0; li < kNumLanes; ++li) {
    if (lanes_[li].empty()) continue;
    if (li == static_cast<int>(Lane::kPrefetch) &&
        foreground_active_.load(std::memory_order_acquire) > 0) {
      // Speculative work pauses while foreground requests are in flight.
      continue;
    }
    return li;
  }
  return -1;
}

void BackgroundScheduler::BeginForeground() {
  foreground_active_.fetch_add(1, std::memory_order_acq_rel);
}

void BackgroundScheduler::EndForeground() {
  if (foreground_active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last window closed: gated prefetch tasks may be runnable again. The
    // (empty) critical section orders the wake against the worker if it is
    // between evaluating its predicate and parking.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }
}

void BackgroundScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] {
    if (active_ != 0) return false;
    for (const auto& lane : lanes_) {
      if (!lane.empty()) return false;
    }
    return true;
  });
}

BackgroundScheduler::Counters BackgroundScheduler::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters out;
  for (int li = 0; li < kNumLanes; ++li) out.lanes[li] = counters_[li];
  return out;
}

void BackgroundScheduler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || RunnableLaneLocked() >= 0; });
    if (stop_) return;
    const int li = RunnableLaneLocked();
    Task task = std::move(lanes_[li].front());
    lanes_[li].pop_front();
    // The floor only rises, so a token valid here was valid for the whole
    // queued interval: no invalidation separates submit from run.
    ++active_;
    lock.unlock();
    task.fn();
    lock.lock();
    --active_;
    ++counters_[li].ran;
    if (active_ == 0 && RunnableLaneLocked() < 0) drained_cv_.notify_all();
  }
}

}  // namespace qagview
