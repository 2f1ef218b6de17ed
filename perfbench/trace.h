#ifndef QAGVIEW_PERFBENCH_TRACE_H_
#define QAGVIEW_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call: a layer boundary crossed by the traced run.
struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  int64_t op = -1;      // the op the span belongs to, -1 outside ops
};

/// \brief Spans of the traced run, held in memory and written out at exit.
/// One tracer per thread; Merge() folds them together afterwards.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Opens a span and returns its index.
  int64_t Begin(std::string name, int64_t parent = -1, int64_t op = -1) {
    spans_.push_back(Span{std::move(name), NowNs(), 0, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  /// Appends `other`'s spans, re-indexing their parents. Both tracers
  /// must share one epoch.
  void Merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  Clock::time_point epoch() const { return epoch_; }

  /// Per span name: total self time in ms, i.e. each span's duration
  /// minus the durations of its direct children.
  std::map<std::string, double> SelfMs() const;

  /// {"spans": [...], "self_ms": {...}} as one JSON document.
  std::string ToJson() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // QAGVIEW_PERFBENCH_TRACE_H_
