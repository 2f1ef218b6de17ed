#ifndef QAGVIEW_COMMON_SINGLE_FLIGHT_H_
#define QAGVIEW_COMMON_SINGLE_FLIGHT_H_

#include <future>
#include <map>
#include <optional>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace qagview {

/// What a caller of SingleFlight::Run did on its miss: found the answer
/// under the lock, waited on another caller's build, or built.
enum class FlightStep { kHit, kJoined, kLed };

/// \brief Single-flight cache misses: when several callers miss on one key
/// at once, one build runs and the others wait for it. The one copy of the
/// protocol behind the caches of core::Session (universe growth, grid
/// precompute) and service::QueryService (query execution, stale-handle
/// refresh).
///
/// The cache stays the caller's, and so does its writer lock: the class
/// holds only the builds in flight, guarded by that same lock, so every
/// Run on one SingleFlight must pass the same lock. The caller's warm path
/// probes its cache without the class; Run serves a miss.
template <typename Key>
class SingleFlight {
 public:
  /// Serves a miss on `key`. `lock()` acquires the caller's writer lock;
  /// `probe()`, called under it, returns the answer or nothing; `build()`
  /// runs without it, publishes its answer under it and returns it. A
  /// probe's answer is returned as is: an OK one is reported as kHit, an
  /// error refuses the request and reports nothing. On nothing the caller
  /// joins the key's flight (kJoined), waits, and returns the leader's
  /// error or probes again; or it starts the flight (kLed) and builds. The
  /// leader then erases the flight under the lock and only after that wakes
  /// the joiners, so each finds the published value or no flight: a failed
  /// build leaves nothing behind, and the next caller leads anew. `report`
  /// is called with each step as it happens, outside the lock.
  template <typename Lock, typename Probe, typename Build, typename Report>
  auto Run(const Key& key, Lock&& lock, Probe&& probe, Build&& build,
           Report&& report) -> decltype(build()) {
    while (true) {
      decltype(probe()) answer;
      std::promise<Status> finish;  // the leader's: its build's status
      std::shared_future<Status> flight;
      bool leader = false;
      {
        auto held = lock();
        answer = probe();
        if (!answer.has_value()) {
          auto [it, inserted] = flights_.try_emplace(key);
          if (inserted) it->second = finish.get_future().share();
          flight = it->second;
          leader = inserted;
        }
      }
      if (answer.has_value()) {
        if (answer->ok()) report(FlightStep::kHit);
        return std::move(*answer);
      }
      if (!leader) {
        report(FlightStep::kJoined);
        Status status = flight.get();
        if (!status.ok()) return status;
        continue;
      }
      report(FlightStep::kLed);
      auto built = build();
      {
        auto held = lock();
        flights_.erase(key);
      }
      finish.set_value(StatusOf(built));
      return built;
    }
  }

 private:
  static Status StatusOf(const Status& status) { return status; }
  template <typename T>
  static Status StatusOf(const Result<T>& result) {
    return result.status();
  }

  /// The builds in flight: each key's leader sets its build's status, which
  /// its joiners wait for. Guarded by the callers' lock.
  std::map<Key, std::shared_future<Status>> flights_;
};

}  // namespace qagview

#endif  // QAGVIEW_COMMON_SINGLE_FLIGHT_H_
