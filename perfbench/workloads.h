#ifndef QAGVIEW_PERFBENCH_WORKLOADS_H_
#define QAGVIEW_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/solution.h"
#include "storage/value.h"

namespace perfbench {

/// One POST to the server: endpoint path and JSON body.
struct Request {
  std::string target;
  std::string body;
};

/// One op: the requests an analyst sends back to back, each after the
/// previous answer arrived.
using Op = std::vector<Request>;

/// What the load loop keeps of one completed op.
struct OpRecord {
  int64_t index = 0;  // position in the connection's op stream
  /// Every request got a 2xx response over a working connection.
  bool ok = true;
  /// Per request: Fingerprint(WithoutStats(body)), 0 when it failed.
  std::vector<uint64_t> fingerprints;
  /// The catalog version an /append_rows answer published, or -1.
  int64_t appended_version = -1;
};

/// Records one request's answer in `record`: a 2xx `body`, or nullptr for
/// a failed request.
void RecordAnswer(const Request& request, const std::string* body,
                  OpRecord* record);

/// The in-process inputs of the per-layer probe (layers.h).
struct LayerSpec {
  std::string csv_path;
  std::string dataset;
  std::string sql;
  std::string value_column;
  /// Coverage level of the universe and (k, D) grid probes.
  int top_l = 0;
  /// Summarize/render parameters taken from the workload's requests.
  std::vector<qagview::core::Params> params;
  /// The rows one append adds.
  std::vector<std::vector<qagview::storage::Value>> batch;
};

/// \brief A seeded workload: its inputs, its set-up requests, its op
/// streams (one per connection), and the output checks of a finished run.
///
/// Everything is a pure function of the seed: two instances with the same
/// seed write the same CSV bytes and produce byte-identical op streams.
class Workload {
 public:
  /// The fixed facts of a workload besides its requests.
  struct Shape {
    /// Closed-loop analysts, one connection each.
    int connections = 1;
    /// The op_tail_ms percentile.
    double tail_percentile = 90.0;
    /// Set-ups per untraced run; setup_s is their median.
    int setups = 3;
    /// Rounds of the measured window; in each, every connection does one
    /// op, and the next round starts once all of them are done. 0: the
    /// connections run freely for --seconds instead. Workloads whose op
    /// cost grows with every op done run a fixed number of rounds, with
    /// --seconds only as a cap, so faster code does the same work.
    int64_t rounds = 0;
    /// Ops per second per connection the streams are generated ahead for,
    /// when there are no rounds.
    int max_op_rate = 100;
  };

  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  const Shape& shape() const { return shape_; }

  /// Writes the input CSVs under `dir` and builds what the op streams and
  /// checks need. Untimed: runs before any server starts.
  virtual qagview::Status Prepare(const std::string& dir) = 0;

  /// (dataset name, CSV path) pairs for qagview_server --dataset.
  const std::vector<std::pair<std::string, std::string>>& datasets() const {
    return datasets_;
  }
  /// Set-up requests, sent in order on one connection once the server
  /// listens; setup_s ends with the last response.
  const std::vector<Request>& warmup() const { return warmup_; }
  /// Fingerprint(WithoutStats(...)) of the in-process reference response to
  /// each set-up request: a server whose set-up answers differ (a handle
  /// numbered differently, say) fails the run before it is measured.
  const std::vector<uint64_t>& warmup_fingerprints() const {
    return warmup_fingerprints_;
  }

  /// The op at position `index` of connection `conn`'s stream. Calls for
  /// one connection must come from one thread; connections are independent.
  virtual const Op& OpAt(int conn, int64_t index) = 0;

  /// Compares the recorded ops with references computed in-process from
  /// the same CSVs. Returns the number of ops that failed a check, with a
  /// description of the first failure in `*detail`. Untimed.
  virtual qagview::Result<int64_t> Check(
      const std::vector<std::vector<OpRecord>>& logs,
      std::string* detail) = 0;

  /// The per-layer probe's inputs.
  virtual qagview::Result<LayerSpec> Layers() = 0;

  /// One request for each endpoint the op stream never sends, valid after
  /// the measured window, in a safe order: the traced run repeats each to
  /// report every endpoint's service latency on every workload.
  virtual qagview::Result<std::vector<Request>> EndpointProbes() = 0;

 protected:
  Workload(std::string name, Shape shape)
      : name_(std::move(name)), shape_(shape) {}

  std::vector<std::pair<std::string, std::string>> datasets_;
  std::vector<Request> warmup_;
  std::vector<uint64_t> warmup_fingerprints_;

 private:
  const std::string name_;
  const Shape shape_;
};

/// The workload called `name` ("explore", "drilldown", "ingest") at
/// `seed`, or nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Names of all workloads, in benchmark order.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // QAGVIEW_PERFBENCH_WORKLOADS_H_
