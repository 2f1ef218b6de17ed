#include "layers.h"

#include <algorithm>
#include <memory>

#include "common/json.h"
#include "core/answer_set.h"
#include "core/explore.h"
#include "core/hybrid.h"
#include "core/precompute.h"
#include "core/semilattice.h"
#include "core/session.h"
#include "server/serde.h"
#include "sql/executor.h"
#include "stats.h"
#include "storage/csv.h"
#include "storage/sample.h"

namespace perfbench {

using qagview::Result;
using qagview::Status;
using qagview::json::Json;
namespace core = qagview::core;
namespace server = qagview::server;
namespace service = qagview::service;
namespace sql = qagview::sql;
namespace storage = qagview::storage;

namespace {

/// Repetitions of each in-process call; the metric is their median.
constexpr int kRepeats = 5;

/// Runs `call` inside a span and returns its duration in ms.
template <typename F>
double Timed(Tracer* tracer, const char* name, int64_t parent, F&& call) {
  const int64_t span = tracer->Begin(name, parent);
  call();
  tracer->End(span);
  const Span& done = tracer->spans()[static_cast<size_t>(span)];
  return static_cast<double>(done.end_ns - done.start_ns) / 1e6;
}

/// `repeats` timed calls of `call`, which returns a Result; stores their
/// median time in `*ms` and returns the last call's result.
template <typename F>
auto Repeat(Tracer* tracer, const char* name, int64_t parent, int repeats,
            double* ms, F&& call) -> decltype(call()) {
  decltype(call()) last = Status::Internal("not run");
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    times.push_back(Timed(tracer, name, parent, [&] { last = call(); }));
    if (!last.ok()) break;
  }
  *ms = Median(std::move(times));
  return last;
}

/// Decodes the request and re-encodes the response of one exchange,
/// timing each.
template <typename Request, typename Response>
Status TimeSerde(const Exchange& exchange,
                 Result<Request> (*request_from_json)(const Json&),
                 Result<Response> (*response_from_json)(const Json&),
                 Tracer* tracer, int64_t parent, std::vector<double>* decode,
                 std::vector<double>* encode) {
  Status status;
  decode->push_back(Timed(tracer, "server.decode", parent, [&] {
    Result<Json> doc = Json::Parse(exchange.request);
    status = doc.ok() ? request_from_json(*doc).status() : doc.status();
  }));
  QAG_RETURN_IF_ERROR(status);
  QAG_ASSIGN_OR_RETURN(Json doc, Json::Parse(exchange.response));
  QAG_ASSIGN_OR_RETURN(Response response, response_from_json(doc));
  std::string bytes;
  encode->push_back(Timed(tracer, "server.encode", parent, [&] {
    bytes = server::ToJson(response).Dump();
  }));
  return Status::OK();
}

}  // namespace

Status ProbeLayers(const LayerSpec& spec, Tracer* tracer,
                   std::vector<Metric>* out) {
  const int64_t root = tracer->Begin("layers");
  auto add = [out](std::string name, double value, std::string unit) {
    out->push_back(Metric{std::move(name), value, std::move(unit)});
  };
  double ms = 0.0;

  // storage: the CSV the server loads at start-up.
  QAG_ASSIGN_OR_RETURN(
      storage::Table table,
      Repeat(tracer, "storage.ReadCsvFile", root, 3, &ms,
             [&] { return storage::ReadCsvFile(spec.csv_path); }));
  add("storage.csv_load_ms", ms, "ms");

  // sql: the workload's query over that table.
  sql::Catalog catalog;
  catalog.Register(spec.dataset, &table);
  QAG_ASSIGN_OR_RETURN(
      storage::Table result,
      Repeat(tracer, "sql.ExecuteSql", root, kRepeats, &ms,
             [&] { return sql::ExecuteSql(spec.sql, catalog); }));
  add("sql.execute_ms", ms, "ms");
  add("sql.rows_per_answer",
      static_cast<double>(table.num_rows()) /
          static_cast<double>(std::max<int64_t>(1, result.num_rows())),
      "ratio");

  // core: answer set, universe, (k, D) grid, summaries, retrieval, render.
  QAG_ASSIGN_OR_RETURN(
      core::AnswerSet answers,
      Repeat(tracer, "core.AnswerSet::FromTable", root, kRepeats, &ms, [&] {
        return core::AnswerSet::FromTable(result, spec.value_column);
      }));
  add("core.answers_ms", ms, "ms");
  const int top_l = std::min(spec.top_l, answers.size());

  auto build_universe = [&](int threads) {
    core::UniverseOptions options;
    options.num_threads = threads;
    return core::ClusterUniverse::Build(&answers, top_l, options);
  };
  double serial_ms = 0.0;
  QAG_RETURN_IF_ERROR(Repeat(tracer, "core.ClusterUniverse::Build(1 thread)",
                             root, kRepeats, &serial_ms,
                             [&] { return build_universe(1); })
                          .status());
  QAG_ASSIGN_OR_RETURN(
      core::ClusterUniverse universe,
      Repeat(tracer, "core.ClusterUniverse::Build", root, kRepeats, &ms,
             [&] { return build_universe(0); }));
  add("core.universe_ms", ms, "ms");
  add("core.universe_clusters", universe.num_clusters(), "count");
  add("core.universe_speedup", serial_ms / ms, "ratio");

  std::vector<double> fixed_order_ms, bottom_up_ms;
  int build_threads = 0;
  auto precompute = [&](int threads) {
    core::PrecomputeOptions options;
    options.num_threads = threads;
    core::PrecomputeStats stats;
    Result<core::SolutionStore> store =
        core::Precompute::Run(universe, top_l, options, &stats);
    if (threads == 0) {
      fixed_order_ms.push_back(stats.fixed_order_ms);
      bottom_up_ms.push_back(stats.bottom_up_ms);
      build_threads = stats.num_threads;
    }
    return store;
  };
  QAG_RETURN_IF_ERROR(Repeat(tracer, "core.Precompute::Run(1 thread)", root,
                             kRepeats, &serial_ms,
                             [&] { return precompute(1); })
                          .status());
  QAG_ASSIGN_OR_RETURN(core::SolutionStore store,
                       Repeat(tracer, "core.Precompute::Run", root, kRepeats,
                              &ms, [&] { return precompute(0); }));
  add("core.precompute_ms", ms, "ms");
  add("core.precompute.fixed_order_ms", Median(fixed_order_ms), "ms");
  add("core.precompute.bottom_up_ms", Median(bottom_up_ms), "ms");
  add("core.precompute_speedup", serial_ms / ms, "ratio");
  add("common.build_threads", build_threads, "count");

  std::vector<double> summarize_ms, render_ms, retrieve_ms;
  for (core::Params params : spec.params) {
    params.L = std::min(params.L, top_l);
    QAG_ASSIGN_OR_RETURN(
        core::Solution solution,
        Repeat(tracer, "core.Hybrid::Run", root, 1, &ms,
               [&] { return core::Hybrid::Run(universe, params); }));
    summarize_ms.push_back(ms);
    render_ms.push_back(Timed(tracer, "core.render", root, [&] {
      core::TwoLayerView view = core::BuildTwoLayerView(universe, solution);
      std::string summary = core::RenderSummary(universe, solution);
      std::string expanded = core::RenderExpanded(universe, solution, 8);
    }));
  }
  for (int d : store.d_values()) {
    QAG_ASSIGN_OR_RETURN(int min_k, store.MinK(d));
    for (int k = min_k; k <= store.k_max(); ++k) {
      QAG_RETURN_IF_ERROR(
          Repeat(tracer, "core.SolutionStore::Retrieve", root, 1, &ms,
                 [&] { return store.Retrieve(d, k); })
              .status());
      retrieve_ms.push_back(ms);
    }
  }
  add("core.summarize_ms", Median(summarize_ms), "ms");
  add("core.render_ms", Median(render_ms), "ms");
  add("core.retrieve_ms", Median(retrieve_ms), "ms");

  // storage: one append as the catalog does it (copy the snapshot, then
  // append), and the reservoir sample that follows it.
  const std::vector<std::vector<storage::Value>>& batch = spec.batch;
  QAG_ASSIGN_OR_RETURN(
      storage::Table grown,
      Repeat(tracer, "storage.Table::Clone+AppendRows", root, kRepeats, &ms,
             [&]() -> Result<storage::Table> {
               storage::Table copy = table.Clone();
               QAG_RETURN_IF_ERROR(copy.AppendRows(batch));
               return copy;
             }));
  add("storage.append_ms", ms, "ms");
  add("storage.rows_copied_per_row_appended",
      static_cast<double>(table.num_rows()) /
          static_cast<double>(batch.size()),
      "ratio");
  storage::ReservoirSampler sampler(table.schema(), 4096, 1);
  sampler.AddTable(table);
  QAG_RETURN_IF_ERROR(
      Repeat(tracer, "storage.ReservoirSampler::Add+Snapshot", root,
             kRepeats, &ms,
             [&]() -> Result<bool> {
               for (const auto& row : batch) sampler.Add(row);
               return sampler.Snapshot() != nullptr;
             })
          .status());
  add("storage.sample_ms", ms, "ms");

  // core: the refresh a stale session takes after that append.
  sql::Catalog grown_catalog;
  grown_catalog.Register(spec.dataset, &grown);
  QAG_ASSIGN_OR_RETURN(storage::Table regrouped,
                       sql::ExecuteSql(spec.sql, grown_catalog));
  QAG_ASSIGN_OR_RETURN(
      core::AnswerSet refreshed,
      core::AnswerSet::FromTable(regrouped, spec.value_column));
  QAG_ASSIGN_OR_RETURN(std::unique_ptr<core::Session> session,
                       core::Session::Create(answers));
  std::vector<double> refresh_ms;
  for (int r = 0; r < kRepeats; ++r) {
    QAG_RETURN_IF_ERROR(session->UniverseFor(top_l).status());
    core::AnswerSet next = r % 2 == 0 ? refreshed : answers;
    Status status;
    refresh_ms.push_back(Timed(tracer, "core.Session::Refresh", root, [&] {
      status = session->Refresh(std::move(next));
    }));
    QAG_RETURN_IF_ERROR(status);
  }
  add("core.refresh_ms", Median(refresh_ms), "ms");
  tracer->End(root);
  return Status::OK();
}

Status ProbeSerde(const std::vector<Exchange>& sample, Tracer* tracer,
                  std::vector<Metric>* out) {
  const int64_t root = tracer->Begin("serde");
  std::vector<double> decode, encode;
  for (const Exchange& e : sample) {
    Status status;
    if (e.target == "/query") {
      status = TimeSerde(e, &server::QueryRequestFromJson,
                         &server::QueryResponseFromJson, tracer, root, &decode,
                         &encode);
    } else if (e.target == "/summarize") {
      status = TimeSerde(e, &server::SummarizeRequestFromJson,
                         &server::SummarizeResponseFromJson, tracer, root,
                         &decode, &encode);
    } else if (e.target == "/guidance") {
      status = TimeSerde(e, &server::GuidanceRequestFromJson,
                         &server::GuidanceResponseFromJson, tracer, root,
                         &decode, &encode);
    } else if (e.target == "/retrieve") {
      status = TimeSerde(e, &server::RetrieveRequestFromJson,
                         &server::RetrieveResponseFromJson, tracer, root,
                         &decode, &encode);
    } else if (e.target == "/explore") {
      status = TimeSerde(e, &server::ExploreRequestFromJson,
                         &server::ExploreResponseFromJson, tracer, root,
                         &decode, &encode);
    } else if (e.target == "/append_rows") {
      status = TimeSerde(e, &server::AppendRowsRequestFromJson,
                         &server::AppendRowsResponseFromJson, tracer, root,
                         &decode, &encode);
    }
    QAG_RETURN_IF_ERROR(status);
  }
  tracer->End(root);
  out->push_back(Metric{"server.decode_ms", Median(decode), "ms"});
  out->push_back(Metric{"server.encode_ms", Median(encode), "ms"});
  return Status::OK();
}

}  // namespace perfbench
