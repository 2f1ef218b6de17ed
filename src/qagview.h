#ifndef QAGVIEW_QAGVIEW_H_
#define QAGVIEW_QAGVIEW_H_

/// \file qagview.h
/// \brief Umbrella header for the QAGView library — summarization and
/// interactive exploration of top aggregate query answers (Wen, Zhu, Roy,
/// Yang; VLDB 2018).
///
/// The typical pipeline:
///
///   #include "qagview.h"
///   using namespace qagview;
///
///   // 1. Load data (CSV, generator, or build a storage::Table directly).
///   auto table = storage::ReadCsvFile("ratings.csv");
///
///   // 2. Run the aggregate query.
///   sql::Catalog catalog;
///   catalog.Register("ratings", &*table);
///   auto result = sql::ExecuteSql(
///       "SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
///       "FROM ratings GROUP BY hdec, agegrp, gender, occupation "
///       "HAVING count(*) > 50 ORDER BY val DESC", catalog);
///
///   // 3. Open a session and summarize under (k, L, D).
///   auto session = core::Session::FromTable(*result, "val");
///   auto solution = (*session)->Summarize({/*k=*/4, /*L=*/8, /*D=*/2});
///
///   // 4. Display the two layers (Figures 1b/1c). UniverseFor returns a
///   //    shared_ptr handle pinning the universe while you render.
///   auto universe = (*session)->UniverseFor(8);
///   std::cout << core::RenderSummary(**universe, *solution)
///             << core::RenderExpanded(**universe, *solution);
///
///   // 5. Interactive exploration: precompute the (k, D) grid once,
///   //    retrieve any combination instantly, chart it, persist it.
///   //    Hold the handle, never a raw pointer extracted from it: the
///   //    handle keeps the grid valid across live-data refreshes, and
///   //    dropping it lets a superseded generation be evicted.
///   auto guidance = (*session)->Guidance(8);
///   auto alt = (*guidance)->Retrieve(/*d=*/1, /*k=*/6);
///   (*session)->SaveGuidance(8, "guidance.store");
///
/// Layer map (see DESIGN.md for the full inventory):
///   storage/    columnar tables, dictionary encoding, CSV
///   sql/        lexer, parser, aggregate-query executor
///   datagen/    MovieLens-like and TPC-DS-like workload generators
///   core/       clusters, semilattice universe, greedy algorithms,
///               precompute + interval-tree store (+ persistence),
///               concept hierarchies, session cache
///   baselines/  smart drill-down, diversified top-k, DisC, MMR,
///               decision trees
///   service/    thread-safe multi-client QueryService: dataset catalog,
///               SQL -> cached answer sets, shared sessions with
///               single-flight builds, per-request statistics
///   server/     dependency-free HTTP/1.1 front end over QueryService
///               (epoll poller + worker pool, keep-alive connections,
///               bounded per-request admission, graceful drain), JSON
///               serde for the api.h structs, open-loop load generator
///   viz/        parameter grid (Fig 2), Sankey comparison + placement
///               optimization (Fig 13-16, A.7)
///   study/      simulated-subject user study (Section 8)

#include "baselines/decision_tree.h"
#include "baselines/disc_diversity.h"
#include "baselines/diversified_topk.h"
#include "baselines/mmr.h"
#include "baselines/smart_drilldown.h"
#include "common/json.h"
#include "core/answer_set.h"
#include "core/bottom_up.h"
#include "core/brute_force.h"
#include "core/cluster.h"
#include "core/explore.h"
#include "core/fixed_order.h"
#include "core/hierarchical_summarizer.h"
#include "core/hierarchy.h"
#include "core/hybrid.h"
#include "core/numeric_distance.h"
#include "core/precompute.h"
#include "core/semilattice.h"
#include "core/session.h"
#include "core/solution.h"
#include "core/solution_store.h"
#include "core/solution_store_io.h"
#include "datagen/answers.h"
#include "datagen/movielens.h"
#include "datagen/store_sales.h"
#include "server/http.h"
#include "server/loadgen.h"
#include "server/serde.h"
#include "server/server.h"
#include "service/api.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/csv.h"
#include "storage/sample.h"
#include "storage/table.h"
#include "study/study.h"
#include "viz/assignment.h"
#include "viz/height_placement.h"
#include "viz/param_grid.h"
#include "viz/sankey.h"

#endif  // QAGVIEW_QAGVIEW_H_
