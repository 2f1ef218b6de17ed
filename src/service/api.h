#ifndef QAGVIEW_SERVICE_API_H_
#define QAGVIEW_SERVICE_API_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/explore.h"
#include "core/precompute.h"
#include "core/solution.h"
#include "storage/value.h"

/// \file
/// \brief The transport-agnostic request/response surface of the service
/// layer: plain value structs, one pair per operation, serializable without
/// touching any core object.
///
/// Everything here obeys three rules:
///
///  * **Value types only.** No pointers, no handles into live state other
///    than the opaque QueryHandle integer — a response can be serialized,
///    shipped over a socket, and compared bit-for-bit against an
///    in-process call (the server_test bit-identity contract).
///  * **Uniform provenance.** Every response embeds its RequestStats and
///    an ApproxMeta block instead of optional out-params, so clients (and
///    the HTTP layer) never need a side channel to learn what a request
///    cost or whether it served exact data. Each fact lives in one block:
///    RequestStats says what the request cost, ApproxMeta what data it
///    served.
///  * **Transport stays out.** src/server/ serializes these structs to
///    JSON; the structs themselves know nothing about JSON or sockets, and
///    QueryService knows nothing about either (DESIGN layering rules).

namespace qagview::service {

/// How Query() trades answer latency against exactness.
enum class QueryMode {
  /// Always build the exact answer set before responding (the default;
  /// identical to the service's pre-approximation behaviour).
  kExactOnly,
  /// Cold queries respond with a sample-based approximate answer set
  /// immediately; a background exact build then republishes through the
  /// ordinary refresh machinery (two-phase publication). Warm requests see
  /// whichever phase is published.
  kApproxFirst,
  /// Respond approximately and stay approximate until the client
  /// explicitly calls Refine() (the refine trigger).
  kApproxOnly,
};

/// Per-Query() knobs (the mode knob plus its parameters).
struct QueryOptions {
  QueryMode mode = QueryMode::kExactOnly;
  /// Two-sided confidence level of per-answer error bounds in the
  /// approximate modes; must be in (0, 1). Ignored by kExactOnly.
  double confidence = 0.95;
};

/// What one request cost — returned in every response so clients (and the
/// stress harness) can see cache behaviour per call, not just in
/// aggregate. Whether the answer was exact is the response's ApproxMeta.
struct RequestStats {
  double latency_ms = 0.0;
  /// Served from an already-cached structure (session, universe, or grid).
  bool cache_hit = false;
  /// Blocked on another client's identical in-flight work (single-flight
  /// coalescing) instead of duplicating it.
  bool coalesced = false;
  /// This request paid for the build (cache miss, leader).
  bool built = false;
  /// This request found its handle stale (the catalog moved past the
  /// versions the session was built from) and led the refresh: SQL
  /// re-executed against the new snapshot, caches reused or rebuilt by
  /// input fingerprint (core::Session::Refresh).
  bool refreshed = false;
};

/// Exact/approximate provenance of the answer set a response served from,
/// embedded uniformly in every response struct. An approx-first handle
/// starts with is_exact == false and flips to true once background
/// refinement republishes the exact generation.
struct ApproxMeta {
  bool is_exact = true;
  /// Sample fraction (n / N) behind the served set; 1.0 when exact.
  double sample_fraction = 1.0;
  /// Largest per-answer confidence-interval half-width; 0.0 when exact.
  double max_bound = 0.0;
};

/// Opaque reference to a cached query answer set; obtained from Query().
/// The handle itself (and the session behind it) stays valid for the
/// service's lifetime — but the structures reached *through* it follow
/// drain-then-evict semantics: QueryService::Answers returns a shared_ptr
/// that pins its answer-set generation, and once a dataset update retires
/// a generation it is destroyed as soon as the last such handle drops.
/// Never store raw pointers extracted from those handles.
using QueryHandle = int64_t;

// --- Request/response pairs ----------------------------------------------

/// Executes an aggregate query and opens (or reuses) the session over its
/// ranked answers.
struct QueryRequest {
  std::string sql;
  /// The aggregate output column to rank by.
  std::string value_column;
  QueryOptions options;
};

struct QueryResponse {
  QueryHandle handle = -1;
  int num_answers = 0;  // n — ranked tuples in the answer set
  int num_attrs = 0;    // m — grouping attributes
  /// Bound confidence level of an approximate set (0 when exact).
  double confidence = 0.0;
  ApproxMeta approx;
  RequestStats stats;
};

/// One-off summarization under (k, L, D).
struct SummarizeRequest {
  QueryHandle handle = -1;
  core::Params params;
};

struct SummarizeResponse {
  core::Solution solution;
  ApproxMeta approx;
  RequestStats stats;
};

/// Ensures the (k, D) grid serving `top_l` exists and reports its shape.
struct GuidanceRequest {
  QueryHandle handle = -1;
  int top_l = 0;
  core::PrecomputeOptions options;
};

/// The grid's shape: everything a client needs to drive Retrieve()
/// without holding the store itself (the store is an in-process pinned
/// handle; over a transport only its metadata travels).
struct GuidanceResponse {
  int store_l = 0;  // the L the grid was built for
  int k_max = 0;    // largest stored k (queries above clamp)
  /// Stored distance constraints, ascending, with the smallest k that has
  /// a stored solution for each (min_ks[i] pairs with d_values[i]).
  std::vector<int> d_values;
  std::vector<int> min_ks;
  /// Space metric: stored (cluster, k-interval) entries vs. what naive
  /// per-(k,D) cluster lists would hold.
  int64_t num_intervals = 0;
  int64_t naive_entries = 0;
  ApproxMeta approx;
  RequestStats stats;
};

/// Instant retrieval from a precomputed grid.
struct RetrieveRequest {
  QueryHandle handle = -1;
  int top_l = 0;
  int d = 0;
  int k = 0;
};

struct RetrieveResponse {
  core::Solution solution;
  ApproxMeta approx;
  RequestStats stats;
};

/// Summarize plus both rendered display layers (Figures 1b/1c).
struct ExploreRequest {
  QueryHandle handle = -1;
  core::Params params;
  /// Max tuples listed per cluster in the expanded layer (0 = all).
  int max_members = 8;
};

struct ExploreResponse {
  core::Solution solution;
  core::TwoLayerView view;
  std::string summary;   // first layer (RenderSummary)
  std::string expanded;  // second layer (RenderExpanded, bounded members)
  ApproxMeta approx;
  RequestStats stats;
};

/// The refine trigger: synchronously upgrades the handle's answer set to
/// exact (and fresh).
struct RefineRequest {
  QueryHandle handle = -1;
};

struct RefineResponse {
  /// is_exact is true on success by definition; the meta still reports
  /// the published set's provenance uniformly.
  ApproxMeta approx;
  RequestStats stats;
};

/// Appends rows to a dataset, publishing a new immutable snapshot.
struct AppendRowsRequest {
  std::string dataset;
  std::vector<std::vector<storage::Value>> rows;
};

struct AppendRowsResponse {
  /// The new catalog version.
  uint64_t version = 0;
  RequestStats stats;  // latency only; appends bypass the session caches
};

/// Monotonic service-wide counters (a superset of what each RequestStats
/// reported): request mix, cache behaviour, and latency totals.
struct ServiceStats {
  int64_t datasets = 0;
  int64_t sessions = 0;           // distinct cached (sql, value) pairs
  int64_t queries = 0;            // Query() calls
  int64_t query_cache_hits = 0;   // ... served an existing session
  int64_t query_coalesced = 0;    // ... waited on an identical in-flight
  int64_t summarize_requests = 0;
  int64_t guidance_requests = 0;
  int64_t retrieve_requests = 0;
  int64_t explore_requests = 0;
  int64_t cache_hits = 0;       // per-request traces, summed
  int64_t coalesced_waits = 0;  // per-request traces, summed
  int64_t builds = 0;           // per-request traces, summed
  /// Stale-handle refreshes led (SQL re-executions after catalog moved),
  /// and the subset that proved the answer set unchanged and reused
  /// every session cache.
  int64_t refreshes = 0;
  int64_t refresh_full_reuses = 0;
  /// Query() calls answered with an approximate (sample-based) set, and
  /// non-query ops (Summarize/Guidance/Retrieve/Explore) that served
  /// from one.
  int64_t approx_queries = 0;
  int64_t approx_served = 0;
  /// Refine() calls plus background refinement tasks.
  int64_t refine_requests = 0;
  /// Exact builds that upgraded an approximate generation, and
  /// refinement tasks that found the upgrade already done (another
  /// trigger led it, or a refresh landed exact first).
  int64_t refinements = 0;
  int64_t refinements_superseded = 0;
  /// Generation lifetime across all sessions (core::Session::CacheStats
  /// summed at read time): retired generations still pinned by external
  /// handles, generations currently alive (graveyard + one live per
  /// session), and retired generations whose readers drained and whose
  /// memory was reclaimed.
  int64_t graveyard_size = 0;
  int64_t live_generations = 0;
  int64_t generations_evicted = 0;
  /// Exploration-aware speculation: prefetch tasks enqueued from the
  /// next-move predictor, foreground requests that landed on a structure
  /// a prefetch task built (served as a warm RCU read), and sessions
  /// whose guidance grid was restored from a persisted warm-start
  /// snapshot instead of a cold build.
  int64_t prefetch_issued = 0;
  int64_t prefetch_hits = 0;
  int64_t warm_start_loads = 0;
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  int64_t requests() const {
    return queries + summarize_requests + guidance_requests +
           retrieve_requests + explore_requests + refine_requests;
  }
};

}  // namespace qagview::service

#endif  // QAGVIEW_SERVICE_API_H_
