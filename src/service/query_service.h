#ifndef QAGVIEW_SERVICE_QUERY_SERVICE_H_
#define QAGVIEW_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/background_scheduler.h"
#include "common/result.h"
#include "common/sharded_stats.h"
#include "common/single_flight.h"
#include "common/timer.h"
#include "core/explore.h"
#include "core/session.h"
#include "service/api.h"
#include "service/catalog.h"
#include "service/prefetch.h"

namespace qagview::service {

/// Service-wide knobs, fixed at construction.
struct ServiceOptions {
  /// Width of the (k, D) precomputes the service's Guidance calls run, the
  /// foreground ones and the prefetched ones: it fills in
  /// PrecomputeOptions::num_threads wherever a request leaves that field
  /// <= 0 (its default; it is never on the wire). <= 0 here too: the CPUs
  /// this process may run on. Universe builds are serial.
  int num_threads = 0;
  /// Reservoir capacity of the per-dataset uniform samples backing
  /// approximate-first serving (DatasetCatalogOptions::sample_capacity).
  /// <= 0 disables sampling: every mode serves exact answers.
  int sample_capacity = 4096;
  /// Exploration-aware prefetch: after each foreground Summarize /
  /// Guidance / Explore (and each cold Query), speculatively build the two
  /// predicted-next coverage levels' universes and grids on the
  /// background scheduler's lower-priority lane. A correct prediction
  /// turns the client's next request into a warm RCU read; a wrong one
  /// costs only idle background cycles. Off by default: speculative builds
  /// perturb the exact per-request build/hit accounting some callers
  /// assert on.
  bool prefetch = false;
};

// QueryMode, QueryOptions, RequestStats, QueryHandle, ServiceStats, and the
// request/response struct pairs all live in service/api.h (the
// transport-agnostic API surface); this header re-exports them through its
// include.

/// \brief Thread-safe front door to the whole pipeline: datasets → SQL →
/// cached answer sets → shared interactive sessions.
///
/// The paper's prototype is a single-user web app over PostgreSQL
/// (Appendix A.3); QueryService is the multi-client equivalent the ROADMAP
/// asks for. It owns a `DatasetCatalog` of named tables, executes
/// aggregate SQL through `sql::ExecuteSql`, materializes each distinct
/// (sql, value column) pair into one `core::AnswerSet` + `core::Session`,
/// and multiplexes any number of concurrent clients onto those shared
/// sessions:
///
///  * every public method may be called from any thread at any time;
///  * identical concurrent Query() calls coalesce onto one SQL execution
///    and share the resulting session (single-flight, like the session's
///    own universe/grid builds);
///  * Summarize / Guidance / Retrieve / Explore delegate to the
///    thread-safe `core::Session`, so N clients re-parameterizing the same
///    answer set trigger at most one universe build and one grid
///    precompute per distinct shape — everyone else waits and serves from
///    cache;
///  * results are bit-identical to a single-threaded execution of the same
///    requests (sessions and stores are deterministic and immutable once
///    published); only the statistics depend on interleaving.
///
/// **The warm request path is lock-free** (RCU, mirroring core::Session's
/// read path): the session registry is an immutable snapshot behind an
/// atomically published pointer, so Lookup and a warm repeat Query() never
/// take the registry lock; staleness is ruled out by comparing one atomic
/// per-entry freshness version against the atomic catalog version (the
/// per-table dependency walk only runs after a dataset actually changed);
/// and per-request statistics land in per-thread shards
/// (common/sharded_stats.h) aggregated by stats(). A warm
/// Summarize/Guidance/Retrieve/Explore therefore acquires no service- or
/// session-level lock at all — aggregate throughput scales with cores
/// instead of serializing on a mutex.
///
/// **Versioned updates.** Datasets evolve through AppendRows /
/// ReplaceTable, each publishing a new immutable snapshot under the next
/// catalog version. Every cached handle records the table versions its SQL
/// was executed against; on the next use of a stale handle the service
/// transparently re-executes the SQL against the newest snapshot
/// (single-flight — concurrent users of the handle coalesce onto one
/// refresh) and hands the result to `core::Session::Refresh`, which reuses
/// every cache whose input fingerprint is provably unchanged and retires
/// the rest. The refresh invariant, enforced by the differential harness:
/// any sequence of appends and queries yields responses bit-identical to a
/// fresh service built from the final table state.
///
/// **Lifetime (drain-then-evict).** Query handles and their sessions stay
/// valid for the service's lifetime. Structures served through them do
/// not: Answers returns a `shared_ptr` handle pinning the answer-set
/// generation it belongs to, and a generation retired by a refresh is
/// destroyed as soon as its last external handle drops — in-flight readers
/// drain safely, and memory stays bounded under sustained updates
/// (`ServiceStats::graveyard_size` / `generations_evicted` observe this).
/// Hold the shared_ptr for as long as you read; never store the raw
/// pointer.
///
/// **One request/response API.** Each operation is one method taking its
/// service/api.h request struct and returning its response struct, with
/// the request's cost (`stats`) and provenance (`approx`) embedded — the
/// exact shape src/server serializes, so an in-process call and an HTTP
/// call compare bit-for-bit.
class QueryService {
 public:
  explicit QueryService(ServiceOptions options = ServiceOptions());

  // --- Dataset catalog -------------------------------------------------

  /// Takes ownership of `table` as dataset `name` (case-insensitive).
  Status RegisterTable(const std::string& name, storage::Table table);

  /// Loads a CSV file and registers it as dataset `name`.
  Status RegisterCsvFile(const std::string& name, const std::string& path);

  /// Appends rows to a dataset, publishing a new immutable snapshot
  /// (existing readers keep theirs). Handles over queries that read the
  /// dataset become stale and refresh transparently on next use. The
  /// response carries the new catalog version.
  Result<AppendRowsResponse> AppendRows(const AppendRowsRequest& request);

  /// Replaces dataset `name` wholesale (schema may change), creating it if
  /// absent; same staleness semantics as AppendRows.
  Result<uint64_t> ReplaceTable(const std::string& name,
                                storage::Table table);

  /// Registered dataset names (lower-cased, sorted).
  std::vector<std::string> dataset_names() const;

  /// Current catalog version (bumps on every dataset mutation).
  uint64_t catalog_version() const;

  // --- Query → shared session ------------------------------------------

  /// Executes an aggregate query and opens (or reuses) the session over
  /// its ranked answers. `value_column` names the aggregate output column
  /// (the ranking value). Two calls with byte-identical SQL (modulo
  /// surrounding whitespace), value column, and query options share one
  /// session; identical concurrent calls run the SQL once. kExactOnly
  /// always builds exact; the approximate modes answer cold queries from
  /// the dataset's uniform sample (estimates with per-answer bounds at
  /// `options.confidence`) and, for kApproxFirst, schedule a background
  /// exact build that republishes without ever blocking a foreground
  /// request. When no useful sample exists (sampling disabled, tiny table,
  /// or no bounded aggregate), the response is exact and marked so.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// The refine trigger: synchronously upgrades the handle's answer set to
  /// exact (and fresh), coalescing with any in-flight refresh or background
  /// refinement of the same handle. No-op on an already-exact handle. The
  /// published exact generation is bit-identical to a cold exact rebuild
  /// from the same snapshot.
  Result<RefineResponse> Refine(const RefineRequest& request);

  // --- Interactive ops on a handle -------------------------------------

  /// One-off summarization under (k, L, D) — Session::Summarize.
  Result<SummarizeResponse> Summarize(const SummarizeRequest& request);

  /// Ensures the (k, D) grid serving `top_l` exists — Session::Guidance —
  /// and reports its serializable shape: over a transport only the
  /// metadata travels, and Retrieve() serves the individual solutions.
  Result<GuidanceResponse> Guidance(const GuidanceRequest& request);

  /// Instant retrieval from a precomputed grid — Session::Retrieve.
  Result<RetrieveResponse> Retrieve(const RetrieveRequest& request);

  /// Summarize plus both rendered display layers (Figures 1b/1c): the
  /// two-layer view, the collapsed summary, and the expanded member lists
  /// (at most `max_members` tuples per cluster; 0 = all).
  Result<ExploreResponse> Explore(const ExploreRequest& request);

  // --- Per-handle accessors (the typed replacements for session()) ------

  /// The currently published answer set behind a handle, brought fresh
  /// first like every serving op. The shared_ptr pins the set's generation
  /// across refreshes; drop it when done reading.
  Result<std::shared_ptr<const core::AnswerSet>> Answers(QueryHandle handle);

  /// Persists the handle's (k, D) grid for `top_l` to `path`
  /// (core::Session::SaveGuidance); requires a prior Guidance covering
  /// `top_l`. A session over the same answer set reloads the file with
  /// core::Session::LoadGuidance.
  Status SaveGuidance(QueryHandle handle, int top_l, const std::string& path);

  /// Cache/generation observability for the session behind a handle.
  /// Deliberately does NOT refresh the handle first: reading counters must
  /// never perturb what they count (e.g. writer_lock_acquisitions).
  Result<core::Session::CacheStats> SessionCacheStats(
      QueryHandle handle) const;

  // --- Background work --------------------------------------------------

  /// Blocks until the background scheduler is idle — no queued or running
  /// refinement or prefetch task. For tests and benches that need a
  /// quiescent state before asserting; only meaningful when no concurrent
  /// requests are racing.
  void DrainBackgroundWork();

  /// The scheduler's per-lane lifetime counters (submitted / ran /
  /// dropped-superseded), for observability and tests.
  BackgroundScheduler::Counters scheduler_counters() const;

  // --- Aggregate statistics --------------------------------------------

  /// Aggregates the per-thread statistic shards. Exact once the recorded
  /// requests happen-before the read (e.g. after joining the client
  /// threads); a read racing in-flight requests sees a consistent partial
  /// snapshot.
  ServiceStats stats() const;

 private:
  /// What an exact refresh folds appended rows into: the grouped state of
  /// the last exact execution (sql::GroupedState) and the table lineage it
  /// was taken in.
  struct FoldState {
    std::string table;  // lower-cased
    uint64_t lineage = 0;
    std::shared_ptr<sql::GroupedState> state;
  };

  struct SessionEntry {
    std::unique_ptr<core::Session> session;
    // Immutable after construction (safe to read without mu_).
    std::string sql;
    std::string value_column;
    QueryMode mode = QueryMode::kExactOnly;
    double confidence = 0.0;
    /// True while a background refinement task for this entry is queued
    /// but not yet running — the dedup that keeps one slow exact build
    /// from piling up a task per approximate request. Cleared by the task
    /// *before* it reconciles, so a refresh landing during the exact build
    /// can queue a follow-up refinement rather than being lost.
    std::atomic<bool> refine_queued{false};
    /// Lower-cased table name -> version the current answer set was
    /// executed against (the query's dependency set). Guarded by mu_;
    /// rewritten by the refresh leader.
    std::map<std::string, uint64_t> deps;
    /// The newest catalog version at which this entry's deps were verified
    /// fresh — the staleness fast path: while the catalog version still
    /// equals it, no dataset (of any name) has changed since, so the
    /// per-table dependency walk is skipped entirely. Monotonic;
    /// published (release) after the deps it vouches for.
    std::atomic<uint64_t> fresh_at{0};
    /// Prefetch ledger: speculative builds completed for this entry that
    /// no foreground request has claimed yet, as (level, built-a-grid)
    /// pairs. A foreground warm hit at a covered level consumes one entry
    /// and counts a prefetch_hit. Guarded by prefetch_mu (never taken on
    /// any path unless prefetch is enabled, so the warm path with
    /// prefetch off is untouched).
    std::mutex prefetch_mu;
    std::vector<std::pair<int, bool>> prefetched;
    /// The exact grouped execution's per-group state, kept from the entry's
    /// first exact refresh on, so a later one whose only change is an
    /// append folds in just the appended rows. Empty until then: an entry
    /// whose tables never change holds none. Touched only by the refresh
    /// leader (one at a time per entry, see refresh_flights_).
    FoldState fold;
  };

  /// The atomically published session-registry snapshot (RCU, like
  /// core::Session::ReadView): warm Lookup / repeat-Query reads pin it
  /// with one atomic load and never take mu_. Entries are owned by
  /// `owned_` and never destroyed for the service's lifetime; the registry
  /// holds raw pointers. Immutable after publication — Query() leaders
  /// build a successor copy under mu_ and republish.
  struct Registry {
    std::vector<SessionEntry*> entries;          // handle = index
    std::map<std::string, QueryHandle> by_key;   // query key → handle
  };

  /// Per-thread shard of the aggregate statistics. The mutex makes each
  /// shard's fields mutually consistent (latency totals aren't atomic) and
  /// is effectively uncontended: only the owning thread (and the rare
  /// aggregating reader) takes it.
  struct StatShard {
    mutable std::mutex mu;
    ServiceStats stats;
  };

  std::shared_ptr<const Registry> CurrentRegistry() const {
    return std::atomic_load_explicit(&registry_, std::memory_order_acquire);
  }
  /// Caller holds mu_ (writers serialized).
  void PublishRegistry(std::shared_ptr<const Registry> next) {
    std::atomic_store_explicit(&registry_, std::move(next),
                               std::memory_order_release);
  }
  /// Takes mu_: the lock every single-flight miss of the service holds
  /// while it probes.
  std::unique_lock<std::mutex> WriterLock() {
    return std::unique_lock<std::mutex>(mu_);
  }

  /// An answer set built from a catalog snapshot, with its provenance.
  struct BuiltAnswers {
    core::AnswerSet answers;
    bool approximate = false;
  };

  /// Entry for a handle, or an error for an unknown one. Lock-free.
  Result<SessionEntry*> Lookup(QueryHandle handle) const;

  /// Executes `sql` against `snapshot` and materializes the answer set.
  /// With `require_exact` false and an approximate mode, runs against the
  /// table's sample and attaches bounds; silently falls back to an exact
  /// build whenever the bounds contract cannot be met (no sample, no
  /// bounded aggregate for `value_column`, empty estimate). An exact build
  /// with `fold` set goes through ExecuteExact.
  static Result<BuiltAnswers> BuildAnswers(const std::string& sql,
                                           const std::string& value_column,
                                           QueryMode mode, double confidence,
                                           bool require_exact,
                                           const CatalogSnapshot& snapshot,
                                           FoldState* fold = nullptr);

  /// Exact execution of `sql` against `snapshot` that keeps `fold` current:
  /// when the snapshot's table is still in the fold's lineage, only the
  /// rows appended since are folded in (sql::FoldAppendedRows); otherwise,
  /// or when they cannot be folded or folding fails, the statement runs in
  /// full and its state replaces the fold's.
  static Result<storage::Table> ExecuteExact(const std::string& sql,
                                             const CatalogSnapshot& snapshot,
                                             FoldState* fold);

  /// Brings a handle up to date before serving from it — the one path
  /// every freshness *and* exactness transition goes through, so they
  /// compose: one atomic catalog-version load on the warm path; a
  /// per-table version walk once the catalog moved; when stale (or when
  /// `require_exact` finds an approximate set published), single-flight
  /// rebuild against a fresh catalog snapshot handed to
  /// core::Session::Refresh. Serializing refreshes and refinements on the
  /// same flight is what makes refinement cancel-or-restart clean: a
  /// refinement always builds from the *newest* snapshot (a refresh that
  /// landed first restarts it implicitly), and one that arrives after an
  /// exact set is already published no-ops. `rs` (optional) gets the
  /// coalesced/refreshed flags; `led_rebuild` (optional) reports whether
  /// this call performed a rebuild itself.
  Status Reconcile(SessionEntry* entry, bool require_exact, RequestStats* rs,
                   bool* led_rebuild = nullptr);

  /// Whether a table the entry's query read has a version other than the
  /// one it was executed against. Caller holds mu_.
  bool DepsChangedLocked(const SessionEntry& entry) const;

  /// Reconcile for ordinary serving: freshness only, no exactness upgrade.
  Status EnsureFresh(SessionEntry* entry, RequestStats* rs) {
    return Reconcile(entry, /*require_exact=*/false, rs);
  }

  /// Queues a background exact refinement of an approx-first entry
  /// (deduplicated per entry; never blocks the caller). Rides the
  /// scheduler's kRefinement lane with token 0: a refinement is owed
  /// work, never superseded by catalog movement (Reconcile always builds
  /// from the newest snapshot anyway).
  void ScheduleRefinement(SessionEntry* entry);

  /// Enqueues speculative builds for the levels the predictor expects
  /// next, on the kPrefetch lane with the current catalog version as the
  /// validity token (a dataset mutation drops them unrun). `level` is the
  /// observed move's coverage level (ignored for kQuery, which prefetches
  /// the predicted initial levels). No-op unless options_.prefetch.
  void SchedulePrefetch(SessionEntry* entry, study::MoveKind kind, int level);

  /// Consumes a ledger entry covering a foreground warm hit at `level`
  /// (want_store: the request needed a grid, not just a universe) and
  /// counts the prefetch_hit. No-op unless options_.prefetch.
  void CountPrefetchHit(SessionEntry* entry, int level, bool want_store,
                        const RequestStats& rs);

  /// `options` with ServiceOptions::num_threads as its width when it
  /// leaves num_threads <= 0: what every Guidance call of the service runs.
  core::PrecomputeOptions GridOptions(core::PrecomputeOptions options) const;

  /// Adds one to a ServiceStats counter in the calling thread's shard.
  void Bump(int64_t ServiceStats::*field);

  /// Folds one finished request into the calling thread's stat shard.
  enum class RequestKind {
    kQuery,
    kSummarize,
    kGuidance,
    kRetrieve,
    kExplore,
    kRefine
  };
  /// `approximate`: the request served from an approximate answer set.
  void Record(RequestKind kind, const RequestStats& stats, bool approximate);

  /// Stamps `out.stats.latency_ms`, records the request, and returns `out`
  /// on success or `status` on failure — the tail every op but AppendRows
  /// shares.
  template <typename Response>
  Result<Response> Finish(RequestKind kind, const WallTimer& timer,
                          const Status& status, Response out);

  const ServiceOptions options_;
  DatasetCatalog datasets_;

  /// Guards the registry write side (owned_, republication), per-entry
  /// deps, and the builds in flight. Warm reads never touch it. Never held
  /// across SQL execution, session construction, or a flight wait.
  std::mutex mu_;
  /// Owns every SessionEntry ever created (append-only; entries live for
  /// the service's lifetime, so registry raw pointers never dangle).
  std::vector<std::unique_ptr<SessionEntry>> owned_;
  /// The published registry snapshot; access only through CurrentRegistry
  /// / PublishRegistry (C++17 shared_ptr atomic free functions).
  std::shared_ptr<const Registry> registry_;
  // Builds in flight, guarded by mu_: Query() executions, keyed by the
  // session key, and stale-handle refreshes (and refinements), one per
  // entry. Entries live as long as the service, so an entry key stays
  // valid.
  SingleFlight<std::string> query_flights_;
  SingleFlight<const SessionEntry*> refresh_flights_;

  mutable Sharded<StatShard> stat_shards_;

  /// The prediction policy behind SchedulePrefetch (stateless, shared).
  ExplorationPredictor predictor_;

  /// The one home for all deferred work, on one worker so refinements run
  /// in strict FIFO order: exact refinements (refinement lane) before
  /// speculative builds (prefetch lane, gated while foreground requests are
  /// in flight, dropped when a catalog mutation supersedes their token).
  /// Declared LAST so it is destroyed FIRST: shutdown quiesces in-flight
  /// tasks (and drops queued ones) while every member they touch is still
  /// alive.
  BackgroundScheduler scheduler_;
};

}  // namespace qagview::service

#endif  // QAGVIEW_SERVICE_QUERY_SERVICE_H_
