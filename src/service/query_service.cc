#include "service/query_service.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace qagview::service {

namespace {

/// Folds a core-session trace into the request's stats (which may already
/// carry refresh/coalesce flags from EnsureFresh).
void MergeTrace(const core::Session::RequestTrace& trace, RequestStats* rs) {
  rs->cache_hit = trace.cache_hit;
  rs->coalesced = rs->coalesced || trace.coalesced;
  rs->built = trace.built;
}

/// A response's provenance block, from one approximation() load.
ApproxMeta ApproxOf(const core::Approximation& approx) {
  ApproxMeta out;
  out.is_exact = approx.is_exact;
  out.sample_fraction = approx.sample_fraction;
  out.max_bound = approx.max_bound;
  return out;
}

DatasetCatalogOptions CatalogOptionsFor(const ServiceOptions& options) {
  DatasetCatalogOptions out;
  out.sample_capacity = options.sample_capacity;
  return out;
}

/// Session-identity tag of an approximate mode (exact mode is untagged so
/// exact keys — and their cached sessions — are unchanged).
const char* ModeTag(QueryMode mode) {
  switch (mode) {
    case QueryMode::kExactOnly: return "";
    case QueryMode::kApproxFirst: return "approx_first";
    case QueryMode::kApproxOnly: return "approx_only";
  }
  return "";
}

}  // namespace

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)),
      datasets_(CatalogOptionsFor(options_)),
      registry_(std::make_shared<const Registry>()) {}

Status QueryService::RegisterTable(const std::string& name,
                                   storage::Table table) {
  return datasets_.Register(name, std::move(table));
}

Status QueryService::RegisterCsvFile(const std::string& name,
                                     const std::string& path) {
  return datasets_.RegisterCsvFile(name, path);
}

Result<AppendRowsResponse> QueryService::AppendRows(
    const AppendRowsRequest& request) {
  WallTimer timer;
  QAG_ASSIGN_OR_RETURN(uint64_t version,
                       datasets_.AppendRows(request.dataset, request.rows));
  // The catalog moved: every queued speculative task tokened below the new
  // version was predicted against data that no longer exists. Drop it at
  // the queue instead of letting it build caches a refresh will retire.
  scheduler_.InvalidateBelow(version);
  AppendRowsResponse out;
  out.version = version;
  out.stats.latency_ms = timer.ElapsedMillis();
  return out;
}

Result<uint64_t> QueryService::ReplaceTable(const std::string& name,
                                            storage::Table table) {
  Result<uint64_t> version = datasets_.ReplaceTable(name, std::move(table));
  if (version.ok()) scheduler_.InvalidateBelow(*version);
  return version;
}

std::vector<std::string> QueryService::dataset_names() const {
  return datasets_.names();
}

uint64_t QueryService::catalog_version() const {
  return datasets_.version();
}

template <typename Response>
Result<Response> QueryService::Finish(RequestKind kind, const WallTimer& timer,
                                      const Status& status, Response out) {
  out.stats.latency_ms = timer.ElapsedMillis();
  Record(kind, out.stats, !out.approx.is_exact);
  if (!status.ok()) return status;
  return out;
}

Result<QueryResponse> QueryService::Query(const QueryRequest& request) {
  WallTimer timer;
  // Foreground gate: while any serving request is in flight, the scheduler
  // parks its prefetch lane, so speculation can never delay the answer the
  // user is actually waiting on. A null scheduler pointer (prefetch off)
  // makes the guard a no-op with zero atomics.
  BackgroundScheduler::ForegroundGuard fg(
      options_.prefetch ? &scheduler_ : nullptr);
  const std::string trimmed(StripWhitespace(request.sql));
  const std::string& value_column = request.value_column;
  const QueryOptions& options = request.options;
  QueryResponse out;
  if (trimmed.empty()) {
    return Finish(RequestKind::kQuery, timer,
                  Status::InvalidArgument("empty SQL text"), std::move(out));
  }
  if (options.mode != QueryMode::kExactOnly &&
      !(options.confidence > 0.0 && options.confidence < 1.0)) {
    return Finish(RequestKind::kQuery, timer,
                  Status::InvalidArgument(
                      "QueryOptions::confidence must be in (0, 1)"),
                  std::move(out));
  }
  // Session identity: byte-identical SQL (modulo surrounding whitespace)
  // over the same value column; approximate modes additionally key on the
  // mode tag and confidence, so an exact-mode key (and its cached session)
  // is exactly what it was before modes existed. '\x1f' cannot occur in
  // any part.
  std::string key = trimmed + '\x1f' + ToLower(value_column);
  if (options.mode != QueryMode::kExactOnly) {
    key += '\x1f';
    key += ModeTag(options.mode);
    key += '\x1f';
    key += FormatDouble(options.confidence, 6);
  }
  // The registry's handle for the key, or nothing: lock-free on the warm
  // path, and the flight's probe under mu_ on a miss.
  auto lookup = [&]() -> std::optional<Result<QueryHandle>> {
    std::shared_ptr<const Registry> registry = CurrentRegistry();
    auto it = registry->by_key.find(key);
    if (it == registry->by_key.end()) return std::nullopt;
    return it->second;
  };
  auto report = [&out](FlightStep step) {
    if (step == FlightStep::kJoined) out.stats.coalesced = true;
    if (step == FlightStep::kLed) out.stats.built = true;
  };
  // Execute outside the lock: SQL + answer-set materialization are the
  // expensive part, and the pinned catalog snapshot stays valid regardless
  // of concurrent dataset updates (snapshots are immutable).
  auto build = [&]() -> Result<QueryHandle> {
    CatalogSnapshot snapshot = datasets_.Snapshot();
    QAG_ASSIGN_OR_RETURN(
        BuiltAnswers built,
        BuildAnswers(trimmed, value_column, options.mode, options.confidence,
                     /*require_exact=*/false, snapshot));
    QAG_ASSIGN_OR_RETURN(std::unique_ptr<core::Session> session,
                         core::Session::Create(std::move(built.answers)));
    auto entry = std::make_unique<SessionEntry>();
    entry->session = std::move(session);
    entry->sql = trimmed;
    entry->value_column = value_column;
    entry->mode = options.mode;
    entry->confidence = options.confidence;
    // The tables the execution actually resolved, at the versions the
    // snapshot pinned: the handle's staleness condition.
    for (const std::string& name : snapshot.sql.accessed()) {
      entry->deps.emplace(name, snapshot.tables.at(name).version);
    }
    entry->fresh_at.store(snapshot.catalog_version, std::memory_order_release);
    // Publish: copy-on-write registry successor under the writer lock.
    std::lock_guard<std::mutex> lock(mu_);
    auto next = std::make_shared<Registry>(*CurrentRegistry());
    QueryHandle handle = static_cast<QueryHandle>(next->entries.size());
    next->entries.push_back(entry.get());
    next->by_key.emplace(key, handle);
    owned_.push_back(std::move(entry));
    PublishRegistry(std::move(next));
    return handle;
  };
  // Warm path: one atomic registry load, no locks. A miss leads the
  // execution or joins an identical one in flight.
  std::optional<Result<QueryHandle>> found = lookup();
  if (!found.has_value()) {
    found = query_flights_.Run(
        key, [this] { return WriterLock(); }, lookup, build, report);
  }
  const Result<QueryHandle>& handle = *found;
  if (!handle.ok()) {
    return Finish(RequestKind::kQuery, timer, handle.status(), std::move(out));
  }
  SessionEntry* entry =
      CurrentRegistry()->entries[static_cast<size_t>(*handle)];
  if (!out.stats.built) {
    // Bring a stale handle up to date before reporting its shape.
    Status fresh = EnsureFresh(entry, &out.stats);
    if (!fresh.ok()) {
      return Finish(RequestKind::kQuery, timer, fresh, std::move(out));
    }
    if (!out.stats.coalesced && !out.stats.refreshed) {
      out.stats.cache_hit = true;
    }
  }
  // The published answer set's shape and provenance (one wait-free
  // answers() load covers both).
  out.handle = *handle;
  std::shared_ptr<const core::AnswerSet> answers = entry->session->answers();
  out.num_answers = answers->size();
  out.num_attrs = answers->num_attrs();
  out.approx = ApproxOf(answers->approximation());
  out.confidence = answers->approximation().confidence;
  if (entry->mode == QueryMode::kApproxFirst && !out.approx.is_exact) {
    // Two-phase publication, phase two: the exact build runs in the
    // background and republishes through the refresh machinery; this
    // (foreground) response returns the approximate set now. On a cached
    // handle this re-arms refinement if the set is still approximate (e.g.
    // a refresh republished an approximate generation, or an earlier
    // refinement errored). Deduplicated, never blocking.
    ScheduleRefinement(entry);
  }
  if (out.stats.built) {
    // A freshly built session is the coldest it will ever be: speculate on
    // the exploration levels sessions historically open with, in the
    // background, without delaying this response.
    SchedulePrefetch(entry, study::MoveKind::kQuery, /*level=*/0);
  }
  return Finish(RequestKind::kQuery, timer, Status::OK(), std::move(out));
}

Result<QueryService::SessionEntry*> QueryService::Lookup(
    QueryHandle handle) const {
  // Lock-free: one atomic registry load; entries live for the service's
  // lifetime, so the raw pointer outlives the registry pin.
  std::shared_ptr<const Registry> registry = CurrentRegistry();
  if (handle < 0 ||
      handle >= static_cast<QueryHandle>(registry->entries.size())) {
    return Status::NotFound(
        StrCat("unknown query handle ", handle, "; obtain one from Query()"));
  }
  return registry->entries[static_cast<size_t>(handle)];
}

Result<storage::Table> QueryService::ExecuteExact(
    const std::string& sql, const CatalogSnapshot& snapshot,
    FoldState* fold) {
  if (fold == nullptr) return sql::ExecuteSql(sql, snapshot.sql);
  QAG_ASSIGN_OR_RETURN(sql::SelectStatement stmt,
                       sql::Parser::ParseSelect(sql));
  const std::string table = ToLower(stmt.table_name);
  auto pinned = snapshot.tables.find(table);
  if (fold->state != nullptr && fold->table == table &&
      pinned != snapshot.tables.end() &&
      pinned->second.lineage == fold->lineage) {
    // Same lineage: the table only grew by appends since the fold's state
    // was taken.
    Result<std::optional<storage::Table>> folded =
        sql::FoldAppendedRows(stmt, snapshot.sql, fold->state.get());
    if (folded.ok() && folded->has_value()) return std::move(**folded);
  }
  fold->state.reset();
  fold->table = table;
  fold->lineage = pinned == snapshot.tables.end() ? 0 : pinned->second.lineage;
  return sql::ExecuteSelectRetained(stmt, snapshot.sql, &fold->state);
}

Result<QueryService::BuiltAnswers> QueryService::BuildAnswers(
    const std::string& sql, const std::string& value_column, QueryMode mode,
    double confidence, bool require_exact, const CatalogSnapshot& snapshot,
    FoldState* fold) {
  const bool want_approx = !require_exact && mode != QueryMode::kExactOnly;
  if (want_approx) {
    QAG_ASSIGN_OR_RETURN(sql::ApproxExecution exec,
                         sql::ExecuteSqlApproximate(sql, snapshot.sql));
    if (!exec.approximate) {
      // No useful sample (or no aggregate path): the execution was exact.
      QAG_ASSIGN_OR_RETURN(core::AnswerSet answers,
                           core::AnswerSet::FromTable(exec.table,
                                                      value_column));
      return BuiltAnswers{std::move(answers), false};
    }
    // The bounds contract: an approximate answer set is only published
    // when the ranking column has CLT standard errors (min/max and
    // expressions over aggregates do not) and at least one answer carries
    // a finite bound. Anything else falls through to an exact build.
    const std::vector<double>* se = nullptr;
    for (const auto& [name, vec] : exec.column_se) {
      if (EqualsIgnoreCase(name, value_column)) {
        se = &vec;
        break;
      }
    }
    if (se != nullptr) {
      Result<core::AnswerSet> answers = core::AnswerSet::FromTableApproximate(
          exec.table, value_column, *se, confidence, exec.sample_rows,
          exec.population_rows);
      if (answers.ok()) {
        return BuiltAnswers{std::move(answers).value(), true};
      }
    }
  }
  QAG_ASSIGN_OR_RETURN(storage::Table result,
                       ExecuteExact(sql, snapshot, fold));
  QAG_ASSIGN_OR_RETURN(core::AnswerSet answers,
                       core::AnswerSet::FromTable(result, value_column));
  return BuiltAnswers{std::move(answers), false};
}

bool QueryService::DepsChangedLocked(const SessionEntry& entry) const {
  for (const auto& [name, version] : entry.deps) {
    if (datasets_.TableVersion(name) != version) return true;
  }
  return false;
}

Status QueryService::Reconcile(SessionEntry* entry, bool require_exact,
                               RequestStats* rs, bool* led_rebuild) {
  // An exactness upgrade is owed when the caller demands exact and the
  // published set is not (wait-free check: one atomic view load).
  auto needs_upgrade = [&] {
    return require_exact && !entry->session->approximation().is_exact;
  };
  // Warm fast path: the catalog version still equals the version this
  // entry was last verified fresh at, so no dataset — of any name — has
  // changed since, and no upgrade is owed. Two relaxed-cost atomic loads
  // plus (for refinement callers only) one atomic view load, no locks;
  // this is the entire per-request price of versioning on the warm path.
  if (entry->fresh_at.load(std::memory_order_acquire) ==
          datasets_.version() &&
      !needs_upgrade()) {
    return Status::OK();
  }
  // The catalog moved past the last verification (or an upgrade is owed).
  // The probe, under mu_, walks the per-table dependency versions to see
  // whether one of *this* query's inputs actually changed (an update to an
  // unrelated dataset lands here once, re-stamps fresh_at, and the fast
  // path resumes).
  bool stale = false;
  bool upgrade = false;
  auto probe = [&]() -> std::optional<Status> {
    const uint64_t observed_version = datasets_.version();
    stale = DepsChangedLocked(*entry);
    upgrade = needs_upgrade();
    if (stale || upgrade) return std::nullopt;
    // Verified fresh as of `observed_version`, which was read *before* the
    // walk: a mutation racing the walk at most leaves an older stamp and
    // the next request re-verifies.
    entry->fresh_at.store(observed_version, std::memory_order_release);
    return Status::OK();
  };
  bool led = false;
  auto report = [&](FlightStep step) {
    led = step == FlightStep::kLed;
    if (rs == nullptr) return;
    if (step == FlightStep::kJoined) rs->coalesced = true;
    if (led && stale) rs->refreshed = true;
  };
  // Stale or owing an upgrade: lead the rebuild, or coalesce onto the
  // flight already in progress. Refreshes and refinements share one
  // flight per entry, which is what serializes them: a refinement joining
  // a refresh waits it out and re-checks (restart); a refresh joining a
  // refinement the same (its freshness may already be covered by the
  // refinement's newer snapshot).
  //
  // The leader rebuilds against a fresh pinned snapshot — always the
  // *newest* one, so a refinement overtaken by dataset updates publishes
  // the new data, not a stale exact set — and hands the result to
  // Session::Refresh, which reuses every cache whose input fingerprint is
  // provably unchanged. Exactness of the build: a refinement
  // (require_exact) and an exact-only entry always build exact; an
  // approximate-mode entry refreshing in the foreground builds approximate
  // again and re-arms background refinement below, so foreground latency
  // stays flat.
  const bool exact_build =
      require_exact || entry->mode == QueryMode::kExactOnly;
  auto rebuild = [&]() -> Status {
    CatalogSnapshot snapshot = datasets_.Snapshot();
    // An exact refresh of changed data keeps the grouped state, so the
    // next append folds in only its rows.
    QAG_ASSIGN_OR_RETURN(
        BuiltAnswers built,
        BuildAnswers(entry->sql, entry->value_column, entry->mode,
                     entry->confidence, exact_build, snapshot,
                     stale && exact_build ? &entry->fold : nullptr));
    bool refreshed = false;
    QAG_RETURN_IF_ERROR(
        entry->session->Refresh(std::move(built.answers), &refreshed));
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry->deps.clear();
      for (const std::string& name : snapshot.sql.accessed()) {
        entry->deps.emplace(name, snapshot.tables.at(name).version);
      }
      entry->fresh_at.store(snapshot.catalog_version,
                            std::memory_order_release);
    }
    // Count the rebuild *before* releasing the flight: a waiter unblocked
    // by it may read stats() immediately, and must see the
    // refresh/refinement it waited on already accounted.
    StatShard& shard = stat_shards_.Local();
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stale) {
      ++shard.stats.refreshes;
      if (!refreshed) ++shard.stats.refresh_full_reuses;
    }
    if (upgrade && exact_build) ++shard.stats.refinements;
    return Status::OK();
  };
  Status outcome = refresh_flights_.Run(
      entry, [this] { return WriterLock(); }, probe, rebuild, report);
  led = led && outcome.ok();
  if (led_rebuild != nullptr) *led_rebuild = led;
  if (led && !exact_build && entry->mode == QueryMode::kApproxFirst &&
      !entry->session->approximation().is_exact) {
    // The foreground refresh republished an approximate set: schedule the
    // exact phase (outside every lock; deduplicated per entry).
    ScheduleRefinement(entry);
  }
  return outcome;
}

void QueryService::ScheduleRefinement(SessionEntry* entry) {
  // One queued task per entry at a time: the exchange is the dedup, and
  // the task clears the flag *before* reconciling so a refresh landing
  // during its exact build can queue a follow-up instead of being lost.
  if (entry->refine_queued.exchange(true, std::memory_order_acq_rel)) return;
  // Token 0: refinement is *owed* work (the client was promised an exact
  // set), so a catalog mutation must not cancel it — Reconcile rebuilds
  // against the newest snapshot anyway, folding the mutation in.
  auto task = [this, entry] {
    WallTimer timer;
    entry->refine_queued.store(false, std::memory_order_release);
    RequestStats rs;
    bool led = false;
    Status status = Reconcile(entry, /*require_exact=*/true, &rs, &led);
    // A failed refinement is not fatal: the approximate set keeps serving
    // (with its bounds) and the next request re-arms refinement.
    if (status.ok() && !led) {
      StatShard& shard = stat_shards_.Local();
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.stats.refinements_superseded;
    }
    rs.latency_ms = timer.ElapsedMillis();
    Record(RequestKind::kRefine, rs, !entry->session->approximation().is_exact);
  };
  scheduler_.Submit(BackgroundScheduler::Lane::kRefinement, /*token=*/0,
                    std::move(task));
}

Result<RefineResponse> QueryService::Refine(const RefineRequest& request) {
  WallTimer timer;
  BackgroundScheduler::ForegroundGuard fg(
      options_.prefetch ? &scheduler_ : nullptr);
  RefineResponse out;
  auto run = [&]() -> Status {
    QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(request.handle));
    QAG_RETURN_IF_ERROR(Reconcile(entry, /*require_exact=*/true, &out.stats));
    out.approx = ApproxOf(entry->session->approximation());
    return Status::OK();
  };
  Status status = run();
  return Finish(RequestKind::kRefine, timer, status, std::move(out));
}

Result<SummarizeResponse> QueryService::Summarize(
    const SummarizeRequest& request) {
  WallTimer timer;
  BackgroundScheduler::ForegroundGuard fg(
      options_.prefetch ? &scheduler_ : nullptr);
  SummarizeResponse out;
  auto run = [&]() -> Status {
    QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(request.handle));
    QAG_RETURN_IF_ERROR(EnsureFresh(entry, &out.stats));
    core::Session::RequestTrace trace;
    Result<core::Solution> solution = entry->session->Summarize(
        request.params, core::HybridOptions(), &trace);
    MergeTrace(trace, &out.stats);
    out.approx = ApproxOf(entry->session->approximation());
    QAG_RETURN_IF_ERROR(solution.status());
    out.solution = std::move(solution).value();
    CountPrefetchHit(entry, request.params.L, /*want_store=*/false, out.stats);
    SchedulePrefetch(entry, study::MoveKind::kSummarize, request.params.L);
    return Status::OK();
  };
  Status status = run();
  return Finish(RequestKind::kSummarize, timer, status, std::move(out));
}

Result<GuidanceResponse> QueryService::Guidance(
    const GuidanceRequest& request) {
  WallTimer timer;
  BackgroundScheduler::ForegroundGuard fg(
      options_.prefetch ? &scheduler_ : nullptr);
  GuidanceResponse out;
  auto run = [&]() -> Status {
    QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(request.handle));
    QAG_RETURN_IF_ERROR(EnsureFresh(entry, &out.stats));
    core::Session::RequestTrace trace;
    Result<std::shared_ptr<const core::SolutionStore>> store =
        entry->session->Guidance(request.top_l, GridOptions(request.options),
                                 &trace);
    MergeTrace(trace, &out.stats);
    out.approx = ApproxOf(entry->session->approximation());
    QAG_RETURN_IF_ERROR(store.status());
    CountPrefetchHit(entry, request.top_l, /*want_store=*/true, out.stats);
    SchedulePrefetch(entry, study::MoveKind::kGuidance, request.top_l);
    const core::SolutionStore& grid = **store;
    out.store_l = grid.l();
    out.k_max = grid.k_max();
    out.d_values = grid.d_values();
    for (int d : out.d_values) {
      QAG_ASSIGN_OR_RETURN(int min_k, grid.MinK(d));
      out.min_ks.push_back(min_k);
    }
    out.num_intervals = grid.num_intervals();
    out.naive_entries = grid.naive_entries();
    return Status::OK();
  };
  Status status = run();
  return Finish(RequestKind::kGuidance, timer, status, std::move(out));
}

Result<RetrieveResponse> QueryService::Retrieve(
    const RetrieveRequest& request) {
  WallTimer timer;
  BackgroundScheduler::ForegroundGuard fg(
      options_.prefetch ? &scheduler_ : nullptr);
  RetrieveResponse out;
  auto run = [&]() -> Status {
    QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(request.handle));
    QAG_RETURN_IF_ERROR(EnsureFresh(entry, &out.stats));
    core::Session::RequestTrace trace;
    Result<core::Solution> solution = entry->session->Retrieve(
        request.top_l, request.d, request.k, &trace);
    MergeTrace(trace, &out.stats);
    out.approx = ApproxOf(entry->session->approximation());
    QAG_RETURN_IF_ERROR(solution.status());
    out.solution = std::move(solution).value();
    return Status::OK();
  };
  Status status = run();
  return Finish(RequestKind::kRetrieve, timer, status, std::move(out));
}

Result<ExploreResponse> QueryService::Explore(const ExploreRequest& request) {
  WallTimer timer;
  BackgroundScheduler::ForegroundGuard fg(
      options_.prefetch ? &scheduler_ : nullptr);
  ExploreResponse out;
  auto run = [&]() -> Status {
    QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(request.handle));
    QAG_RETURN_IF_ERROR(EnsureFresh(entry, &out.stats));
    core::Session::RequestTrace trace;
    // Render against the exact universe that produced the solution — a
    // second UniverseFor(params.L) lookup could return another
    // generation's universe if a refresh landed between the two, in which
    // the solution's cluster ids would be meaningless. The handle also
    // pins the universe while the layers render.
    std::shared_ptr<const core::ClusterUniverse> universe;
    QAG_ASSIGN_OR_RETURN(
        out.solution,
        entry->session->SummarizeWith(request.params, &universe,
                                      core::HybridOptions(), &trace));
    // The universe may be a wider one (L' > L); the top counts and the
    // expanded layer's header count against the request's L. Both layers
    // render from this one view.
    out.view =
        core::BuildTwoLayerView(*universe, out.solution, request.params.L);
    const core::AnswerSet& answers = universe->answer_set();
    out.summary = core::RenderSummary(*universe, out.view);
    out.expanded = core::RenderExpanded(answers, out.view, request.max_members,
                                        request.params.L);
    MergeTrace(trace, &out.stats);
    out.approx = ApproxOf(entry->session->approximation());
    CountPrefetchHit(entry, request.params.L, /*want_store=*/false, out.stats);
    SchedulePrefetch(entry, study::MoveKind::kExplore, request.params.L);
    return Status::OK();
  };
  Status status = run();
  return Finish(RequestKind::kExplore, timer, status, std::move(out));
}

// --- Typed per-handle accessors (the narrow replacements for the removed
// session() escape hatch: every read goes through freshness + the RCU view,
// never a raw Session pointer). ----------------------------------------------

Result<std::shared_ptr<const core::AnswerSet>> QueryService::Answers(
    QueryHandle handle) {
  QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(handle));
  QAG_RETURN_IF_ERROR(EnsureFresh(entry, /*rs=*/nullptr));
  return entry->session->answers();
}

Status QueryService::SaveGuidance(QueryHandle handle, int top_l,
                                  const std::string& path) {
  QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(handle));
  QAG_RETURN_IF_ERROR(EnsureFresh(entry, /*rs=*/nullptr));
  return entry->session->SaveGuidance(top_l, path);
}

Result<core::Session::CacheStats> QueryService::SessionCacheStats(
    QueryHandle handle) const {
  QAG_ASSIGN_OR_RETURN(SessionEntry* entry, Lookup(handle));
  return entry->session->cache_stats();
}

// --- Background work: speculation. -------------------------------------------

void QueryService::SchedulePrefetch(SessionEntry* entry, study::MoveKind kind,
                                    int level) {
  if (!options_.prefetch) return;
  // While the published set is approximate the background cycles belong to
  // the exact refinement; anything speculated now would be retired by the
  // exact republish anyway.
  if (!entry->session->approximation().is_exact) return;
  const int num_answers =
      static_cast<int>(entry->session->answers()->size());
  const std::vector<int> targets =
      kind == study::MoveKind::kQuery
          ? predictor_.InitialLevels(num_answers)
          : predictor_.NextLevels(kind, level, num_answers);
  // Guidance historically leads to more guidance (drill-downs over the
  // grid), so speculate whole stores there; after Summarize/Explore/Query
  // the cheaper universe covers the likely next move.
  const bool want_store = kind == study::MoveKind::kGuidance;
  const uint64_t token = datasets_.version();
  for (int target : targets) {
    Bump(&ServiceStats::prefetch_issued);
    auto task = [this, entry, target, want_store] {
      // Token validity at dequeue proves no catalog mutation landed since
      // submit, so the entry is as fresh as when the predictor fired: no
      // EnsureFresh, no locks on the foreground path.
      core::Session::RequestTrace trace;
      bool ok;
      if (want_store) {
        ok = entry->session
                 ->Guidance(target, GridOptions(core::PrecomputeOptions()),
                            &trace)
                 .ok();
      } else {
        ok = entry->session->UniverseFor(target, &trace).ok();
      }
      // Only a build this task *led* is claimable as a prefetch win; a
      // cache hit means someone else (foreground or earlier prefetch)
      // already paid for the structure.
      if (!ok || !trace.built) return;
      std::lock_guard<std::mutex> lock(entry->prefetch_mu);
      entry->prefetched.emplace_back(target, want_store);
    };
    scheduler_.Submit(BackgroundScheduler::Lane::kPrefetch, token,
                      std::move(task));
  }
}

void QueryService::CountPrefetchHit(SessionEntry* entry, int level,
                                    bool want_store, const RequestStats& rs) {
  // Only a warm serve can have been a prefetch win, and only if a ledger
  // entry covers the request: a universe or store for L' >= level serves
  // level (wider structures subsume narrower requests), and a store
  // satisfies a universe request but not vice versa.
  if (!options_.prefetch || !rs.cache_hit) return;
  {
    std::lock_guard<std::mutex> lock(entry->prefetch_mu);
    auto it = std::find_if(entry->prefetched.begin(), entry->prefetched.end(),
                           [&](const std::pair<int, bool>& p) {
                             return p.first >= level &&
                                    (p.second || !want_store);
                           });
    if (it == entry->prefetched.end()) return;
    // Claim once: a single speculative build must not be counted as a win
    // by every later request it keeps serving.
    entry->prefetched.erase(it);
  }
  Bump(&ServiceStats::prefetch_hits);
}

core::PrecomputeOptions QueryService::GridOptions(
    core::PrecomputeOptions options) const {
  if (options.num_threads <= 0) options.num_threads = options_.num_threads;
  return options;
}

void QueryService::Bump(int64_t ServiceStats::*field) {
  StatShard& shard = stat_shards_.Local();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stats.*field += 1;
}

void QueryService::DrainBackgroundWork() { scheduler_.Drain(); }

BackgroundScheduler::Counters QueryService::scheduler_counters() const {
  return scheduler_.counters();
}

void QueryService::Record(RequestKind kind, const RequestStats& stats,
                          bool approximate) {
  // The calling thread's shard: the lock is effectively uncontended (only
  // this thread and the rare aggregating reader take it), so recording is
  // a core-local write, not a global serialization point.
  StatShard& shard = stat_shards_.Local();
  std::lock_guard<std::mutex> lock(shard.mu);
  ServiceStats& s = shard.stats;
  switch (kind) {
    case RequestKind::kQuery:
      ++s.queries;
      if (stats.cache_hit) ++s.query_cache_hits;
      if (stats.coalesced) ++s.query_coalesced;
      if (approximate) ++s.approx_queries;
      break;
    case RequestKind::kRefine:
      ++s.refine_requests;
      break;
    case RequestKind::kSummarize:
      ++s.summarize_requests;
      break;
    case RequestKind::kGuidance:
      ++s.guidance_requests;
      break;
    case RequestKind::kRetrieve:
      ++s.retrieve_requests;
      break;
    case RequestKind::kExplore:
      ++s.explore_requests;
      break;
  }
  if (kind != RequestKind::kQuery && kind != RequestKind::kRefine) {
    if (stats.cache_hit) ++s.cache_hits;
    if (stats.coalesced) ++s.coalesced_waits;
    if (stats.built) ++s.builds;
    if (approximate) ++s.approx_served;
  }
  s.total_latency_ms += stats.latency_ms;
  s.max_latency_ms = std::max(s.max_latency_ms, stats.latency_ms);
}

ServiceStats QueryService::stats() const {
  // Aggregate-on-read over the per-thread shards (exact once the recorded
  // requests happen-before this read, e.g. after thread join).
  ServiceStats out;
  stat_shards_.ForEach([&out](const StatShard& shard) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const ServiceStats& s = shard.stats;
    out.queries += s.queries;
    out.query_cache_hits += s.query_cache_hits;
    out.query_coalesced += s.query_coalesced;
    out.summarize_requests += s.summarize_requests;
    out.guidance_requests += s.guidance_requests;
    out.retrieve_requests += s.retrieve_requests;
    out.explore_requests += s.explore_requests;
    out.cache_hits += s.cache_hits;
    out.coalesced_waits += s.coalesced_waits;
    out.builds += s.builds;
    out.refreshes += s.refreshes;
    out.refresh_full_reuses += s.refresh_full_reuses;
    out.approx_queries += s.approx_queries;
    out.approx_served += s.approx_served;
    out.refine_requests += s.refine_requests;
    out.refinements += s.refinements;
    out.refinements_superseded += s.refinements_superseded;
    out.prefetch_issued += s.prefetch_issued;
    out.prefetch_hits += s.prefetch_hits;
    out.total_latency_ms += s.total_latency_ms;
    out.max_latency_ms = std::max(out.max_latency_ms, s.max_latency_ms);
  });
  out.datasets = datasets_.size();
  std::shared_ptr<const Registry> registry = CurrentRegistry();
  out.sessions = static_cast<int64_t>(registry->entries.size());
  // Generation-lifetime counters are summed at read time from each
  // session, via the pinned registry snapshot (no service lock).
  for (const SessionEntry* entry : registry->entries) {
    core::Session::CacheStats cache = entry->session->cache_stats();
    out.graveyard_size += cache.graveyard_size;
    out.live_generations += cache.live_generations;
    out.generations_evicted += cache.generations_evicted;
  }
  return out;
}

}  // namespace qagview::service
