#include "core/session.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/hybrid.h"
#include "core/solution_store_io.h"

namespace qagview::core {

namespace {

/// Every entry point taking an L checks it against the answer set it
/// pinned before any cache lookup, so a cached wider structure never serves
/// an L that a cold session refuses.
Status CheckTopL(const AnswerSet& answers, int top_l) {
  if (top_l < 1 || top_l > answers.size()) {
    return Status::InvalidArgument("L out of range for this session");
  }
  return Status::OK();
}

/// Counts one step of a universe or store request — a hit, a wait on
/// another caller's build, or a build — and flags it in the trace.
void CountStep(FlightStep step, std::atomic<int64_t>& hits,
               std::atomic<int64_t>& coalesced, std::atomic<int64_t>& misses,
               Session::RequestTrace* trace) {
  switch (step) {
    case FlightStep::kHit:
      hits.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr && !trace->coalesced) trace->cache_hit = true;
      return;
    case FlightStep::kJoined:
      coalesced.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->coalesced = true;
      return;
    case FlightStep::kLed:
      misses.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->built = true;
      return;
  }
}

/// The handle to a universe node: it pins the universe and its generation.
template <typename Node>
std::shared_ptr<const ClusterUniverse> UniverseHandle(
    std::shared_ptr<Node> node) {
  const ClusterUniverse* universe = &node->universe;
  return std::shared_ptr<const ClusterUniverse>(std::move(node), universe);
}

/// The handle to a store node: it pins the store and its universe.
template <typename Node>
std::shared_ptr<const SolutionStore> StoreHandle(std::shared_ptr<Node> node) {
  const SolutionStore* store = &node->store;
  return std::shared_ptr<const SolutionStore>(std::move(node), store);
}

}  // namespace

Session::UniverseNode::UniverseNode(std::shared_ptr<Generation> generation,
                                    ClusterUniverse universe)
    : generation(std::move(generation)), universe(std::move(universe)) {
  this->generation->live_universes.fetch_add(1, std::memory_order_relaxed);
}

Session::UniverseNode::~UniverseNode() {
  generation->live_universes.fetch_sub(1, std::memory_order_relaxed);
}

Session::StoreNode::StoreNode(std::shared_ptr<const UniverseNode> universe,
                              SolutionStore store)
    : universe(std::move(universe)), store(std::move(store)) {
  this->universe->generation->live_stores.fetch_add(
      1, std::memory_order_relaxed);
}

Session::StoreNode::~StoreNode() {
  universe->generation->live_stores.fetch_sub(1, std::memory_order_relaxed);
}

Session::Session(std::unique_ptr<AnswerSet> answers) {
  auto generation = std::make_shared<Generation>();
  generation->answers = std::move(answers);
  auto view = std::make_shared<ReadView>();
  view->generation = std::move(generation);
  view_ = std::move(view);  // construction: not yet shared, plain store
}

Result<std::unique_ptr<Session>> Session::Create(AnswerSet answers) {
  return std::unique_ptr<Session>(
      new Session(std::make_unique<AnswerSet>(std::move(answers))));
}

Result<std::unique_ptr<Session>> Session::FromTable(
    const storage::Table& table, const std::string& value_column) {
  QAG_ASSIGN_OR_RETURN(AnswerSet answers,
                       AnswerSet::FromTable(table, value_column));
  return Create(std::move(answers));
}

std::shared_ptr<const AnswerSet> Session::answers() const {
  std::shared_ptr<const ReadView> view = CurrentView();
  return std::shared_ptr<const AnswerSet>(view->generation,
                                          view->generation->answers.get());
}

Status Session::Refresh(AnswerSet answers, bool* refreshed) {
  Counters().refreshes.fetch_add(1, std::memory_order_relaxed);
  const uint64_t new_fp = answers.content_fingerprint();
  std::unique_lock<std::mutex> lock = WriterLock();
  std::shared_ptr<const ReadView> view = CurrentView();
  const AnswerSet& current = *view->generation->answers;
  const bool changed = new_fp != current.content_fingerprint() ||
                       !answers.SameContent(current);
  if (refreshed != nullptr) *refreshed = changed;
  if (!changed) {
    // Provably unchanged: every cached structure was built from this very
    // content, so the whole session keeps serving warm; the freshly built
    // copy is discarded.
    Counters().refresh_full_reuses.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  // Content changed: every cached entry belongs to the outgoing generation
  // (the view-admission invariant), so all of them are stale by the proof
  // above — publish a fresh empty view and retire the generation. Readers
  // are never blocked: anyone inside the old view keeps serving its
  // pinned, immutable snapshot; the next request loads the new one. The
  // retired generation's only remaining strong references are external
  // handles (and those momentary reader pins): it is destroyed the moment
  // the last one drops (possibly right here, if none exist). Note this
  // deliberately does not reuse-by-fingerprint: a 64-bit collision must
  // not keep a stale grid serving, so the authoritative identity is the
  // generation object itself.
  graveyard_.emplace_back(view->generation);
  ++generations_retired_;
  auto next_generation = std::make_shared<Generation>();
  next_generation->answers = std::make_unique<AnswerSet>(std::move(answers));
  auto next_view = std::make_shared<ReadView>();
  next_view->generation = std::move(next_generation);
  PublishView(std::move(next_view));
  // Drop this writer's own pin so a handle-less outgoing generation is
  // destroyed right here, before the ledger prune below observes it.
  view.reset();
  // Prune ledger entries whose generation already drained, so the ledger
  // itself stays bounded under sustained updates.
  graveyard_.erase(
      std::remove_if(graveyard_.begin(), graveyard_.end(),
                     [](const std::weak_ptr<Generation>& g) {
                       return g.expired();
                     }),
      graveyard_.end());
  return Status::OK();
}

Result<std::shared_ptr<const ClusterUniverse>> Session::UniverseFor(
    int top_l, RequestTrace* trace) {
  QAG_ASSIGN_OR_RETURN(std::shared_ptr<const UniverseNode> node,
                       ServingUniverse(top_l, trace));
  return UniverseHandle(std::move(node));
}

Result<std::shared_ptr<const Session::UniverseNode>> Session::ServingUniverse(
    int top_l, RequestTrace* trace, const Params* params) {
  // The view probed last: the request is checked against its answer set,
  // a hit serves its universe, which serves any top_l up to its own L (all
  // algorithms accept params.L <= the universe's L), and a leader grows
  // from it.
  std::shared_ptr<const ReadView> base;
  auto probe =
      [&]() -> std::optional<Result<std::shared_ptr<const UniverseNode>>> {
    base = CurrentView();
    const AnswerSet& answers = *base->generation->answers;
    QAG_RETURN_IF_ERROR(params != nullptr ? ValidateParams(answers, *params)
                                          : CheckTopL(answers, top_l));
    const UniverseNode* held = base->universe.get();
    if (held == nullptr || held->universe.top_l() < top_l) return std::nullopt;
    return base->universe;
  };
  auto report = [&](FlightStep step) {
    CounterShard& c = Counters();
    CountStep(step, c.universe_hits, c.universe_coalesced, c.universe_misses,
              trace);
  };
  // Warm path — the RCU read side: one atomic load pins the view. No locks,
  // no shared-cacheline writes beyond the handle refcount and a per-thread
  // counter shard.
  std::optional<Result<std::shared_ptr<const UniverseNode>>> served = probe();
  if (served.has_value() && served->ok()) report(FlightStep::kHit);
  // Miss: lead the session's one growth, or wait for the one in flight
  // (whatever its L) and look again. The leader builds outside the lock
  // (concurrent readers stay unblocked) and publishes a successor view
  // under it. The base view pins the answer set and the universe grown
  // from for the build's duration. Growing gives the same universe as a
  // cold build, for a fraction of the work.
  auto grow = [&]() -> Result<std::shared_ptr<const UniverseNode>> {
    // The superseded view, and with it the universe grown from unless a
    // handle still reads it, is released before the waiters wake.
    const std::shared_ptr<const ReadView> from = std::move(base);
    QAG_ASSIGN_OR_RETURN(
        ClusterUniverse built,
        from->universe != nullptr
            ? ClusterUniverse::Grow(from->universe->universe, top_l)
            : ClusterUniverse::Build(from->generation->answers.get(), top_l));
    auto node = std::make_shared<const UniverseNode>(from->generation,
                                                     std::move(built));
    std::unique_lock<std::mutex> lock = WriterLock();
    std::shared_ptr<const ReadView> cur = CurrentView();
    // Only the *current* generation's structures enter the serving view
    // (exact generation identity — no fingerprint collisions). Else a
    // refresh superseded this build mid-flight: the result still serves
    // this (overlapping, hence linearizable) request, pinned by the
    // returned handle, and dies when that handle drops.
    if (cur->generation != from->generation) return node;
    // Only this flight changes a generation's universe, so cur holds the
    // one grown from; its stores, from's and any added since, move onto
    // the grown universe, which keeps their ids.
    QAG_DCHECK(cur->universe == from->universe);
    auto next = std::make_shared<ReadView>();
    next->generation = cur->generation;
    next->universe = node;
    for (const auto& [l, store] : cur->stores) {
      next->stores.emplace_hint(
          next->stores.end(), l,
          std::make_shared<const StoreNode>(
              node, store->store.BoundTo(&node->universe)));
    }
    PublishView(std::move(next));
    return node;
  };
  if (!served.has_value()) {
    served = universe_flight_.Run(
        {}, [this] { return WriterLock(); }, probe, grow, report);
  }
  if (trace != nullptr && served->ok()) {
    trace->approx = (**served)->generation->answers->approximation();
  }
  return std::move(*served);
}

Result<Solution> Session::Summarize(
    const Params& params, std::shared_ptr<const ClusterUniverse>* universe_out,
    RequestTrace* trace) {
  QAG_ASSIGN_OR_RETURN(std::shared_ptr<const UniverseNode> node,
                       ServingUniverse(params.L, trace, &params));
  Result<Solution> solution = Hybrid::Run(node->universe, params);
  if (universe_out != nullptr) *universe_out = UniverseHandle(std::move(node));
  return solution;
}

const std::shared_ptr<const Session::StoreNode>* Session::CoveringStore(
    const ReadView& view, int top_l, const PrecomputeOptions& resolved) {
  // Serve the narrowest cached grid with L' >= top_l — but only when it
  // actually covers the requested (k, D) ranges; a wider-L store built
  // with a narrower grid must not shadow a request for rows it lacks.
  for (auto it = view.stores.lower_bound(top_l); it != view.stores.end();
       ++it) {
    if (resolved.CoveredBy(it->second->store)) return &it->second;
  }
  return nullptr;
}

std::optional<SolutionStore> Session::WidenCachedStore(
    const UniverseNode& universe, int top_l,
    const PrecomputeOptions& resolved) const {
  std::shared_ptr<const ReadView> view = CurrentView();
  if (view->generation != universe.generation) return std::nullopt;
  // The widest grid below top_l replayed with these options decides: if a
  // narrower one's seeds covered every answer up to top_l, the widest one
  // replayed those same seeds (Precompute's proof), so it covers them too.
  const PrecomputeOptions::Grid wanted = resolved.grid();
  for (auto it = std::make_reverse_iterator(view->stores.lower_bound(top_l));
       it != view->stores.rend(); ++it) {
    const SolutionStore& grid = it->second->store;
    if (grid.source() != nullptr && grid.source()->options.grid() == wanted) {
      return Precompute::Widen(grid, universe.universe, top_l, resolved);
    }
  }
  return std::nullopt;
}

std::shared_ptr<const Session::StoreNode> Session::AddStore(
    std::shared_ptr<const UniverseNode> universe, int top_l,
    SolutionStore store) {
  std::unique_lock<std::mutex> lock = WriterLock();
  std::shared_ptr<const ReadView> cur = CurrentView();
  if (cur->generation != universe->generation) {
    // Superseded by a refresh mid-build: the node serves the overlapping
    // request from the retired generation, which drains when the last
    // reader drops.
    return std::make_shared<const StoreNode>(std::move(universe),
                                             std::move(store));
  }
  // The view's universe is the generation's widest, so it holds every id
  // of the universe the store was built over.
  auto node = std::make_shared<const StoreNode>(
      cur->universe, store.BoundTo(&cur->universe->universe));
  // emplace, never replace: a narrower-grid store at this L may exist and
  // keeps serving the requests it covers.
  auto next = std::make_shared<ReadView>(*cur);
  next->stores.emplace(top_l, node);
  PublishView(std::move(next));
  return node;
}

Result<std::shared_ptr<const SolutionStore>> Session::Guidance(
    int top_l, const PrecomputeOptions& options, RequestTrace* trace) {
  // The request is validated and resolved against the generation of the
  // view a probe pins, before any lookup (again only when a refresh swapped
  // the generation); the probe then checks every candidate store lock- and
  // allocation-free.
  PrecomputeOptions resolved;
  const Generation* resolved_for = nullptr;
  auto probe =
      [&]() -> std::optional<Result<std::shared_ptr<const SolutionStore>>> {
    std::shared_ptr<const ReadView> view = CurrentView();
    if (resolved_for != view->generation.get()) {
      const AnswerSet& answers = *view->generation->answers;
      QAG_RETURN_IF_ERROR(CheckTopL(answers, top_l));
      QAG_RETURN_IF_ERROR(options.Validate(answers.num_attrs()));
      resolved = options.ResolvedFor(answers.num_attrs());
      resolved_for = view->generation.get();
    }
    const auto* store = CoveringStore(*view, top_l, resolved);
    if (store == nullptr) return std::nullopt;
    return StoreHandle(*store);
  };
  auto report = [&](FlightStep step) {
    CounterShard& c = Counters();
    CountStep(step, c.store_hits, c.store_coalesced, c.store_misses, trace);
  };
  // Warm path: no lock, and no flight key is built.
  std::optional<Result<std::shared_ptr<const SolutionStore>>> served = probe();
  if (served.has_value() && served->ok()) report(FlightStep::kHit);
  // Miss: coalesce with an identical in-flight precompute, or lead one.
  // The key names the warm probe's resolution; a refresh changing the
  // schema before the probe under the lock makes that probe re-resolve,
  // and the build uses the new resolution, so a stale key only changes
  // whom the request coalesces with. The universe has its own single
  // flight; no session lock held. The store joins the generation of the
  // universe it was built over, so a refresh retires the two together.
  auto build = [&]() -> Result<std::shared_ptr<const SolutionStore>> {
    QAG_ASSIGN_OR_RETURN(std::shared_ptr<const UniverseNode> universe,
                         ServingUniverse(top_l, /*trace=*/nullptr));
    std::optional<SolutionStore> store =
        WidenCachedStore(*universe, top_l, resolved);
    if (store.has_value()) {
      Counters().store_derivations.fetch_add(1, std::memory_order_relaxed);
    } else {
      QAG_ASSIGN_OR_RETURN(
          SolutionStore run,
          Precompute::Run(universe->universe, top_l, options));
      store.emplace(std::move(run));
    }
    return StoreHandle(
        AddStore(std::move(universe), top_l, std::move(*store)));
  };
  if (!served.has_value()) {
    served = store_flights_.Run(
        {top_l, resolved.grid()}, [this] { return WriterLock(); }, probe,
        build, report);
  }
  if (trace != nullptr && served->ok()) {
    trace->approx = (**served)->universe()->answer_set().approximation();
  }
  return std::move(*served);
}

Result<Solution> Session::Retrieve(int top_l, int d, int k,
                                   RequestTrace* trace) {
  // Narrowest store with L' >= top_l that can answer (d, k); a narrower-
  // grid store is skipped if a wider cached one has the row. Lock-free:
  // the pinned view keeps every candidate and its universe alive for the
  // whole scan.
  std::shared_ptr<const ReadView> view = CurrentView();
  QAG_RETURN_IF_ERROR(CheckTopL(*view->generation->answers, top_l));
  Status first_error = Status::OK();
  bool found_store = false;
  for (auto it = view->stores.lower_bound(top_l); it != view->stores.end();
       ++it) {
    found_store = true;
    Result<Solution> solution = it->second->store.Retrieve(d, k);
    if (solution.ok()) {
      Counters().store_hits.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) {
        trace->cache_hit = true;
        trace->approx = view->generation->answers->approximation();
      }
      return solution;
    }
    if (first_error.ok()) first_error = solution.status();
  }
  Counters().store_misses.fetch_add(1, std::memory_order_relaxed);
  if (!found_store) {
    return Status::FailedPrecondition(
        "no guidance precomputed covering this L; call Guidance() first");
  }
  return first_error;
}

Status Session::SaveGuidance(int top_l, const std::string& path) const {
  // The narrowest cached grid with L' >= top_l serves (its replays cover
  // the top-L' >= top-L elements, and every stored (k, D) solution remains
  // valid for the narrower coverage request by Proposition 6.1). The
  // pinned view keeps the store and its universe alive across the file
  // write; no lock is held.
  std::shared_ptr<const ReadView> view = CurrentView();
  QAG_RETURN_IF_ERROR(CheckTopL(*view->generation->answers, top_l));
  auto it = view->stores.lower_bound(top_l);
  if (it == view->stores.end()) {
    Counters().store_misses.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition(
        "no guidance precomputed covering this L; call Guidance() first");
  }
  Counters().store_hits.fetch_add(1, std::memory_order_relaxed);
  return SaveSolutionStore(it->second->store, path);
}

Status Session::LoadGuidance(int top_l, const std::string& path) {
  QAG_RETURN_IF_ERROR(CheckTopL(*answers(), top_l));
  QAG_ASSIGN_OR_RETURN(std::string text, ReadSolutionStoreFile(path));
  QAG_ASSIGN_OR_RETURN(SolutionStoreHeader header,
                       ParseSolutionStoreHeader(text));
  // Identity gate before any build: a file from other data — older rows,
  // the approximate phase, another query — fails here. The deserializer
  // repeats the check against the pinned universe's own answer set, which
  // covers a refresh landing in between.
  QAG_RETURN_IF_ERROR(header.CheckBuiltFrom(*answers()));
  // SaveGuidance(top_l) may have written a wider grid (it serves from the
  // narrowest store with L' >= top_l), so accept any file with L' >= top_l
  // and cache it under its own L'.
  if (header.l < top_l) {
    return Status::InvalidArgument(
        StrCat("file holds a grid for L=", header.l,
               ", too narrow for requested L=", top_l));
  }
  QAG_ASSIGN_OR_RETURN(std::shared_ptr<const UniverseNode> universe,
                       ServingUniverse(header.l, /*trace=*/nullptr));
  QAG_ASSIGN_OR_RETURN(SolutionStore store,
                       DeserializeSolutionStore(&universe->universe, text));
  // A refresh racing the load keeps the grid out of the view: it no longer
  // matches the live answer set.
  AddStore(std::move(universe), header.l, std::move(store));
  return Status::OK();
}

Session::CacheStats Session::cache_stats() const {
  CacheStats stats;
  {
    std::shared_ptr<const ReadView> view = CurrentView();
    stats.universes = view->universe != nullptr ? 1 : 0;
    stats.stores = static_cast<int>(view->stores.size());
    // The pin is dropped here, before the graveyard probe below: a
    // generation retired by a racing refresh must not read as "still
    // retained" merely because this observer holds the outgoing view.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Count what the graveyard still retains by probing the ledger's weak
    // references: an entry that no longer locks has been evicted (its
    // readers drained and the generation was destroyed).
    int alive = 0;
    for (const std::weak_ptr<Generation>& entry : graveyard_) {
      if (std::shared_ptr<Generation> gen = entry.lock()) {
        ++alive;
        stats.retired_universes +=
            gen->live_universes.load(std::memory_order_relaxed);
        stats.retired_stores +=
            gen->live_stores.load(std::memory_order_relaxed);
      }
    }
    stats.graveyard_size = alive;
    stats.live_generations = alive + 1;
    stats.generations_evicted = generations_retired_ - alive;
  }
  shards_.ForEach([&stats](const CounterShard& shard) {
    stats.universe_hits += shard.universe_hits.load(std::memory_order_relaxed);
    stats.universe_misses +=
        shard.universe_misses.load(std::memory_order_relaxed);
    stats.store_hits += shard.store_hits.load(std::memory_order_relaxed);
    stats.store_misses += shard.store_misses.load(std::memory_order_relaxed);
    stats.universe_coalesced +=
        shard.universe_coalesced.load(std::memory_order_relaxed);
    stats.store_coalesced +=
        shard.store_coalesced.load(std::memory_order_relaxed);
    stats.store_derivations +=
        shard.store_derivations.load(std::memory_order_relaxed);
    stats.refreshes += shard.refreshes.load(std::memory_order_relaxed);
    stats.refresh_full_reuses +=
        shard.refresh_full_reuses.load(std::memory_order_relaxed);
  });
  stats.writer_lock_acquisitions =
      writer_lock_acquisitions_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace qagview::core
