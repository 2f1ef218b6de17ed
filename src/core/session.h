#ifndef QAGVIEW_CORE_SESSION_H_
#define QAGVIEW_CORE_SESSION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/sharded_stats.h"
#include "common/single_flight.h"
#include "core/hybrid.h"
#include "core/precompute.h"
#include "core/solution_store.h"
#include "storage/table.h"

namespace qagview::core {

/// \brief One interactive exploration session — the server-side state of
/// the Appendix A.3 architecture.
///
/// The paper's prototype keeps a cache between requests: a new aggregate
/// query fully rebuilds it, while parameter-only changes (k, L, D) reuse
/// cached structures. Session implements that policy:
///
///  * the answer set is fixed per session (new query => new session);
///  * one cluster universe per answer-set generation: the widest built so
///    far. It serves every request at an L up to its own (universe(L)'s
///    clusters are a prefix of universe(L')'s for L <= L', and every
///    algorithm counts the top L against the request's L). A request above
///    it misses: the session grows it (ClusterUniverse::Grow: only the new
///    levels' clusters are generated and mapped), builds cold only when
///    there is none, and publishes the grown universe in its place. A grown
///    universe is bit-identical to a cold one, so the answer never depends
///    on which levels were built first;
///  * precomputed solution stores (the §6.2 grids) are cached per L, each
///    bound to the generation's one universe: publishing a grown universe
///    rebinds every cached grid to it (SolutionStore::BoundTo, O(1) and
///    bit-identical, since a grid's cluster ids are prefix ids), so nothing
///    cached keeps a superseded universe alive. A grid miss first tries to
///    derive the grid from the widest cached grid below its L with the same
///    resolved options (Precompute::Widen: no replay when that grid's
///    seeds cover the answers in between, and bit-identical to a
///    precompute) and precomputes only when it cannot;
///  * Summarize / Retrieve requests then run at interactive speed.
///
/// **Thread safety — the RCU read path.** Every public method may be
/// called concurrently from any number of client threads (the contract the
/// `service::QueryService` layer builds on). The session's entire serving
/// state — the live answer-set generation, its universe and its store
/// cache — is one immutable `ReadView` snapshot behind an atomically
/// published pointer. A warm request performs a single atomic load of that
/// pointer, which pins the snapshot for the request's duration, and then
/// serves every answer/universe/store lookup from it without acquiring any
/// lock: warm hits are wait-free with respect to writers and to each
/// other, so warm throughput scales with the core count instead of
/// collapsing on a shared mutex. Writers (cache fills, growth, refreshes)
/// never mutate a published view; they take the writer mutex, build a new
/// view copy-on-write, and publish it with an atomic store (pin → serve →
/// drop, classic read-copy-update). Expensive builds still run *outside*
/// the writer lock and are **single-flight** (common/single_flight.h): one
/// growth flight per session (a miss waits for any growth in flight, then
/// either hits or grows from its result) and one flight per Guidance (L,
/// options) grid, so N clients missing together never run N duplicate
/// builds. Coalesced waits are counted in `CacheStats`. Results remain
/// bit-identical to any serial execution order: builds are deterministic
/// in their (answer set, L, options) inputs alone, and views, stores, and
/// universes are immutable once published.
///
/// The per-op statistics counters are sharded per thread
/// (common/sharded_stats.h) and aggregated when `cache_stats()` is read,
/// so the bookkeeping itself is not a point of cacheline contention
/// either. `CacheStats::writer_lock_acquisitions` counts every writer's
/// acquisition of the session mutex — the invariant "a warm hit acquires
/// the writer lock zero times" is asserted by tests/read_scaling_test.cc.
///
/// **Versioned refresh and handle lifetime.** The answer set is no longer
/// fixed for the session's lifetime: Refresh() installs the answer set
/// re-executed against a newer table snapshot. Every structure the session
/// hands out — answer sets, cluster universes, solution stores — is
/// returned as a `std::shared_ptr` **handle** that pins exactly what it
/// reads: an answer-set handle its answer set, a universe handle that
/// universe and its answer set, a store handle that store and the universe
/// it is bound to. A universe superseded by growth is therefore freed when
/// its last handle drops, and so is a *retired* generation — one a
/// content-changing refresh superseded: it leaves the serving view, is
/// tracked in a graveyard ledger, and lives exactly as long as some handle
/// (or a reader still inside its pinned view) reads from it
/// (**drain-then-evict**). In-flight readers are never torn down, and a
/// session under sustained updates or a climbing L never accumulates
/// superseded structures. View admission is guarded by generation identity
/// (exact, collision-free): a build that races a refresh stays out of the
/// view (its result still serves the overlapping request: a linearizable
/// pre-refresh view, pinned by the returned handle). The ownership rule
/// for callers: **never store a raw pointer obtained from a handle; hold
/// the shared_ptr for as long as the structure is read.**
class Session {
 public:
  /// Creates a session over a materialized answer set.
  static Result<std::unique_ptr<Session>> Create(AnswerSet answers);

  /// Creates a session from an aggregate-query result table.
  static Result<std::unique_ptr<Session>> FromTable(
      const storage::Table& table, const std::string& value_column);

  /// A handle to the current answer set. The handle pins its generation:
  /// it stays valid (and bit-identical) after a content-changing Refresh,
  /// but then names the outgoing data — re-call for the current view, and
  /// drop stale handles so retired generations can be evicted. Wait-free:
  /// one atomic view load, no locks.
  std::shared_ptr<const AnswerSet> answers() const;

  /// Exact/approximate provenance of the currently published answer set.
  /// Wait-free (one atomic view load). **Two-phase publication** rides on
  /// the ordinary Refresh machinery: a session created from an approximate
  /// answer set serves it immediately, and when the background exact build
  /// lands, Refresh installs it as a content change — `is_exact`
  /// participates in the content fingerprint and SameContent, so the exact
  /// set is never "full-reused" against its approximate predecessor, even
  /// if every estimate matched. The approximate generation then drains
  /// through the normal graveyard ledger.
  Approximation approximation() const;

  /// Incremental refresh: hands the session the answer set re-executed
  /// against a newer table snapshot. Compares content fingerprints plus an
  /// exact content check — reuse is provable, not probabilistic: when
  /// unchanged, the new copy is discarded and every cache stays warm; when
  /// changed, the new answer set is installed and the outgoing generation
  /// (every cached universe / store, by the view-admission invariant) is
  /// retired — it survives precisely until its last external handle drops,
  /// then is evicted. `*refreshed` (when given) says which: true when the
  /// content changed. Readers concurrent with a refresh are never blocked:
  /// they keep serving from whichever view they pinned, and the next
  /// request observes the new one. Results after Refresh are bit-identical
  /// to a fresh session built from the same answer set.
  Status Refresh(AnswerSet answers, bool* refreshed = nullptr);

  /// What happened to one request, for per-request service statistics:
  /// exactly one of the flags is set by UniverseFor / Guidance; Retrieve
  /// sets `cache_hit` when any cached grid answered.
  struct RequestTrace {
    /// Served from an already-cached structure.
    bool cache_hit = false;
    /// Waited on another client's identical in-flight build instead of
    /// duplicating it (single-flight coalescing).
    bool coalesced = false;
    /// Performed the build (cache miss, this caller was the leader).
    bool built = false;
  };

  /// One-off summarization (Hybrid) under the given parameters; builds or
  /// reuses the universe for params.L.
  Result<Solution> Summarize(const Params& params,
                             const HybridOptions& options = HybridOptions(),
                             RequestTrace* trace = nullptr);

  /// Summarize variant that also reports which universe served the
  /// request — the universe the returned Solution's cluster ids index
  /// into. Renderers should use it rather than a second UniverseFor(params.L)
  /// lookup, which may return another universe (a refresh may land between
  /// the two calls).
  Result<Solution> SummarizeWith(
      const Params& params,
      std::shared_ptr<const ClusterUniverse>* universe_out,
      const HybridOptions& options = HybridOptions(),
      RequestTrace* trace = nullptr);

  /// Ensures a (k, D) grid serving `top_l` is precomputed and returns a
  /// handle to the store. Like UniverseFor, a cached grid for any L' >=
  /// top_l serves the request (Proposition 6.1: the wider grid's solutions
  /// cover the narrower request) — but only when it also covers the
  /// requested (k, D) ranges. Otherwise the grid at top_l is derived from
  /// the widest cached grid below top_l with the same resolved options
  /// when Precompute::Widen allows (CacheStats::store_derivations), and
  /// precomputed when it does not; either way the result equals a fresh
  /// precompute at top_l. Concurrent calls with the same (top_l, options)
  /// grid shape coalesce onto one build. The handle pins the store's
  /// generation across refreshes; drop it when done reading. Warm hits are
  /// lock-free. A top_l outside [1, n] or options that Precompute::Run
  /// refuses (PrecomputeOptions::Validate) fail with InvalidArgument before
  /// any lookup, whatever is cached. `options` reaches Precompute::Run
  /// unchanged, num_threads (the width of its replays) included.
  Result<std::shared_ptr<const SolutionStore>> Guidance(
      int top_l, const PrecomputeOptions& options = PrecomputeOptions(),
      RequestTrace* trace = nullptr);

  /// Retrieves a precomputed solution; requires a prior Guidance(L') with
  /// L' >= top_l. The narrowest such store that can answer (d, k) serves
  /// the request, consistent with the universe cache. Lock-free. Like every
  /// method below that takes an L, it refuses a top_l outside [1, n] with
  /// InvalidArgument before any lookup.
  Result<Solution> Retrieve(int top_l, int d, int k,
                            RequestTrace* trace = nullptr);

  /// Persists the precomputed grid serving `top_l` (the narrowest cached
  /// store with L' >= top_l) to a file; requires a prior Guidance(L') with
  /// L' >= top_l. The file records the store's own L' and the identity of
  /// the answer set it was built from (core/solution_store_io.h). The
  /// paper's prototype keeps these grids in PostgreSQL; this is the
  /// file-backed equivalent.
  Status SaveGuidance(int top_l, const std::string& path) const;

  /// Loads a grid saved by SaveGuidance — possibly in an earlier process —
  /// into this session's cache, skipping the precompute cost. The file may
  /// hold a grid for any L' >= top_l (SaveGuidance may have written a
  /// wider store); it is cached under its own L'. The file is read once,
  /// and its checksum and answer-set identity are verified before any
  /// universe is built: a damaged file, a file built from other data (even
  /// data with the same ranking), or one narrower than `top_l` fails with
  /// no change to the session.
  Status LoadGuidance(int top_l, const std::string& path);

  /// A handle to the universe serving requests at coverage level `top_l`:
  /// the session's universe, whose L may exceed top_l. A miss (top_l above
  /// it) waits for any growth in flight, then grows the universe to top_l
  /// or builds it cold when there is none. The handle pins the universe
  /// and its answer set across growth and refreshes. Warm hits are
  /// lock-free.
  Result<std::shared_ptr<const ClusterUniverse>> UniverseFor(
      int top_l, RequestTrace* trace = nullptr);

  struct CacheStats {
    /// Universes the serving view holds: 0 before the first build, then 1.
    int universes = 0;
    int stores = 0;
    int64_t universe_hits = 0;
    int64_t universe_misses = 0;
    int64_t store_hits = 0;
    int64_t store_misses = 0;
    /// Requests that blocked on another caller's identical in-flight build
    /// instead of starting their own (each subsequently counts a hit when
    /// it serves from the freshly published view).
    int64_t universe_coalesced = 0;
    int64_t store_coalesced = 0;
    /// Store misses served by widening a cached grid below the requested L
    /// (Precompute::Widen) instead of precomputing; each also counts in
    /// store_misses.
    int64_t store_derivations = 0;
    /// Refresh() calls, and the subset that proved the answer set
    /// unchanged and reused every cache.
    int64_t refreshes = 0;
    int64_t refresh_full_reuses = 0;
    /// Universes and stores of retired generations still retained by
    /// external handles (0 once every reader drained). A grid rebound to a
    /// grown universe counts once per universe a handle pins it under.
    int retired_universes = 0;
    int retired_stores = 0;
    /// Retired generations currently retained by external handles.
    int graveyard_size = 0;
    /// Generations currently alive: graveyard_size plus the live one.
    int live_generations = 0;
    /// Retired generations whose readers drained — destroyed, memory
    /// reclaimed. Monotonic; graveyard_size + generations_evicted equals
    /// the number of content-changing refreshes.
    int64_t generations_evicted = 0;
    /// Writer acquisitions of the session's mutex, ever. The warm-path
    /// invariant — a cache hit takes the writer lock zero times — is
    /// asserted against this counter by read_scaling_test. Only cold
    /// events (misses, publishes, refreshes, loads) may advance it, so the
    /// single relaxed increment per acquisition is itself off the warm
    /// path.
    int64_t writer_lock_acquisitions = 0;
  };
  /// Aggregates the per-thread counter shards. Exact once the counted
  /// requests happen-before the read (e.g. after joining the client
  /// threads); a read racing in-flight requests sees a monotonic snapshot.
  CacheStats cache_stats() const;

 private:
  /// One answer-set generation: the answer set that every universe and
  /// store built from it reads. The nodes below pin it, so it lives as long
  /// as anything built from it. The counters census what is still alive,
  /// for cache_stats' retired counts.
  struct Generation {
    std::unique_ptr<AnswerSet> answers;
    std::atomic<int> live_universes{0};
    std::atomic<int> live_stores{0};
  };

  /// A universe and the generation it reads. Universe handles alias it.
  struct UniverseNode {
    UniverseNode(std::shared_ptr<Generation> generation,
                 ClusterUniverse universe);
    ~UniverseNode();
    std::shared_ptr<Generation> generation;
    ClusterUniverse universe;
  };

  /// A store and the universe it is bound to. Store handles alias it.
  struct StoreNode {
    StoreNode(std::shared_ptr<const UniverseNode> universe,
              SolutionStore store);
    ~StoreNode();
    std::shared_ptr<const UniverseNode> universe;
    SolutionStore store;
  };

  /// The atomically published serving snapshot: the live generation, its
  /// universe and the stores bound to it. Immutable after publication —
  /// every change (cache fill, growth, refresh, load) builds a successor
  /// view and swaps the pointer, so a reader that loaded a view once can
  /// serve an entire request from it without locks or torn state.
  /// Invariants: `universe` and every store belong to `generation`
  /// (admission compares generation identity), and every store is bound to
  /// `universe`.
  struct ReadView {
    std::shared_ptr<Generation> generation;
    /// The widest universe built for the generation so far; null before
    /// the first build.
    std::shared_ptr<const UniverseNode> universe;
    // Keyed by top_l. A multimap because one L can accumulate several
    // grids (different (k, D) option sets); within a generation stores
    // are never replaced, so narrower-grid stores keep serving what they
    // cover.
    std::multimap<int, std::shared_ptr<const StoreNode>> stores;
  };

  /// Per-thread shard of the request counters (relaxed increments on a
  /// thread-local cacheline; summed by cache_stats).
  struct CounterShard {
    std::atomic<int64_t> universe_hits{0};
    std::atomic<int64_t> universe_misses{0};
    std::atomic<int64_t> store_hits{0};
    std::atomic<int64_t> store_misses{0};
    std::atomic<int64_t> universe_coalesced{0};
    std::atomic<int64_t> store_coalesced{0};
    std::atomic<int64_t> store_derivations{0};
    std::atomic<int64_t> refreshes{0};
    std::atomic<int64_t> refresh_full_reuses{0};
  };

  explicit Session(std::unique_ptr<AnswerSet> answers);

  /// The current view — the RCU read-side primitive: one atomic acquire
  /// load; the returned shared_ptr pins the view (and its generation) for
  /// the caller's read.
  std::shared_ptr<const ReadView> CurrentView() const {
    return std::atomic_load_explicit(&view_, std::memory_order_acquire);
  }

  /// Publishes a successor view (release store). Caller holds mu_ —
  /// writers are serialized; readers are never blocked.
  void PublishView(std::shared_ptr<const ReadView> next) {
    std::atomic_store_explicit(&view_, std::move(next),
                               std::memory_order_release);
  }

  /// Acquires the writer mutex, counting the acquisition (the counter
  /// read_scaling_test pins warm-hit wait-freedom against).
  std::unique_lock<std::mutex> WriterLock() const {
    writer_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(mu_);
  }

  CounterShard& Counters() const { return shards_.Local(); }

  /// UniverseFor, returning the node for internal callers (Guidance,
  /// LoadGuidance) that bind stores to the universe.
  Result<std::shared_ptr<const UniverseNode>> ServingUniverse(
      int top_l, RequestTrace* trace);

  /// The grid at `top_l` derived from the widest cached grid below it
  /// replayed with `resolved` options (Precompute::Widen), bound to
  /// `universe`; nothing when there is none, its seeds leave an answer in
  /// between uncovered, or a refresh retired `universe`'s generation.
  /// Lock-free: reads the current view.
  std::optional<SolutionStore> WidenCachedStore(
      const UniverseNode& universe, int top_l,
      const PrecomputeOptions& resolved) const;

  /// Publishes `store`, built for `top_l` over `universe`, into the
  /// serving view, bound to the view's universe; returns its node. When a
  /// refresh retired `universe`'s generation meanwhile, the store stays out
  /// of the view and its node serves only the caller. Takes mu_.
  std::shared_ptr<const StoreNode> AddStore(
      std::shared_ptr<const UniverseNode> universe, int top_l,
      SolutionStore store);

  /// The narrowest store in `view` with L' >= top_l covering the resolved
  /// options, or nullptr. Lock-free and allocation-free.
  static const std::shared_ptr<const StoreNode>* CoveringStore(
      const ReadView& view, int top_l, const PrecomputeOptions& resolved);

  /// Serializes writers: view publication, the flights and the graveyard
  /// ledger. Besides them only cache_stats takes it, directly (so it is not
  /// counted as a writer acquisition); the warm serving paths never touch
  /// it. Never held across a build or a flight wait.
  mutable std::mutex mu_;

  /// The published serving snapshot; access only through CurrentView /
  /// PublishView (C++17 shared_ptr atomic free functions). The session's
  /// own strong reference to the live generation lives inside it.
  std::shared_ptr<const ReadView> view_;

  // Builds in flight, guarded by mu_ (miss paths only): the session's one
  // universe growth, whatever its L, and the grid precomputes, keyed by
  // (top_l, grid()) of the resolved options (exact grid-shape identity).
  SingleFlight<std::monostate> universe_flight_;
  SingleFlight<std::pair<int, PrecomputeOptions::Grid>> store_flights_;

  /// Graveyard ledger: weak references to retired generations. Holding
  /// them weak is the eviction mechanism — a retired generation's only
  /// strong references are external handles (and momentarily the pinned
  /// views of in-flight readers), so it is destroyed (on whichever thread
  /// drops the last handle) the instant its readers drain; the ledger only
  /// observes that for statistics. Expired entries are pruned on each
  /// refresh. Guarded by mu_.
  std::vector<std::weak_ptr<Generation>> graveyard_;
  /// Content-changing refreshes so far = generations ever retired.
  /// generations_evicted is derived: retired minus still-alive.
  int64_t generations_retired_ = 0;

  mutable Sharded<CounterShard> shards_;
  mutable std::atomic<int64_t> writer_lock_acquisitions_{0};
};

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_SESSION_H_
