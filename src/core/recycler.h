#ifndef RECYCLEDB_CORE_RECYCLER_H_
#define RECYCLEDB_CORE_RECYCLER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/policies.h"
#include "core/pool_budget.h"
#include "core/recycle_pool.h"
#include "core/subsumption.h"
#include "interp/recycler_hook.h"

namespace recycledb {

namespace obs {
class EventRing;
}  // namespace obs

/// Knobs of the recycler architecture (paper §3-§6). Defaults correspond to
/// the paper's baseline micro-benchmark setting: KEEPALL admission, no
/// resource limits, subsumption enabled.
struct RecyclerConfig {
  AdmissionKind admission = AdmissionKind::kKeepAll;
  int credits = 5;  ///< initial credits for CREDIT / ADAPT

  EvictionKind eviction = EvictionKind::kLru;
  /// Recycle-pool entry and memory limits; 0 = unlimited. The budget is a
  /// PoolBudget ledger with one slot per stripe (a standalone Recycler has
  /// one slot holding the whole budget). A STRIPED pool gives each stripe a
  /// max/N share and admits with stripe-local eviction — no all-stripe lock
  /// on the admission path, with borrow/rebalance through the atomic ledger
  /// when one stripe runs hot. With pool_stripes = 1 its decisions match a
  /// standalone Recycler's (tests/striped_recycler_test.cc).
  size_t max_entries = 0;
  size_t max_bytes = 0;

  bool enable_subsumption = true;
  bool enable_combined_subsumption = true;

  /// Lock stripes of the shared pool (ConcurrentRecycler only; a standalone
  /// Recycler has no locks). Admission/eviction/subsumption in different
  /// stripes proceed in parallel; 1 reproduces the single-lock protocol.
  size_t pool_stripes = 16;

  /// Protect the running queries' intermediates from eviction (§4.3); the
  /// single-query-fills-pool exception still applies. With N concurrent
  /// queries the protection is epoch-based: everything last touched at or
  /// after the oldest running query is protected. Ablation knob.
  bool protect_current_query = true;
};

/// Aggregate recycler statistics, accumulated across queries.
struct RecyclerStats {
  uint64_t monitored = 0;  ///< monitored executions ("potential hits")
  uint64_t hits = 0;       ///< instructions answered from the pool
  uint64_t exact_hits = 0;
  uint64_t subsumed_hits = 0;  ///< singleton subsumption
  uint64_t combined_hits = 0;  ///< combined subsumption
  uint64_t local_hits = 0;     ///< reuse within the admitting invocation
  uint64_t global_hits = 0;    ///< reuse across invocations
  uint64_t admitted = 0;
  uint64_t rejected = 0;   ///< admission declined (credits / capacity)
  uint64_t evicted = 0;
  uint64_t invalidated = 0;  ///< entries dropped by update invalidation
  uint64_t propagated = 0;   ///< entries refreshed by delta propagation
  /// Admissions declined because the producing query ran against a snapshot
  /// older than a dependency's current epoch (the result may miss committed
  /// rows, so it must not enter the pool).
  uint64_t stale_declines = 0;
  double time_saved_ms = 0;  ///< Σ original cost of entries reused exactly
  double match_ms = 0;       ///< total time spent in recycleEntry matching
  double subsume_alg_ms = 0; ///< combined-subsumption DP, every attempt
  double max_subsume_alg_ms = 0;  ///< slowest single attempt

  /// Field-wise accumulation (counters/times sum, maxima take the max).
  /// THE aggregation for rolling per-stripe statistics up — add new fields
  /// here, not at the call sites.
  RecyclerStats& operator+=(const RecyclerStats& o) {
    monitored += o.monitored;
    hits += o.hits;
    exact_hits += o.exact_hits;
    subsumed_hits += o.subsumed_hits;
    combined_hits += o.combined_hits;
    local_hits += o.local_hits;
    global_hits += o.global_hits;
    admitted += o.admitted;
    rejected += o.rejected;
    evicted += o.evicted;
    invalidated += o.invalidated;
    propagated += o.propagated;
    stale_declines += o.stale_declines;
    time_saved_ms += o.time_saved_ms;
    match_ms += o.match_ms;
    subsume_alg_ms += o.subsume_alg_ms;
    if (o.max_subsume_alg_ms > max_subsume_alg_ms)
      max_subsume_alg_ms = o.max_subsume_alg_ms;
    return *this;
  }
};

/// Identifies one query invocation against the shared pool by its globally
/// ordered invocation id, which drives local/global reuse classification
/// and the eviction-protection epoch.
struct QueryCtx {
  uint64_t query_id = 0;
  /// The catalog snapshot epoch the invocation runs against. kEpochLatest
  /// (the default, used by the single-session convenience API and every
  /// pre-MVCC caller) sees the whole pool and admits unconditionally; a
  /// pinned epoch filters hit/subsumption candidates to entries with
  /// valid_from <= epoch and declines admissions whose dependencies have
  /// moved past it (stale_declines).
  uint64_t epoch = kEpochLatest;
};

/// State shared by every stripe of a striped recycler group (see
/// ConcurrentRecycler): the logical use clock, the invocation counter and
/// active-query registry (eviction-protection epochs), the credit ledger,
/// the subset lattice and the pool budget. A standalone Recycler owns a
/// private instance with a one-slot budget.
///
/// Every member is individually thread-safe: the clocks are atomics, the
/// registry has a leaf mutex, and CreditLedger / SubsetLattice lock
/// internally. One query id sequence spanning all stripes is what keeps
/// cross-stripe LRU ordering and local/global reuse classification
/// identical to the unstriped pool.
struct RecyclerSharedState {
  /// `budget_slots` is the number of stripes sharing the budget; no budget
  /// is built when the config sets neither limit.
  RecyclerSharedState(const RecyclerConfig& cfg, size_t budget_slots)
      : ledger(cfg.admission, cfg.credits),
        budget(cfg.max_bytes != 0 || cfg.max_entries != 0
                   ? std::make_unique<PoolBudget>(cfg.max_bytes,
                                                  cfg.max_entries,
                                                  budget_slots)
                   : nullptr) {}

  std::atomic<uint64_t> clock{0};  ///< logical use clock (LRU ordering)
  /// Invocation counter (local/global classification, protection epoch).
  std::atomic<uint64_t> query_seq{0};
  mutable std::mutex active_mu;  ///< guards active_queries (leaf lock)
  std::vector<uint64_t> active_queries;  ///< ids of in-flight invocations
  CreditLedger ledger;
  /// Cross-stripe pool bookkeeping: column memory attribution + borrow
  /// edges, bat→producer lineage registry, subset lattice.
  PoolSharedState pool_shared;

  /// MVCC: the snapshot epoch at which each column was last touched by a
  /// published mutation (absent = never touched = epoch 0). Stamped by
  /// OnCatalogUpdate/PropagateUpdate *before* invalidation so re-admitted
  /// and refreshed entries pick up the new validity floor; read by
  /// admissions to compute valid_from = max over deps. Leaf mutex.
  mutable std::mutex epoch_mu;
  std::map<ColumnId, uint64_t> col_epochs;

  /// The byte/entry budget, one slot per stripe; null without a budget.
  std::unique_ptr<PoolBudget> budget;
  /// Optional sink for budget events (borrow, shed, slack), recorded with
  /// the stripe index as actor. Set before concurrent traffic.
  obs::EventRing* events = nullptr;
};

/// The recycler run-time support (paper §3.3, Algorithm 1): implements the
/// RecyclerHook the interpreter wraps around marked instructions, manages
/// the recycle pool under the configured admission/eviction policies, and
/// performs instruction subsumption on match misses.
///
/// ## Thread-safety contract
///
/// Recycler is *thread-compatible*, not thread-safe: every method — including
/// Clear(), ResetStats() and the introspection accessors while queries are in
/// flight — requires external synchronisation when the instance is shared
/// between threads. ConcurrentRecycler provides exactly that (a shared_mutex
/// protocol) and is the supported way to share one pool across interpreters.
///
/// Two properties make external locking sufficient and Clear()/invalidation
/// safe even "during" an invocation:
///  - results are handed out as shared_ptr copies, so dropping a pool entry
///    never invalidates data an in-flight query already holds;
///  - per-invocation state lives in the caller-held QueryCtx (multi-session
///    API below), not in the instance, so invocations may interleave freely
///    as long as individual calls are serialised.
class Recycler : public RecyclerHook {
 public:
  explicit Recycler(RecyclerConfig cfg = {});

  /// Striped-mode constructor: the instance becomes stripe `stripe` of a
  /// group sharing `shared` (clock, query registry, ledger, lattice, budget),
  /// which must outlive it; it charges budget slot `stripe`. Used by
  /// ConcurrentRecycler.
  Recycler(RecyclerConfig cfg, RecyclerSharedState* shared, size_t stripe);

  // --- RecyclerHook (Algorithm 1, single-session convenience) ---------------
  // These forward to the multi-session API below using an instance-held
  // current context; they serve the common one-interpreter-one-recycler case.
  void BeginQuery(const Program& prog) override;
  void EndQuery() override;
  bool OnEntry(const InstrView& instr, std::vector<MalValue>* results) override;
  void OnExit(const InstrView& instr, const std::vector<MalValue>& results,
              double cpu_ms, const std::vector<ColumnId>& deps) override;

  // --- multi-session API (used by ConcurrentRecycler) -----------------------
  // Each concurrent invocation mints its own QueryCtx; calls carrying
  // different contexts may interleave arbitrarily (and, unlike the rest of
  // the class, BeginQueryCtx/EndQueryCtx/ProtectedEpoch are themselves
  // thread-safe: the active-query registry has its own leaf mutex, so
  // per-query bookkeeping never contends with pool traffic).

  /// Registers a new invocation: mints its query id and marks it active for
  /// epoch-based eviction protection.
  QueryCtx BeginQueryCtx(const Program& prog);

  /// Unregisters an invocation, releasing its eviction protection.
  void EndQueryCtx(const QueryCtx& ctx);

  bool OnEntryCtx(const QueryCtx& ctx, const InstrView& instr,
                  std::vector<MalValue>* results);
  void OnExitCtx(const QueryCtx& ctx, const InstrView& instr,
                 const std::vector<MalValue>& results, double cpu_ms,
                 const std::vector<ColumnId>& deps);

  /// Outcome of TryExactHitShared; the caller folds it into its own
  /// (atomic) aggregate statistics.
  struct SharedHit {
    bool hit = false;
    bool local = false;     ///< reuse within the admitting invocation
    double saved_ms = 0;    ///< original cost of the reused entry
  };

  /// The pool-entry opcode whose entries can subsume `op`, or nullopt when
  /// the opcode never subsumes. This is the single source of truth for the
  /// OnEntryCtx subsumption dispatch below and for ConcurrentRecycler's
  /// shared-lock candidate-existence probe — keep it in sync with the
  /// SubsumptionEngine's candidate enumeration when adding subsumable ops.
  static std::optional<Opcode> SubsumptionCandidateOp(Opcode op);

  /// Exact-match hit path that is safe under a *shared* (read) pool lock:
  /// the match indexes are only read, per-entry reuse statistics are
  /// atomics, the logical clock is atomic, and the credit ledger is
  /// concurrent — so CREDIT/ADAPT hits take this path too (the ledger
  /// refund on local reuse is an atomic increment). Aggregate RecyclerStats
  /// are deliberately NOT touched; ConcurrentRecycler accounts the hit on
  /// its side.
  SharedHit TryExactHitShared(const QueryCtx& ctx, const InstrView& instr,
                              std::vector<MalValue>* results);

  // --- update synchronisation (§6) -----------------------------------------

  /// Immediate column-wise invalidation (§6.4): drops every entry derived
  /// from any of `cols`. This is the listener the catalog should call.
  /// `epoch`, when non-zero, is the snapshot epoch the triggering commit is
  /// about to publish; it is stamped into the shared col_epochs map first so
  /// subsequent admissions over these columns carry the right validity floor
  /// (0 = legacy caller without an MVCC catalog; no stamping).
  void OnCatalogUpdate(const std::vector<ColumnId>& cols, uint64_t epoch = 0);

  /// §6.3 extension: for insert-only commits, refreshes selection-over-bind
  /// entries (range kSelect, equality kUselect, and kLikeSelect) by running
  /// them over the insert delta and appending, instead of dropping them;
  /// everything else is invalidated. Requires the catalog that produced the
  /// update. `epoch` as in OnCatalogUpdate.
  void PropagateUpdate(Catalog* catalog, const std::vector<ColumnId>& cols,
                       uint64_t epoch = 0);

  /// Empties the pool (benchmark preparation; "empty the recycle pool").
  /// Safe between invocations, and — under external synchronisation — while
  /// invocations are in flight: their already-fetched results stay alive via
  /// shared ownership and subsequent lookups simply miss.
  void Clear();

  // --- introspection --------------------------------------------------------
  RecyclePool& pool() { return pool_; }
  const RecyclePool& pool() const { return pool_; }
  const RecyclerStats& stats() const { return stats_; }
  /// Zeroes the aggregate counters and the budget slot's borrow/denied/
  /// rebalance counters; pool contents, held budget and per-entry reuse
  /// statistics are untouched. Same synchronisation rules as Clear().
  void ResetStats() {
    stats_ = RecyclerStats();
    if (budget_slot_ != nullptr) budget_slot_->ResetCounters();
  }
  const RecyclerConfig& config() const { return cfg_; }

  /// Oldest active query id, or UINT64_MAX when no query is running (then
  /// nothing is protected). Exposed for tests.
  uint64_t ProtectedEpoch() const;

  /// Table I-style dump of the pool.
  std::string DumpPool(size_t max_entries = 24) const {
    return pool_.Dump(max_entries);
  }

 private:
  friend class ConcurrentRecycler;  ///< striped owner: cross-stripe ops

  /// One §6.3-refreshable selection-over-bind entry (kSelect, kUselect, or
  /// kLikeSelect), collected before the invalidation wave and re-admitted
  /// after it. Public to the striped owner, which routes each refresh to
  /// the stripe of its new key.
  struct Refresh {
    Opcode op;
    std::vector<MalValue> args;  // with arg0 rewritten to the fresh bind
    std::vector<MalValue> results;
    double cost_ms;
    std::vector<ColumnId> deps;
    uint64_t source_tid;
    int source_pc;
  };

  /// The read-side of PropagateUpdate: finds every affected select-over-bind
  /// entry in THIS pool, re-runs it over the insert delta, and returns the
  /// refreshed entries. `producer_of` resolves a bat id to its producing
  /// entry — across all stripes in striped mode (the bind entry that
  /// produced a selection's argument may live in a different stripe).
  std::vector<Refresh> CollectRefreshes(
      Catalog* catalog, const std::vector<ColumnId>& cols,
      const std::function<PoolEntry*(uint64_t)>& producer_of);

  /// Re-admits one refreshed entry (capacity-checked; counts `propagated`).
  void AdmitRefresh(Refresh r);

  void RecordHit(const QueryCtx& ctx, PoolEntry* e, bool exact);
  /// Admits an executed/subsumed result; returns true if stored.
  bool AdmitResult(const QueryCtx& ctx, const InstrView& instr,
                   const std::vector<MalValue>& results, double cost_ms,
                   const std::vector<ColumnId>& deps,
                   const std::vector<PoolEntry*>& extra_sources);
  /// Frees capacity for `bytes_needed` under the budget; returns false if
  /// the admission must be declined. Charges this stripe's budget slot and
  /// evicts only from this pool, so a stripe needs only its own lock. With
  /// one slot (standalone) the ledger never short-changes a slot below the
  /// whole budget, and this is the plain §4.3 entry-then-bytes eviction.
  bool EnsureCapacity(size_t bytes_needed);
  /// Returns held-above-usage budget capacity (left by cross-stripe byte
  /// releases, admission over-estimates, or evictions) to the free ledger.
  void ReturnBudgetSlack();
  /// Answers the budget's signals for this stripe: a slack request returns
  /// held-above-usage capacity (no eviction); pressure additionally sheds a
  /// stripe holding beyond its base share down to it by local eviction.
  void ServiceBudgetSignals();
  /// True when ServiceBudgetSignals has something to do (relaxed peeks; no
  /// epoch is consumed).
  bool BudgetSignalPending() const;
  /// The validity floor of an entry with dependency set `deps`: the newest
  /// col_epochs stamp over any dep (0 when none was ever touched). NOT the
  /// current epoch — an entry over untouched tables stays reusable by
  /// readers on older snapshots.
  uint64_t ValidFromFor(const std::vector<ColumnId>& deps) const;
  /// Records `epoch` as the touch epoch of every column in `cols` (no-op
  /// when epoch == 0, the legacy non-MVCC caller convention).
  void StampColumnEpochs(const std::vector<ColumnId>& cols, uint64_t epoch);
  void NoteEviction(const PoolEntry& e);
  void AddSubsetEdges(Opcode op, const std::vector<MalValue>& args,
                      const std::vector<MalValue>& results);
  size_t EstimateNewBytes(const std::vector<MalValue>& results) const;

  RecyclerConfig cfg_;
  std::unique_ptr<RecyclerSharedState> owned_shared_;  ///< null as a stripe
  RecyclerSharedState* shared_;
  /// Index in the striped group (0 standalone): the budget slot this
  /// instance charges and the actor of its budget events.
  size_t stripe_;
  PoolBudget::Slot* budget_slot_;  ///< null without a budget
  RecyclePool pool_;
  SubsumptionEngine subsume_;
  RecyclerStats stats_;
  QueryCtx cur_ctx_;        ///< context of the single-session convenience API
};

}  // namespace recycledb

#endif  // RECYCLEDB_CORE_RECYCLER_H_
