#ifndef RECYCLEDB_CORE_CONCURRENT_RECYCLER_H_
#define RECYCLEDB_CORE_CONCURRENT_RECYCLER_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/recycler.h"
#include "obs/event_ring.h"
#include "obs/trace.h"

namespace recycledb {

/// Thread-safe shell around the shared recycle pool that all workers of a
/// QueryService populate and reuse from — STRIPED: the pool is partitioned
/// into `RecyclerConfig::pool_stripes` sub-pools (default 16), each a full
/// Recycler core with its own shared_mutex, LRU/byte accounting, and
/// statistics. Admission, eviction, and subsumption in different stripes
/// proceed in parallel; everything cross-stripe stays exact through shared
/// state and fixed-order lock acquisition.
///
/// ## Stripe selection
///
/// An instruction's stripe is a hash of its identity — but NOT the full
/// match fingerprint: instructions whose first argument is a bat are keyed
/// by (SubsumptionCandidateOp(op), first-arg bat id), so an instruction and
/// every pool entry that could subsume it land in the SAME stripe (e.g. all
/// kSelect/kUselect over one column fall together, §5.1 candidate sets are
/// intra-stripe). Everything else (bind, scalar-only args) is keyed by the
/// full match hash. Exact matching only needs "same key → same stripe",
/// which both cases guarantee.
///
/// ## Locking protocol (per-stripe shared_mutex)
///
///  - exact hit (shared lock on one stripe): probe reads the stripe's
///    indexes, reuse stats are per-entry atomics, aggregates are per-stripe
///    atomics on this side. The credit ledger is concurrent (atomic
///    debit/refund), so CREDIT/ADAPT hits take this path too — the ledger
///    no longer forces an exclusive upgrade.
///  - pure miss (shared lock on one stripe): failed probe plus a failed
///    subsumption-candidate existence check; the instruction then executes
///    OUTSIDE any lock, concurrently with everything.
///  - subsumption (exclusive lock on the ONE stripe holding the probe's
///    candidate set): the DP reads candidates, admits the rewritten result
///    (same key, same stripe).
///  - recycleExit / admission (exclusive lock on the target stripe). Under
///    a byte/entry budget this INCLUDES the budget enforcement: the stripe
///    charges its budget slot (max/N fair share, borrowing idle capacity
///    through the atomic ledger) and evicts within itself only — budgeted
///    admission never leaves the stripe lock.
///  - Cross-stripe operations — Clear, ResetStats, catalog invalidation and
///    update propagation — acquire every stripe's lock in FIXED INDEX ORDER
///    (deadlock-free).
///  - stats()/introspection: per-stripe shared locks, taken one at a time.
///
/// Victims are chosen stripe-locally, so a bounded pool with N > 1 stripes
/// may evict differently from an unstriped one; with pool_stripes = 1 the
/// one budget slot covers the whole budget and decisions match the
/// unstriped pool exactly.
///
/// ## Budget
///
/// The byte/entry budget is a PoolBudget ledger (core/pool_budget.h) in the
/// shared state, with one slot per stripe. A stripe's held capacity always
/// covers its live bytes/entries; admission (Recycler::EnsureCapacity, the
/// same code a standalone Recycler runs) acquires the shortfall from the
/// free ledger first and falls back to stripe-local eviction (§4.3 policies
/// over this stripe's leaves only). Held capacity freed by cross-stripe
/// releases, over-estimation, or eviction is retained as slack that covers
/// later admissions ledger-free (the steady admit/evict cycle performs no
/// ledger traffic); it returns to the free ledger when an admission is
/// declined or when the budget signals pressure (a starved under-share
/// stripe), at which point a stripe holding beyond its fair share also
/// sheds down to it by local eviction — the borrow/rebalance protocol that
/// keeps Σ stripe bytes ≤ budget without any all-stripe lock.
///
/// Shared across stripes (RecyclerSharedState): the logical use clock, the
/// invocation registry (so eviction protection reads one global epoch —
/// each stripe evaluates it independently at its own eviction time, i.e.
/// per-stripe epochs with a single source of truth), the concurrent credit
/// ledger, and the subset lattice (selection results admitted in one stripe
/// must be visible to semijoin-subsumption probes in another).
///
/// Entries handed to a running query stay alive via shared ownership even
/// if evicted or invalidated mid-flight, so the epoch rule is a
/// reuse-quality policy, not a memory-safety requirement.
class ConcurrentRecycler {
 public:
  explicit ConcurrentRecycler(RecyclerConfig cfg = {});

  /// Per-worker RecyclerHook facade: holds the worker's current QueryCtx and
  /// forwards to the shared striped pool under the locking protocol above.
  /// One Session per interpreter; a Session itself is single-threaded.
  class Session : public RecyclerHook {
   public:
    explicit Session(ConcurrentRecycler* owner) : owner_(owner) {}

    void BeginQuery(const Program& prog) override {
      ctx_ = owner_->SessionBegin(prog);
      ctx_.epoch = epoch_;
    }
    void EndQuery() override { owner_->SessionEnd(ctx_); }
    bool OnEntry(const InstrView& instr,
                 std::vector<MalValue>* results) override {
      return owner_->SessionOnEntry(ctx_, instr, results, trace_);
    }
    void OnExit(const InstrView& instr, const std::vector<MalValue>& results,
                double cpu_ms, const std::vector<ColumnId>& deps) override {
      owner_->SessionOnExit(ctx_, instr, results, cpu_ms, deps, trace_);
    }

    /// Attaches a per-query decision-record sink for the NEXT invocations
    /// on this session (null detaches). The untraced hot paths pay exactly
    /// one null check; the observer owns the trace's lifetime and must keep
    /// it alive until it detaches.
    void set_trace(obs::QueryTrace* trace) { trace_ = trace; }

    /// Pins the snapshot epoch the NEXT invocations on this session run
    /// against (kEpochLatest, the default, reproduces pre-MVCC behaviour:
    /// see the whole pool, admit unconditionally). QueryService sets this
    /// per query from the task's captured catalog snapshot.
    void set_epoch(uint64_t epoch) { epoch_ = epoch; }

   private:
    ConcurrentRecycler* owner_;
    QueryCtx ctx_;
    obs::QueryTrace* trace_ = nullptr;
    uint64_t epoch_ = kEpochLatest;
  };

  std::unique_ptr<Session> NewSession() {
    return std::make_unique<Session>(this);
  }

  // --- update synchronisation (all stripes, fixed order) --------------------
  // `epoch`, when non-zero, is the snapshot epoch the triggering commit is
  // about to publish (stamped into the shared col_epochs map before the
  // invalidation/refresh wave; 0 = legacy caller, no stamping).
  void OnCatalogUpdate(const std::vector<ColumnId>& cols, uint64_t epoch = 0);
  void PropagateUpdate(Catalog* catalog, const std::vector<ColumnId>& cols,
                       uint64_t epoch = 0);

  /// Empties the pool. Safe at any time, including while queries run: their
  /// already-fetched results stay alive via shared ownership and later
  /// lookups simply miss.
  void Clear();
  void ResetStats();

  // --- introspection --------------------------------------------------------

  /// Aggregate statistics: the exact sum of every stripe's core counters
  /// plus the shared-lock fast-path counters (recorded on this side so the
  /// fast paths never write a stripe's plain fields).
  RecyclerStats stats() const;
  size_t pool_entries() const;
  size_t pool_bytes() const;
  std::string DumpPool(size_t max_entries = 24) const;
  const RecyclerConfig& config() const { return cfg_; }

  /// Per-stripe occupancy and contention counters, for observing the
  /// striping win without a profiler (surfaced by ServiceStats and the SQL
  /// shell's `.stats`). `excl_acquisitions` counts exclusive (writer) lock
  /// takes of the stripe; `shared_acquisitions` counts fast-path probes.
  struct StripeStats {
    size_t entries = 0;
    size_t bytes = 0;
    uint64_t excl_acquisitions = 0;
    uint64_t shared_acquisitions = 0;
    uint64_t hits = 0;      ///< exact + subsumed hits resolved in this stripe
    uint64_t admitted = 0;
    uint64_t evicted = 0;
    // Budget-slot state (zero without a budget): the stripe's fair share,
    // what it currently holds from the ledger, and how often it borrowed
    // beyond the share / shed back down.
    size_t budget_base_bytes = 0;
    size_t budget_held_bytes = 0;
    uint64_t borrows = 0;
    uint64_t borrow_denied = 0;
    uint64_t rebalances = 0;
  };
  std::vector<StripeStats> stripe_stats() const;
  size_t num_stripes() const { return stripes_.size(); }

  /// Times any operation locked EVERY stripe (Clear/ResetStats, catalog
  /// invalidation, propagation). Admission never does, so a budgeted
  /// admission-only workload leaves this flat.
  uint64_t all_stripe_ops() const {
    return all_stripe_ops_.load(std::memory_order_relaxed);
  }

  /// The pool's budget ledger, or null when no budget is configured.
  const PoolBudget* budget() const { return shared_.budget.get(); }

  /// Advances whenever a stripe under its base share was starved of budget
  /// (always 0 without a budget). The network server's admission control
  /// watches it.
  uint64_t pressure_epoch() const {
    return shared_.budget != nullptr ? shared_.budget->pressure_epoch() : 0;
  }

  /// Attaches a sink for budget events (borrows, pressure sheds, slack
  /// returns). Call before concurrent traffic; the ring must outlive the
  /// recycler. Null (the default) records nothing.
  void set_event_ring(obs::EventRing* events) { shared_.events = events; }

  /// The stripe an instruction with this identity belongs to (exposed for
  /// tests that pin fingerprints to stripes).
  size_t StripeOf(Opcode op, const std::vector<MalValue>& args) const;

  /// Sorted multiset of RecyclePool::EntrySignature over every stripe, for
  /// parity tests against an unstriped Recycler pool.
  std::vector<std::string> ContentSignature() const;

  /// The bat results of every live entry, over every stripe (for tests
  /// that check results against their values).
  std::vector<BatPtr> ResultBats() const;

  /// The (sub, super) bat-id edges of the subset lattice the stripes share.
  std::vector<std::pair<uint64_t, uint64_t>> SubsetEdges() const {
    return shared_.pool_shared.lattice.Edges();
  }

 private:
  friend class Session;

  struct Stripe {
    mutable std::shared_mutex mu;
    std::unique_ptr<Recycler> core;
    // Contention counters.
    std::atomic<uint64_t> excl_acq{0};
    std::atomic<uint64_t> shared_acq{0};
    // Monitored executions resolved entirely on this stripe's shared-lock
    // fast paths (pure misses and exact hits). Folded into stats() so
    // aggregates stay exact without the fast paths writing the core's
    // plain counters.
    std::atomic<uint64_t> fast_misses{0};
    std::atomic<uint64_t> fast_hits{0};
    std::atomic<uint64_t> fast_local_hits{0};
    std::atomic<uint64_t> fast_global_hits{0};
    std::atomic<uint64_t> fast_saved_ns{0};
  };

  QueryCtx SessionBegin(const Program& prog);
  void SessionEnd(const QueryCtx& ctx);
  bool SessionOnEntry(const QueryCtx& ctx, const RecyclerHook::InstrView& instr,
                      std::vector<MalValue>* results, obs::QueryTrace* trace);
  void SessionOnExit(const QueryCtx& ctx, const RecyclerHook::InstrView& instr,
                     const std::vector<MalValue>& results, double cpu_ms,
                     const std::vector<ColumnId>& deps,
                     obs::QueryTrace* trace);

  /// Emits decision records for one traced slow-path call from the stats
  /// delta it left behind on the stripe (`before`/`bytes_before` read under
  /// the same exclusive lock, which confines every mutation of the call to
  /// the stripe, so the delta is exact). `hit`/`hit_bytes` describe the
  /// entry-side outcome; pass hit=false, emit_probe=false for the exit side
  /// (which has no probe outcome of its own).
  void AppendTraceDelta(obs::QueryTrace* trace,
                        const RecyclerHook::InstrView& instr, size_t stripe_idx,
                        const RecyclerStats& before, size_t bytes_before,
                        bool emit_probe, bool hit, uint64_t hit_bytes);

  /// Exclusively locks every stripe in index order (the global lock-order
  /// invariant: stripe i is only ever acquired while holding 0..i-1 or
  /// nothing). Counts one exclusive acquisition per stripe.
  std::vector<std::unique_lock<std::shared_mutex>> LockAllExclusive();

  /// Probe-path service point: if the budget signalled since this stripe's
  /// last look AND the stripe has something to give, upgrade to the
  /// stripe's exclusive lock and respond (Recycler::ServiceBudgetSignals).
  /// This is what lets hit-heavy or admission-idle stripes release trapped
  /// capacity; a stripe that is never probed at all only returns capacity
  /// at the next cross-stripe maintenance op (commit invalidation or
  /// propagation, Clear).
  void MaybeServicePressure(size_t stripe_idx);

  RecyclerConfig cfg_;
  RecyclerSharedState shared_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> all_stripe_ops_{0};
};

}  // namespace recycledb

#endif  // RECYCLEDB_CORE_CONCURRENT_RECYCLER_H_
