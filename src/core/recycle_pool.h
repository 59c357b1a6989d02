#ifndef RECYCLEDB_CORE_RECYCLE_POOL_H_
#define RECYCLEDB_CORE_RECYCLE_POOL_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "mal/opcode.h"
#include "mal/value.h"

namespace recycledb {

/// Sentinel snapshot epoch meaning "the newest committed state": the
/// default for contexts that never captured a snapshot (legacy shared-lock
/// execution, standalone recyclers, tests). Every epoch filter is vacuous
/// at this value, so non-MVCC behaviour is bit-identical to the pre-epoch
/// pool.
inline constexpr uint64_t kEpochLatest = ~0ull;

/// Subset relations between intermediates (the W ⊂ V test of semijoin
/// subsumption, §5.1), keyed by bat id. Kept outside RecyclePool so a
/// striped recycler can share ONE lattice across all stripe pools — a
/// selection admitted in one stripe must be visible to a semijoin probe in
/// another. Internally locked (a leaf mutex): edges are added and queried
/// under different stripes' pool locks concurrently. The relation is lossy
/// by design — it is bounded, and dropping edges only loses optional
/// subsumption opportunities, never correctness.
class SubsetLattice {
 public:
  /// Registers that `sub` (a bat id) is a subset of `super` (a bat id).
  void AddEdge(uint64_t sub_bat, uint64_t super_bat);
  bool IsSubsetOf(uint64_t sub_bat, uint64_t super_bat) const;
  void Clear();
  /// A copy of every registered (sub, super) edge, for tests that check
  /// each edge against the bats themselves.
  std::vector<std::pair<uint64_t, uint64_t>> Edges() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> subset_parents_;
};

/// One cached instruction instance: the instruction (opcode + resolved
/// argument values), its materialised results, and the execution / reuse
/// statistics driving the admission and eviction policies (paper §3.2).
///
/// The reuse statistics are atomics so ConcurrentRecycler can record exact
/// hits under a *shared* pool lock — the hot path of a hit-heavy concurrent
/// workload. Everything else (identity, arguments, results, admission
/// bookkeeping, lineage) is written once at admission and only ever removed
/// under the exclusive lock, so plain reads are safe wherever the entry is
/// reachable.
struct PoolEntry {
  uint64_t id = 0;
  Opcode op{};
  std::vector<MalValue> args;
  std::vector<MalValue> results;

  // --- cost & storage -------------------------------------------------------
  double cost_ms = 0;       ///< CPU time of the original computation
  size_t owned_bytes = 0;   ///< fresh column bytes this entry introduced
  size_t result_rows = 0;   ///< rows of the first bat result (cost model)

  // --- reuse statistics (atomic: updated under a shared lock on hits) -------
  std::atomic<int> reuses{0};
  std::atomic<bool> local_reuse{false};   ///< reused within admitting invocation
  std::atomic<bool> global_reuse{false};  ///< reused by a different invocation
  std::atomic<int> subsumption_uses{0};   ///< times used as subsumption source
  std::atomic<uint64_t> last_use_seq{0};  ///< logical clock at last use
  std::atomic<uint64_t> last_query{0};    ///< invocation id of last admit/use

  // --- bookkeeping (written at admission, under the exclusive lock) ---------
  uint64_t admit_seq = 0;     ///< logical clock at admission
  double admit_ms = 0;        ///< wall clock at admission (HP ageing)
  uint64_t admit_query = 0;   ///< invocation id that admitted it
  uint64_t source_tid = 0;    ///< template id of the source instruction
  int source_pc = 0;          ///< pc of the source instruction
  /// Snapshot-epoch validity tag (§6.3 under MVCC): the newest epoch at
  /// which any dependency column last changed, i.e. the first epoch whose
  /// readers may reuse this entry. A query running at snapshot epoch e only
  /// matches entries with valid_from <= e; entries over columns untouched
  /// since epoch 0 stay reusable by every reader regardless of commits
  /// elsewhere.
  uint64_t valid_from = 0;
  std::vector<ColumnId> deps; ///< persistent columns it derives from
  /// Pool entries consuming my results. Atomic because in a STRIPED pool an
  /// admission in one stripe adds a lineage/borrow edge onto a producer that
  /// may live in another stripe, without that stripe's lock. Leaf tests for
  /// eviction read it under just their own stripe's lock, so the count is
  /// advisory: a concurrent re-parenting can land after the test, which the
  /// eviction path tolerates (see EvictRound in policies.cc).
  std::atomic<int> children{0};

  PoolEntry() = default;
  // Atomics are neither movable nor copyable member-wise; entries transfer
  // by value only at admission (exclusive section) and in tests, where
  // plain value transfer is exactly right.
  PoolEntry(PoolEntry&& o) noexcept { *this = std::move(o); }
  PoolEntry(const PoolEntry& o) { *this = o; }
  PoolEntry& operator=(PoolEntry&& o) noexcept {
    CopyScalars(o);
    args = std::move(o.args);
    results = std::move(o.results);
    deps = std::move(o.deps);
    return *this;
  }
  PoolEntry& operator=(const PoolEntry& o) {
    CopyScalars(o);
    args = o.args;
    results = o.results;
    deps = o.deps;
    return *this;
  }

  bool IsLeaf() const { return children.load(std::memory_order_relaxed) == 0; }

 private:
  void CopyScalars(const PoolEntry& o) {
    id = o.id;
    op = o.op;
    cost_ms = o.cost_ms;
    owned_bytes = o.owned_bytes;
    result_rows = o.result_rows;
    reuses.store(o.reuses.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    local_reuse.store(o.local_reuse.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    global_reuse.store(o.global_reuse.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    subsumption_uses.store(o.subsumption_uses.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    last_use_seq.store(o.last_use_seq.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    last_query.store(o.last_query.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    admit_seq = o.admit_seq;
    admit_ms = o.admit_ms;
    admit_query = o.admit_query;
    source_tid = o.source_tid;
    source_pc = o.source_pc;
    valid_from = o.valid_from;
    children.store(o.children.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
};

class RecyclePool;

/// Bookkeeping that must span every stripe of a striped pool group (a
/// standalone RecyclePool owns a private instance, so its semantics are
/// unchanged): column-level memory attribution and borrow edges, the
/// bat→producer registry driving lineage (children) counters, and the
/// subset lattice. An intermediate admitted in one stripe may share columns
/// with — or be the producer of — an argument of an entry in another
/// stripe; keeping these maps per-stripe would double-count memory and lose
/// lineage edges, changing eviction decisions.
///
/// Guarded by one leaf mutex, taken inside RecyclePool's index/unindex and
/// lookup paths (never while calling back out). The PoolEntry pointers
/// stored here stay valid under concurrent striped use: every pointer to an
/// entry is scrubbed from these maps (UnindexEntry, under the mutex) BEFORE
/// the entry is freed, so a holder of the mutex either finds the entry
/// while it is still alive or does not find it at all. Invalidation and
/// Clear additionally hold every stripe lock; eviction removes entries
/// under just the owning stripe's lock, which the scrub-before-free
/// protocol makes safe.
struct PoolSharedState {
  struct ColTrack {
    PoolEntry* owner;         ///< nulled when the owning entry is removed
    RecyclePool* owner_pool;  ///< byte-attribution target (survives owner)
    int refs;
    size_t bytes;
  };
  std::mutex mu;
  std::unordered_map<const Column*, ColTrack> col_track;
  std::unordered_map<uint64_t, PoolEntry*> producer;  ///< bat id -> entry
  SubsetLattice lattice;
};

/// The recycle pool: an instruction cache with lineage (paper §4.1).
///
/// Responsibilities: exact-match lookup, dependency (children) tracking so
/// eviction respects lineage, per-column memory attribution (viewpoint
/// entries own no bytes, exactly like Table III's Bind/MarkT rows), subset
/// relations between intermediates (for semijoin subsumption), and
/// column-wise invalidation.
class RecyclePool {
 public:
  /// `shared` lets a striped recycler share one cross-stripe bookkeeping
  /// instance across all stripe pools; by default the pool owns a private
  /// one (the standalone single-pool case, semantics unchanged).
  explicit RecyclePool(PoolSharedState* shared = nullptr);
  RecyclePool(const RecyclePool&) = delete;
  RecyclePool& operator=(const RecyclePool&) = delete;

  /// Admits an entry (already filled in by the recycler). Returns its id.
  uint64_t Admit(PoolEntry entry);

  /// Exact match: same opcode, all argument values equal (bats by identity).
  /// Only reads the indexes, so it is safe under ConcurrentRecycler's shared
  /// lock (hit recording on the returned entry uses its atomic fields).
  /// Entries tagged valid_from > `visible_epoch` are skipped: they were
  /// produced from a catalog version newer than the probing query's
  /// snapshot. The default sees everything (legacy behaviour).
  PoolEntry* FindExact(Opcode op, const std::vector<MalValue>& args,
                       uint64_t visible_epoch = kEpochLatest);

  /// True when at least one live entry has `op` over first-argument bat
  /// `bat_id` (cheap subsumption-candidate existence probe; const for the
  /// shared-lock fast path). Deliberately NOT epoch-filtered — a false
  /// positive only sends the probe down the slow path, which filters.
  bool HasEntriesFor(Opcode op, uint64_t bat_id) const;

  /// All live entries with `op` whose first argument is the bat `bat_id`
  /// (subsumption candidate enumeration), epoch-filtered like FindExact.
  std::vector<PoolEntry*> FindByOpAndFirstArg(
      Opcode op, uint64_t bat_id, uint64_t visible_epoch = kEpochLatest);

  /// Entry producing the bat `bat_id`, or nullptr. In a striped group the
  /// producer may belong to a different stripe's pool.
  PoolEntry* ProducerOf(uint64_t bat_id);

  PoolEntry* Get(uint64_t id);

  /// Registers that `sub` (a bat id) is a subset of `super` (a bat id):
  /// the W ⊂ V test of semijoin subsumption walks these edges.
  void AddSubsetEdge(uint64_t sub_bat, uint64_t super_bat);
  bool IsSubsetOf(uint64_t sub_bat, uint64_t super_bat) const;

  /// Removes one entry. The caller must ensure it is a leaf (children == 0)
  /// unless `force` is set — bulk invalidation drops whole dependency
  /// subtrees, and stripe-local eviction tolerates a victim re-parented by
  /// a racing cross-stripe admission (removing such an entry is benign: the
  /// dependants' results stay alive via shared ownership and every
  /// dependent-bookkeeping decrement in UnindexEntry is guarded).
  void Remove(uint64_t id, bool force = false);

  /// Removes every entry whose dependency set intersects `cols`; returns
  /// the number of entries dropped. Dependents are dropped with their
  /// ancestors (their dependency sets are supersets, see interpreter dep
  /// propagation), so lineage consistency is preserved.
  size_t InvalidateColumns(const std::vector<ColumnId>& cols);

  /// Drops everything.
  void Clear();

  // --- introspection --------------------------------------------------------
  size_t num_entries() const { return entries_.size(); }
  /// Bytes attributed to THIS pool: every tracked column is charged to the
  /// pool whose entry introduced it, so the per-stripe totals of a striped
  /// group sum exactly to the unstriped pool's total.
  size_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  /// Live entries, unordered. Pointers valid until the next mutation.
  std::vector<PoolEntry*> Entries();
  std::vector<const PoolEntry*> Entries() const;

  /// Leaf entries eligible for eviction. Entries whose `last_query` is at or
  /// after `protected_epoch` are excluded unless `include_protected`: with a
  /// single running query the epoch is that query's id, which reproduces the
  /// paper's protect-current-query rule (§4.3); with N concurrent queries the
  /// epoch is the oldest running query's id, so every entry a running query
  /// may still touch is protected.
  std::vector<PoolEntry*> Leaves(uint64_t protected_epoch,
                                 bool include_protected);

  /// Bytes and entry counts that have seen at least one reuse (the
  /// "reused memory/lines" metrics of Figs. 7-8).
  size_t ReusedBytes() const;
  size_t ReusedEntries() const;

  /// Table I-style rendering of the pool head.
  std::string Dump(size_t max_entries = 24) const;

  /// The exact-match key hash over (opcode, argument values). Public because
  /// the striped recycler uses it as (part of) the stripe-selection key.
  static size_t MatchHash(Opcode op, const std::vector<MalValue>& args);

  /// Timing-free identity of one entry (opcode, result rows, owned bytes,
  /// reuse counters, dependency count). Two pools whose sorted signature
  /// multisets are equal hold equivalent contents — the parity tests compare
  /// a striped pool against an unstriped one with this, since bat ids and
  /// measured costs differ between otherwise identical runs.
  static std::string EntrySignature(const PoolEntry& e);

 private:
  void IndexEntry(PoolEntry* e);
  void UnindexEntry(PoolEntry* e);

  std::unordered_map<uint64_t, PoolEntry> entries_;
  std::unordered_multimap<size_t, uint64_t> match_index_;
  // (op, first-arg bat id) -> entry ids, for subsumption candidates.
  std::map<std::pair<int, uint64_t>, std::vector<uint64_t>> op_arg_index_;
  std::unique_ptr<PoolSharedState> owned_shared_;  ///< null when sharing
  PoolSharedState* shared_;
  /// Mutated only under shared_->mu; atomic so introspection from any
  /// thread holding this pool's (stripe) lock reads a torn-free value.
  std::atomic<size_t> total_bytes_{0};
  uint64_t next_id_ = 1;
};

}  // namespace recycledb

#endif  // RECYCLEDB_CORE_RECYCLE_POOL_H_
