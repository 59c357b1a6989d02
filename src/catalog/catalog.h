#ifndef RECYCLEDB_CATALOG_CATALOG_H_
#define RECYCLEDB_CATALOG_CATALOG_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "util/status.h"

namespace recycledb {

/// Identifies a persistent column (or a join index, which gets a pseudo
/// column id). The recycler tracks per-intermediate dependency sets of
/// ColumnIds to invalidate exactly the affected pool entries (paper §6.4:
/// column-wise immediate invalidation).
struct ColumnId {
  int32_t table = -1;
  int32_t col = -1;

  bool operator==(const ColumnId& o) const {
    return table == o.table && col == o.col;
  }
  bool operator<(const ColumnId& o) const {
    return table != o.table ? table < o.table : col < o.col;
  }
};

/// A persistent table: named, typed columns of equal length. Columns are
/// immutable snapshots; updates install fresh column objects (delta merge),
/// which is what lets bind caching + recycler invalidation stay consistent.
class Table {
 public:
  Table(int32_t id, std::string name) : id_(id), name_(std::move(name)) {}

  int32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return defs_.size(); }
  const std::string& column_name(int i) const { return defs_[i].name; }
  TypeTag column_type(int i) const { return defs_[i].type; }
  int FindColumn(const std::string& name) const;
  const ColumnPtr& column(int i) const { return cols_[i]; }

 private:
  friend class Catalog;
  struct ColumnDef {
    std::string name;
    TypeTag type;
  };

  int32_t id_;
  std::string name_;
  std::vector<ColumnDef> defs_;
  std::vector<ColumnPtr> cols_;
  size_t rows_ = 0;
};

/// An immutable view of the committed catalog at one snapshot epoch: every
/// loaded column and join index resolved to the BAT it had when the
/// snapshot was published. Snapshots are built through the catalog's bind
/// caches, so a column untouched between two epochs resolves to the *same*
/// BAT object in both snapshots — cross-epoch identity is what lets
/// epoch-tagged recycler entries keep matching for readers on older
/// snapshots.
///
/// A query that captured a snapshot resolves every bind and dependency id
/// through it and never touches the mutable catalog again: commits may
/// install new versions concurrently without the reader taking any lock.
class CatalogSnapshot {
 public:
  /// The monotonically increasing commit epoch this snapshot was published
  /// at (0 = the empty initial catalog).
  uint64_t epoch() const { return epoch_; }

  Result<BatPtr> BindColumn(const std::string& table,
                            const std::string& column) const;
  Result<BatPtr> BindIndex(const std::string& index) const;
  Result<ColumnId> GetColumnId(const std::string& table,
                               const std::string& column) const;
  Result<ColumnId> GetIndexId(const std::string& index) const;

 private:
  friend class Catalog;
  struct View {
    ColumnId id;
    BatPtr bat;
  };

  uint64_t epoch_ = 0;
  std::map<std::pair<std::string, std::string>, View> cols_;
  std::map<std::string, View> indices_;
};

using CatalogSnapshotPtr = std::shared_ptr<const CatalogSnapshot>;

/// Pending DML against one table: MonetDB-style insert/delete deltas that
/// are applied at commit (paper §6: delta-based update processing).
struct PendingDelta {
  std::vector<std::vector<Scalar>> inserts;  // row-major
  std::vector<Oid> deletes;                  // row oids in committed order
  bool Empty() const { return inserts.empty() && deletes.empty(); }
};

/// A transaction's private write set: per-table pending deltas accumulated
/// by INSERT/DELETE/UPDATE statements, invisible to every other session
/// until Catalog::CommitWrite installs them atomically. Delete oids are in
/// the row coordinates of the transaction's BEGIN snapshot; CommitWrite
/// remaps them through the commits that landed since (or fails with
/// WriteConflict when one of those commits touched the same row —
/// first-writer-wins). Discarding the object IS rollback: nothing in the
/// catalog ever saw it.
struct TxnWriteSet {
  /// The catalog epoch current when the transaction began; conflict
  /// detection considers exactly the commits published after it.
  uint64_t begin_epoch = 0;
  /// Per-table deltas, keyed by table id. Delete oids are begin-snapshot
  /// row coordinates, deduplicated and kept in queue order.
  std::map<int32_t, PendingDelta> deltas;
  /// Bumped on every mutation of the write set; sessions use it to cache
  /// the derived overlay snapshot across statements.
  uint64_t version = 0;

  bool Empty() const {
    for (const auto& [tid, d] : deltas) {
      if (!d.Empty()) return false;
    }
    return true;
  }
};

/// Where one Catalog::CommitWrite spent its time, in microseconds, phase
/// by phase in the order they run.
struct CommitPhases {
  double merge_us = 0;    ///< conflict remap and the delta merge of columns
  double index_us = 0;    ///< FK-index rebuilds over the touched tables
  double pool_us = 0;     ///< the update listener (pool, plan cache)
  double publish_us = 0;  ///< commit history and the snapshot publish
};

/// The database catalog: tables, persistent columns, foreign-key join
/// indices, and the update path. Bind results are cached so repeated binds
/// of an unchanged column return the *same* BAT object — persistent bats
/// have stable identity, which bottom-up sequence matching relies on.
///
/// Thread-safety: the read path (BindColumn, BindIndex, FindTable,
/// GetColumnId, GetIndexId, LastInsertDelta, LastCommitInsertOnly) is safe
/// to call from many threads concurrently — the bind caches, the only state
/// reads mutate, are guarded internally. DDL and the DML/Commit path mutate
/// tables and must be externally serialised against all readers;
/// QueryService enforces this with its update read-write lock.
class Catalog {
 public:
  Catalog();
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // --- DDL -----------------------------------------------------------------

  /// Creates an empty table; returns its id.
  int32_t CreateTable(const std::string& name,
                      const std::vector<std::pair<std::string, TypeTag>>& cols);

  /// Installs column data during bulk load. All columns must end up with
  /// equal length. T is the physical type of the declared column type.
  /// String data is interned into a fresh deduplicated heap.
  template <typename T>
  Status LoadColumn(const std::string& table, const std::string& column,
                    std::vector<T> data, bool sorted = false,
                    bool key = false);

  /// Registers a foreign-key join index `name`: for each row of
  /// `child_table`, the oid (position) of the matching `parent_table` row,
  /// computed by matching `child_key` to `parent_key`. Rebuilt on commit.
  Status RegisterFkIndex(const std::string& name, const std::string& child_table,
                         const std::string& child_key,
                         const std::string& parent_table,
                         const std::string& parent_key);

  Status DropTable(const std::string& name);

  // --- access --------------------------------------------------------------

  Result<BatPtr> BindColumn(const std::string& table,
                            const std::string& column);
  Result<BatPtr> BindIndex(const std::string& index);

  /// The newest published snapshot. Lock-free (atomic shared_ptr load) and
  /// safe to call concurrently with any mutator: mutators publish a fresh
  /// immutable snapshot as their last step, so a reader either sees the
  /// whole mutation or none of it. Never null.
  CatalogSnapshotPtr Snapshot() const;

  /// The current snapshot epoch: bumped once per published mutation
  /// (commit, DDL, bulk load). Exported as the `snapshot_epoch` gauge.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  const Table* FindTable(const std::string& name) const;
  Result<ColumnId> GetColumnId(const std::string& table,
                               const std::string& column) const;
  /// The pseudo column id under which a join index registers.
  Result<ColumnId> GetIndexId(const std::string& index) const;

  /// The registered FK join index implementing the N:1 hop
  /// `child_table.child_col -> parent_table.parent_col`, by name. The SQL
  /// binder uses this to lower INNER JOIN ... ON clauses; like the other
  /// readers it must be externally serialised against DDL.
  Result<std::string> FindFkIndex(const std::string& child_table,
                                  const std::string& child_col,
                                  const std::string& parent_table,
                                  const std::string& parent_col) const;

  // --- DML (transaction write sets) ----------------------------------------

  /// Opens a write set at the current epoch. The single mutator entry point:
  /// every INSERT/DELETE/UPDATE accumulates in a write set and only
  /// CommitWrite touches the catalog. Lock-free (atomic epoch load).
  TxnWriteSet BeginWrite() const;

  /// Queues row inserts into the write set's delta for `table`. Only reads
  /// catalog schema — safe under a shared hold of the service's update lock,
  /// concurrently with other sessions' statements.
  Status Append(TxnWriteSet* ws, const std::string& table,
                std::vector<std::vector<Scalar>> rows);

  /// Queues row deletions by oid in the coordinates of the transaction's
  /// OVERLAY view (its begin snapshot with the write set's own deltas
  /// applied — what an in-transaction victim scan yields). `base` is the
  /// transaction's begin snapshot, which fixes the kept-row boundary (null:
  /// the live committed state is the base — the autocommit path, under the
  /// exclusive lock). Oids below the surviving-base-row count map back
  /// through the write set's queued deletes to begin-snapshot coordinates;
  /// oids beyond it un-queue the transaction's own pending inserts.
  /// `newly_queued`, when non-null, receives how many rows this call
  /// actually removed or queued.
  Status Delete(TxnWriteSet* ws, const std::string& table,
                std::vector<Oid> overlay_oids,
                const CatalogSnapshot* base = nullptr,
                size_t* newly_queued = nullptr);

  /// Installs the write set atomically: first-writer-wins conflict check
  /// (Status::WriteConflict when a commit after ws->begin_epoch deleted or
  /// updated one of ws's victim rows; the catalog is untouched on failure),
  /// then the delta merge — inserts appended, deletions compacted, join
  /// indices rebuilt, bind caches refreshed, the update listener notified
  /// ONCE with every invalidated ColumnId, and the next snapshot epoch
  /// published. A rebuilt join index equal to the current one keeps its
  /// column and bound BAT and is not reported to the listener, so pool
  /// entries over it survive. The write set is cleared on success;
  /// `phases`, when non-null, receives the time each phase took. Must be
  /// externally serialised like every mutator (the service's exclusive
  /// update lock).
  Status CommitWrite(TxnWriteSet* ws, CommitPhases* phases = nullptr);

  /// The transaction's read view: `base` (its begin snapshot) with the
  /// write set's deltas merged in — fresh columns for every touched table
  /// (deleted rows compacted out, pending inserts appended) and join
  /// indices over touched tables rebuilt. Untouched tables keep the base
  /// snapshot's BATs (and their identities). Reads schema metadata, so the
  /// caller must hold the update lock shared; the returned snapshot carries
  /// the base epoch and is immutable like any other.
  Result<CatalogSnapshotPtr> OverlaySnapshot(const CatalogSnapshotPtr& base,
                                             const TxnWriteSet& ws);

  /// Insert deltas of the last committed transaction, per table/column —
  /// consumed by the recycler's update-propagation extension (§6.3).
  Result<BatPtr> LastInsertDelta(const std::string& table,
                                 const std::string& column) const;

  /// True iff the table's last commit consisted of inserts only (no
  /// deletions), which is the precondition for sound insert propagation.
  bool LastCommitInsertOnly(const std::string& table) const;

  /// What kind of mutation the update listener is being told about. Data
  /// commits change column contents but never plan shape (binds resolve by
  /// name at run time), so epoch-tagged caches can refresh instead of
  /// evict; schema changes (DropTable) make compiled artifacts over the
  /// touched tables structurally stale and force eviction.
  enum class UpdateKind { kData, kSchema };

  /// Registered listener receives the ColumnIds invalidated by a commit,
  /// plus whether the mutation was data-only or a schema change.
  void SetUpdateListener(
      std::function<void(const std::vector<ColumnId>&, UpdateKind)> fn) {
    listener_ = std::move(fn);
  }

  /// Whether an update listener is currently installed. QueryService uses
  /// this to reject a second service attaching to the same catalog, which
  /// would silently disconnect the first one's invalidation hook.
  bool HasUpdateListener() const { return static_cast<bool>(listener_); }

  size_t TotalPersistentBytes() const;

 private:
  struct FkIndex {
    std::string name;
    int32_t child_table, parent_table;
    int child_key, parent_key;
    ColumnPtr map;  // oid positions into parent, aligned with child rows
  };

  /// One committed transaction's effect on a table's row coordinates, kept
  /// for first-writer-wins conflict detection: a later CommitWrite whose
  /// write set began before `epoch` must remap its begin-coordinate victim
  /// oids through `deleted_sorted` (conflict when one matches; otherwise
  /// shift down by the deletions ordered before it). Insert-only commits
  /// never renumber or remove rows, so they are not recorded.
  struct CommitRecord {
    uint64_t epoch = 0;               ///< epoch the commit published
    std::vector<Oid> deleted_sorted;  ///< oids deleted, pre-commit coords
  };

  /// Rebuilds idx->map from the current key columns. When the rebuilt map
  /// equals the current one, the current column stays and `*changed`
  /// (when non-null) is set false.
  Status RebuildIndex(FkIndex* idx, bool* changed = nullptr);
  /// Builds the [child row -> parent row] FK map: each child key maps to
  /// the first parent row with an equal key, or to nil when there is none.
  /// A nil key never matches. A parent key flagged sorted and key whose
  /// DirectSpan is below |child| + |parent| is looked up through a position
  /// array, any other through a HashIndexT. The overlay path reuses it over
  /// merged transaction-local columns.
  static ColumnPtr BuildFkMap(const Column& child_key,
                              const Column& parent_key);
  void InvalidateBindCache(int32_t table_id);
  /// Bumps the epoch and atomically installs a fresh immutable snapshot of
  /// every loaded column/index (resolved through the bind caches, so
  /// untouched data keeps its BAT identity across epochs). Called as the
  /// last step of every mutator, under the caller's external serialisation
  /// — in particular AFTER Commit fires the update listener, so pool and
  /// plan-cache maintenance is already done when the new epoch becomes
  /// visible to submissions.
  void PublishSnapshot();

  std::vector<std::unique_ptr<Table>> tables_;
  std::map<std::string, int32_t> table_by_name_;
  std::vector<FkIndex> indices_;
  std::map<std::string, int> index_by_name_;
  /// Per-table history of delete-carrying commits (bounded to
  /// kCommitHistoryCap entries, oldest pruned), plus the epoch floor below
  /// which history is no longer retained — a write set with deletes that
  /// began before the floor conflicts conservatively. Bulk loads reset the
  /// floor: they renumber rows without a commit record.
  std::map<int32_t, std::vector<CommitRecord>> commit_history_;
  std::map<int32_t, uint64_t> history_floor_;
  // Bind caches: stable BAT identities for persistent data. Guarded by
  // bind_mu_ so concurrent readers can populate them safely.
  mutable std::mutex bind_mu_;
  std::map<std::pair<int32_t, int>, BatPtr> bind_cache_;
  std::map<int, BatPtr> index_bind_cache_;
  std::function<void(const std::vector<ColumnId>&, UpdateKind)> listener_;
  // Last committed insert deltas: (table, col) -> delta bat with head oids
  // continuing the pre-commit row numbering.
  std::map<std::pair<int32_t, int>, BatPtr> last_insert_delta_;
  std::map<int32_t, bool> last_commit_insert_only_;
  /// MVCC state: the published-snapshot counter and the newest snapshot,
  /// accessed with the C++17 atomic shared_ptr free functions (readers are
  /// lock-free; writers are externally serialised like all mutators).
  std::atomic<uint64_t> epoch_{0};
  std::shared_ptr<const CatalogSnapshot> snapshot_;
};

/// Pseudo column id space for join indices: col = kIndexColBase + index slot.
inline constexpr int32_t kIndexColBase = 1 << 20;

/// Delete-carrying commits retained per table for conflict remapping; a
/// transaction older than the retained window conflicts conservatively.
inline constexpr size_t kCommitHistoryCap = 128;

}  // namespace recycledb

#endif  // RECYCLEDB_CATALOG_CATALOG_H_
