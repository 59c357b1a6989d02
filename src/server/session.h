#ifndef RECYCLEDB_SERVER_SESSION_H_
#define RECYCLEDB_SERVER_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "catalog/catalog.h"

namespace recycledb {

/// Per-submission options of QueryService::Submit.
struct SubmitOptions {
  /// Force a full QueryTrace for this query (span tree + per-instruction
  /// recycler decision records), regardless of sampling. Equivalent to the
  /// `TRACE SELECT ...` statement prefix.
  bool trace = false;
  /// Wall-clock budget in milliseconds from submission; a query still queued
  /// past its deadline resolves with Status::DeadlineExceeded instead of
  /// running. 0 (the default) = no deadline.
  double deadline_ms = 0;
};

/// The per-client execution context the Submit API runs requests under: owns
/// autocommit, the trace-everything flag, snapshot pinning, and — since the
/// transaction redesign — the open transaction itself (begin snapshot +
/// private write set + cached overlay). One Session per client connection
/// (the network server keeps one per Conn). All methods are thread-safe — a
/// session may be shared between a connection's reader thread and the
/// service's DML executor.
class Session {
 public:
  /// The state of an open multi-statement transaction. Owned by the session
  /// and only ever manipulated by QueryService under the service's update
  /// lock discipline; `ws` is invisible to every other session until commit.
  struct Txn {
    TxnWriteSet ws;
    /// The immutable snapshot the transaction reads from (and whose row
    /// coordinates the write set's delete oids are in).
    CatalogSnapshotPtr begin_snapshot;
    /// Overlay of begin_snapshot + ws, rebuilt lazily when `overlay_version`
    /// falls behind ws.version; what in-transaction SELECTs execute against.
    CatalogSnapshotPtr overlay;
    uint64_t overlay_version = 0;
  };

  /// When set, every successful INSERT/DELETE executed through this session
  /// commits immediately (inside the same exclusive update hold, so the
  /// statement and its commit are atomic w.r.t. other sessions). When
  /// cleared, deltas stay pending until an explicit COMMIT.
  bool autocommit() const {
    return autocommit_.load(std::memory_order_acquire);
  }
  void set_autocommit(bool on) {
    autocommit_.store(on, std::memory_order_release);
  }

  /// When set, every SELECT submitted through this session is traced (as if
  /// SubmitOptions::trace were set on each).
  bool trace_all() const { return trace_all_.load(std::memory_order_acquire); }
  void set_trace_all(bool on) {
    trace_all_.store(on, std::memory_order_release);
  }

  /// Pins `snap` as the snapshot every subsequent SELECT on this session
  /// reads from, until Unpin() — repeatable reads across statements.
  /// Unpinned sessions capture the newest published snapshot per statement.
  void Pin(CatalogSnapshotPtr snap) {
    std::lock_guard<std::mutex> lock(mu_);
    pinned_ = std::move(snap);
  }
  void Unpin() {
    std::lock_guard<std::mutex> lock(mu_);
    pinned_.reset();
  }
  /// The pinned snapshot, or null when unpinned.
  CatalogSnapshotPtr pinned() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pinned_;
  }

  /// True while a BEGIN is open on this session.
  bool in_txn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return txn_ != nullptr;
  }

  /// Opens a transaction on this session; the caller provides the begin
  /// state. Returns false (and changes nothing) if one is already open.
  bool BeginTxn(TxnWriteSet ws, CatalogSnapshotPtr begin_snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    if (txn_ != nullptr) return false;
    txn_ = std::make_unique<Txn>();
    txn_->ws = std::move(ws);
    txn_->begin_snapshot = std::move(begin_snapshot);
    return true;
  }

  /// Closes the open transaction and returns its state (null when none is
  /// open). Dropping the returned object IS rollback: the write set never
  /// touched the catalog. Commit hands ws to Catalog::CommitWrite first.
  std::unique_ptr<Txn> TakeTxn() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(txn_);
  }

  /// Runs `fn` on the open transaction under the session lock (no-op and
  /// false when none is open). QueryService uses this to accumulate deltas
  /// and to refresh the cached overlay without exposing the Txn pointer.
  template <typename Fn>
  bool WithTxn(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    if (txn_ == nullptr) return false;
    fn(txn_.get());
    return true;
  }

 private:
  std::atomic<bool> autocommit_{true};
  std::atomic<bool> trace_all_{false};
  mutable std::mutex mu_;
  CatalogSnapshotPtr pinned_;
  std::unique_ptr<Txn> txn_;
};

/// One unit of work for QueryService::Submit: a SQL statement, the session
/// it executes under, and the per-submission options. `session` is
/// REQUIRED — autocommit, pinning, and transaction state have exactly one
/// home — and must outlive the request; Submit rejects a null session with
/// InvalidArgument.
struct Request {
  std::string sql;
  Session* session = nullptr;
  SubmitOptions options;
};

}  // namespace recycledb

#endif  // RECYCLEDB_SERVER_SESSION_H_
