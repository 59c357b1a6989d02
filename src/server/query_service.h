#ifndef RECYCLEDB_SERVER_QUERY_SERVICE_H_
#define RECYCLEDB_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "core/concurrent_recycler.h"
#include "interp/interpreter.h"
#include "interp/query_result.h"
#include "mal/program.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/plan_cache.h"
#include "server/session.h"
#include "sql/ast.h"

namespace recycledb {

/// Configuration of the concurrent query service.
struct ServiceConfig {
  int num_workers = 4;      ///< fixed-size worker pool
  RecyclerConfig recycler;  ///< knobs of the shared recycle pool
  /// Plan-cache capacity: at most this many cached fingerprints,
  /// LRU-evicted beyond it (0 = unlimited). In-flight queries are
  /// unaffected by evictions — they hold their Program by shared_ptr.
  size_t plan_cache_capacity = 256;
  /// Trace 1 of every N queries (SELECT submissions and Program Submits)
  /// with a full span tree + per-instruction recycler decision records;
  /// 0 (the default) samples nothing. Explicit `TRACE SELECT ...`
  /// statements are always traced regardless of this knob.
  uint32_t trace_sample_n = 0;
};

/// Cumulative service counters; every field is maintained atomically so the
/// aggregate can be read while workers run.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  ///< queries finished with an OK result
  uint64_t failed = 0;     ///< queries finished with an error Status
  uint64_t instrs = 0;     ///< instructions interpreted
  uint64_t pool_hits = 0;  ///< instructions answered from the shared pool
  uint64_t monitored = 0;  ///< instructions wrapped by the recycler
  uint64_t exec_us = 0;    ///< Σ per-query instruction execution time
  uint64_t wall_us = 0;    ///< Σ per-query wall time
  // Plan-template cache counters (the SQL Submit path).
  uint64_t plan_lookups = 0;        ///< SQL submissions that probed the cache
  uint64_t plan_hits = 0;           ///< probes answered without compiling
  uint64_t plan_text_hits = 0;      ///< hits served by a remembered text
  uint64_t plan_compiles = 0;       ///< statements compiled to a Program
  uint64_t plan_invalidations = 0;  ///< cached plans dropped by commits/DDL
  uint64_t plan_evictions = 0;      ///< cached plans dropped by LRU capacity
  // Striped shared-pool contention counters (Σ over stripes; the per-stripe
  // breakdown is ConcurrentRecycler::stripe_stats()). Exclusive acquisitions
  // are structural changes (admission/eviction/invalidation/subsumption);
  // shared acquisitions are fast-path probes (exact hits + pure misses).
  uint64_t pool_stripes = 0;
  uint64_t pool_excl_locks = 0;
  uint64_t pool_shared_locks = 0;
  // Pool budget counters (zero without a budget): slot borrows beyond the
  // stripe fair share, denied/partial acquisitions, pressure rebalances,
  // and how often anything locked every stripe at once (commit
  // maintenance, Clear/ResetStats; admission never adds to it).
  uint64_t pool_borrows = 0;
  uint64_t pool_borrow_denied = 0;
  uint64_t pool_rebalances = 0;
  uint64_t pool_all_stripe_ops = 0;
  // SQL DML counters (the Submit INSERT/DELETE/UPDATE/COMMIT path).
  uint64_t dml_inserted_rows = 0;  ///< rows queued by INSERT statements
  uint64_t dml_deleted_rows = 0;   ///< victim rows queued by DELETE statements
  uint64_t dml_updated_rows = 0;   ///< victim rows rewritten by UPDATEs
  uint64_t dml_commits = 0;        ///< write sets installed by CommitWrite
  // Transaction counters (multi-statement session transactions; autocommit's
  // implicit single-statement transactions are counted under dml_commits
  // only).
  uint64_t txn_begun = 0;        ///< transactions opened (BEGIN or implicit)
  uint64_t txn_committed = 0;    ///< COMMITs that installed a write set
  uint64_t txn_rolled_back = 0;  ///< ROLLBACKs that discarded one
  uint64_t txn_conflicts = 0;    ///< commits refused by first-writer-wins
  // Pool maintenance triggered by commits (Σ over stripes; mirrors
  // RecyclerStats so operators can watch the §6.3 split: insert-only
  // commits propagate, delete commits invalidate).
  uint64_t pool_invalidated = 0;  ///< entries dropped by update invalidation
  uint64_t pool_propagated = 0;   ///< entries refreshed by delta propagation
  // Observability.
  uint64_t queries_traced = 0;  ///< queries that carried a QueryTrace
  // MVCC snapshot counters.
  uint64_t snapshot_epoch = 0;  ///< newest published catalog epoch (gauge)
  uint64_t epoch_pins = 0;      ///< queries that captured a snapshot epoch
  /// Pool entries refreshed by §6.3 propagation after a commit moved their
  /// dependencies' epoch forward (the lazy stale-entry refresh path).
  uint64_t stale_entry_refreshes = 0;
  /// Admissions declined because the producing query's snapshot was older
  /// than a dependency's current epoch (RecyclerStats::stale_declines).
  uint64_t pool_stale_declines = 0;
};

/// One query of a synchronous batch.
struct QueryRequest {
  const Program* prog = nullptr;  ///< must outlive the request
  std::vector<Scalar> params;
};

/// Typed handle returned by QueryService::Submit: the result future plus
/// what the submission resolved to — which snapshot epoch the query reads
/// and whether the statement took the DML path (in which case the future is
/// already resolved when Submit returns).
struct QueryHandle {
  std::future<Result<QueryResult>> future;
  /// The catalog snapshot epoch captured at submission. For DML this is the
  /// epoch current when the statement was routed (DML observes and advances
  /// the live catalog, not a snapshot).
  uint64_t snapshot_epoch = 0;
  bool is_dml = false;
};

/// The concurrent query service: owns the catalog and a single shared
/// recycler, runs a fixed-size worker pool (one Interpreter per worker, as
/// Interpreter's thread-compatibility contract anticipates), and exposes an
/// asynchronous Submit plus synchronous batch execution.
///
/// ## Threading model
///
///  - Submissions enqueue into one mutex-guarded queue; workers pop and run.
///  - Every query (SQL SELECT or Program) captures a catalog snapshot at
///    submission and the worker executes it against that immutable view
///    with NO update-lock hold: commits install new versions concurrently,
///    and a reader sees the whole commit or none of it (the snapshot is
///    published atomically after pool/plan maintenance).
///  - The update lock serialises schema readers against mutators, as
///    Catalog's contract requires: commits (autocommit DML, COMMIT,
///    ApplyUpdate) hold it *exclusively*; plan compilation, transaction
///    overlay builds and in-transaction DML hold it *shared*. Query
///    execution never touches it.
///  - Workers share one ConcurrentRecycler (see its header for the pool
///    locking protocol); each worker talks to it through its own Session.
///  - Results are immutable snapshots (shared_ptr columns), so a result
///    returned before a commit stays valid after it.
class QueryService {
 public:
  /// Takes ownership of a loaded catalog. `cfg.num_workers` threads start
  /// immediately.
  explicit QueryService(std::unique_ptr<Catalog> catalog,
                        ServiceConfig cfg = {});

  /// Borrows a catalog the caller keeps alive (benchmarks reuse one loaded
  /// database across many service configurations). The update listener is
  /// still installed, and cleared again on destruction — which is why at
  /// most ONE QueryService may be attached to a Catalog at a time: a second
  /// service would overwrite the first's listener and leave its plan cache
  /// and recycle pool blind to commits. Sequential services over one
  /// catalog (create, use, destroy, repeat) are fine.
  explicit QueryService(Catalog* catalog, ServiceConfig cfg = {});

  /// Drains outstanding work, then stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one query invocation against the newest published snapshot.
  /// `prog` must stay alive until the future resolves. Never blocks on query
  /// execution or on an in-flight commit.
  std::future<Result<QueryResult>> Submit(const Program* prog,
                                          std::vector<Scalar> params);

  using SqlCallback = std::function<void(Result<QueryResult>)>;

  /// THE SQL entry point: routes one statement under a session and options.
  ///
  /// SELECT: parses the text, normalises it to a fingerprint, and looks the
  /// fingerprint up in the shared plan cache (a miss compiles the statement
  /// once under the shared update lock, so compilation sees a stable
  /// catalog); every later same-pattern submission — any session, any
  /// literals — shares that recycler-optimised Program and only re-binds
  /// its parameter values. An exact text the cache has seen bound before
  /// skips parsing and binding altogether (PlanCache::LookupText); it
  /// counts as one plan lookup and one hit. The submission captures the
  /// session's snapshot — the open transaction's view, else the pinned one,
  /// else the newest published epoch — and the worker executes the whole
  /// query against that immutable view WITHOUT the update lock,
  /// concurrently with commits.
  /// Compile errors resolve the returned future immediately.
  ///
  /// DML and transaction control (INSERT/DELETE/UPDATE and
  /// BEGIN/COMMIT/ROLLBACK): executes on the calling thread, so the
  /// returned future is already resolved. Every mutation accumulates in the
  /// session's private write set — with autocommit, an implicit
  /// single-statement transaction opened, executed, and committed inside
  /// ONE exclusive update-lock hold; inside an open transaction (explicit
  /// BEGIN, or implicitly opened by the first statement with autocommit
  /// off), statements take only a SHARED hold (schema stability), their
  /// victim scans and the session's own SELECTs read the transaction's
  /// overlay snapshot (begin snapshot + write set: read-your-own-writes,
  /// invisible to every other session), and only COMMIT takes the
  /// exclusive lock. COMMIT installs the write set atomically via
  /// Catalog::CommitWrite with first-writer-wins conflict detection — it
  /// fails with Status::WriteConflict (discarding the write set) when
  /// another session committed an overlapping row change since this
  /// transaction began; ROLLBACK discards the write set without touching
  /// the catalog. Commit-time recycler maintenance (§6.3 propagate vs
  /// invalidate) and the epoch publish fire ONCE per transaction. Cached
  /// plans survive data commits (they bind by name at run time); only
  /// schema changes evict them.
  QueryHandle Submit(Request req);

  /// Callback flavour of Submit, for callers that multiplex many in-flight
  /// queries without parking a thread per future (the network server's I/O
  /// loop). Exactly the same pipeline; `done` is invoked exactly once — on
  /// the worker thread that ran the query, or on the calling thread for
  /// immediate outcomes (parse/compile errors, DML, shutdown). `done` must
  /// not block.
  void SubmitAsync(Request req, SqlCallback done);

  /// Runs a batch to completion, preserving request order in the results.
  /// Queries execute concurrently across the worker pool.
  std::vector<Result<QueryResult>> RunBatch(
      const std::vector<QueryRequest>& batch);

  /// Applies DML/DDL through `mutator` under the exclusive update lock:
  /// waits for in-flight compiles and in-transaction statements (never for
  /// running queries, which read their own snapshots) and lets the commit's
  /// delta propagation or invalidation hit the shared pool atomically.
  Status ApplyUpdate(const std::function<Status(Catalog*)>& mutator);

  /// Blocks until every submitted query has finished.
  void Drain();

  Catalog* catalog() { return catalog_; }
  /// The newest published catalog snapshot (lock-free; what an unpinned
  /// submission captures).
  CatalogSnapshotPtr CurrentSnapshot() const { return catalog_->Snapshot(); }
  const ServiceConfig& config() const { return cfg_; }
  ConcurrentRecycler& recycler() { return recycler_; }
  const ConcurrentRecycler& recycler() const { return recycler_; }
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// One consistent read of every service counter (each counter is read
  /// exactly once, into one plain struct — field-by-field reads at call
  /// sites could tear across related counters mid-commit). THE accessor all
  /// presentation paths (`.stats`, benches, tests) go through.
  ServiceStats SnapshotStats() const;
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // --- observability --------------------------------------------------------

  /// The service's metric registry (counters, gauges, latency histograms:
  /// query_wall_us, query_exec_us, sql_parse_us, sql_compile_us, ...).
  /// Benchmarks reset/read specific histograms between phases through this.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Recent budget/maintenance events (pool borrows and sheds, plan
  /// evictions, commit invalidation/propagation, request cancellations).
  const obs::EventRing& events() const { return events_; }
  obs::EventRing& events() { return events_; }

  /// Registry snapshot extended with the plan-cache, recycler, and pool
  /// budget counters the registry does not own — the single source for
  /// both export formats below.
  obs::RegistrySnapshot MetricsSnapshot() const;

  /// Machine-readable metrics dump: JSON (with the event ring embedded) or
  /// Prometheus text exposition.
  std::string DumpMetricsJson() const;
  std::string DumpMetricsPrometheus() const;

  /// The most recent completed query traces, oldest first (bounded ring of
  /// kRecentTraceCap). Covers sampled and explicit traces.
  std::vector<std::shared_ptr<const obs::QueryTrace>> RecentTraces() const;

  static constexpr size_t kRecentTraceCap = 32;

 private:
  struct Task {
    const Program* prog;
    std::vector<Scalar> params;
    std::promise<Result<QueryResult>> promise;
    /// When set, the task resolves through this callback and the promise is
    /// never touched (the SubmitAsync path).
    SqlCallback done;
    /// Keeps a plan-cache Program alive while the task is in flight, so a
    /// commit may drop the cache entry without invalidating `prog`.
    std::shared_ptr<const Program> prog_owner;
    /// Non-null when this query is traced. The submitting thread fills the
    /// parse/plan spans before enqueueing; the worker appends the rest (the
    /// queue mutex orders the handoff).
    std::shared_ptr<obs::QueryTrace> trace;
    double enqueue_ms = 0;  ///< NowMillis() at enqueue (traced tasks only)
    /// The snapshot captured at submission: the worker pins the interpreter
    /// and recycler session to it and runs WITHOUT the update lock.
    CatalogSnapshotPtr snapshot;
    /// Absolute NowMillis() deadline; a task dequeued past it resolves with
    /// DeadlineExceeded instead of running. 0 = none.
    double deadline_at_ms = 0;
    /// Execute WITHOUT the shared recycler (a plain per-worker Interpreter).
    /// Set for in-transaction SELECTs over an overlay snapshot: overlay BATs
    /// are transaction-local fresh objects, so monitoring them would admit
    /// pool entries keyed to identities no other session can ever match.
    bool no_recycle = false;
  };

  void WorkerLoop(int worker_idx);
  std::future<Result<QueryResult>> Enqueue(Task task);
  /// Resolves a task through whichever channel it carries (callback or
  /// promise).
  static void ResolveTask(Task* task, Result<QueryResult> r);
  /// A fresh trace when this query should be traced: always for explicit
  /// TRACE statements (`forced`), else by 1-in-trace_sample_n sampling.
  std::shared_ptr<obs::QueryTrace> MaybeTrace(const std::string& statement,
                                              bool forced);
  /// The one parse/classify/route prologue behind every SQL entry point:
  /// probes the plan cache by exact text, else parses `text`; executes DML
  /// inline (under `session`), and otherwise plans + enqueues the SELECT
  /// according to the session/options. When non-null, `handle_out`'s
  /// snapshot_epoch/is_dml are filled in (the future is the caller's).
  /// `done` fires exactly once.
  void RouteStatement(const std::string& text, Session* session,
                      const SubmitOptions& options, SqlCallback done,
                      QueryHandle* handle_out);
  /// Routes one parsed DML / transaction-control statement: autocommit
  /// statements run as implicit single-statement transactions under the
  /// exclusive update lock; in-transaction statements accumulate in the
  /// session's write set under a shared hold; COMMIT installs the write set
  /// exclusively (WriteConflict discards it — first-writer-wins).
  Result<QueryResult> ExecuteDml(const sql::Statement& stmt, Session* session);
  /// Executes one INSERT/DELETE/UPDATE into `ws`. `base_snap` fixes the
  /// delete-oid coordinate space (null = live committed state, the
  /// autocommit path); `exec_snap` is what victim scans read (null = live).
  /// Locking is the caller's job.
  Status RunDmlStatement(Catalog* cat, const sql::Statement& stmt,
                         TxnWriteSet* ws, const CatalogSnapshot* base_snap,
                         const CatalogSnapshot* exec_snap, QueryResult* out);
  /// Counts one installed write set and adds its phase times to the
  /// commit_{merge,index,pool,publish}_us histograms.
  void RecordCommit(const CommitPhases& phases);
  /// Returns the session's transaction overlay snapshot, rebuilding the
  /// cached one if the write set moved (empty write sets short-circuit to
  /// the begin snapshot, which keeps BAT identities and recycling intact).
  /// Caller must hold the update lock shared. Null + ok when no transaction
  /// is open.
  Result<CatalogSnapshotPtr> TxnSnapshot(Session* session, bool* fresh_bats);

  std::unique_ptr<Catalog> owned_catalog_;  ///< null when borrowing
  Catalog* catalog_;
  ServiceConfig cfg_;
  /// Declared before the recycler and plan cache: both hold a pointer into
  /// the event ring, and metric registration happens before workers start.
  obs::MetricsRegistry metrics_;
  obs::EventRing events_;
  ConcurrentRecycler recycler_;
  PlanCache plan_cache_;

  // Task queue.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drained_cv_;
  std::deque<Task> queue_;
  size_t outstanding_ = 0;  ///< queued + running (guarded by queue_mu_)
  bool stopping_ = false;

  /// Commits hold this exclusive; compilation, overlay builds and
  /// in-transaction DML hold it shared (schema stability). Query execution
  /// never takes it, so shared holds are short and a commit lands between
  /// them.
  std::shared_mutex update_mu_;

  // Registry-owned counters and histograms (see ServiceStats /
  // MetricsSnapshot); the pointers are stable for the service's lifetime.
  obs::Counter* c_submitted_;
  obs::Counter* c_completed_;
  obs::Counter* c_failed_;
  obs::Counter* c_instrs_;
  obs::Counter* c_pool_hits_;
  obs::Counter* c_monitored_;
  obs::Counter* c_exec_us_;
  obs::Counter* c_wall_us_;
  obs::Counter* c_dml_inserted_;
  obs::Counter* c_dml_deleted_;
  obs::Counter* c_dml_updated_;
  obs::Counter* c_dml_commits_;
  obs::Counter* c_txn_begun_;
  obs::Counter* c_txn_committed_;
  obs::Counter* c_txn_rolled_back_;
  obs::Counter* c_txn_conflicts_;
  obs::Counter* c_traced_;
  obs::Counter* c_epoch_pins_;
  obs::Counter* c_stale_refreshes_;
  obs::LatencyHistogram* h_query_wall_us_;
  obs::LatencyHistogram* h_query_exec_us_;
  obs::LatencyHistogram* h_sql_parse_us_;
  obs::LatencyHistogram* h_sql_compile_us_;
  obs::LatencyHistogram* h_commit_merge_us_;
  obs::LatencyHistogram* h_commit_index_us_;
  obs::LatencyHistogram* h_commit_pool_us_;
  obs::LatencyHistogram* h_commit_publish_us_;

  // Trace sampling and the recent-trace ring.
  std::atomic<uint64_t> trace_seq_{0};
  mutable std::mutex traces_mu_;
  std::deque<std::shared_ptr<const obs::QueryTrace>> recent_traces_;

  std::vector<std::thread> workers_;
};

}  // namespace recycledb

#endif  // RECYCLEDB_SERVER_QUERY_SERVICE_H_
