#include "server/query_service.h"

#include <cmath>
#include <limits>
#include <utility>

#include "sql/parser.h"
#include "sql/planner.h"
#include "util/check.h"
#include "util/str.h"
#include "util/timer.h"

namespace recycledb {

namespace {

/// Milliseconds (the interpreter's native unit) to whole microseconds (the
/// metric unit: histograms bucket by log2 of integer values).
uint64_t MsToUs(double ms) {
  return ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e3);
}

/// Coerces one exported UPDATE cell to its column's declared type. SET
/// arithmetic runs in the plan's numeric domain (often kDbl), so the rebuilt
/// row must narrow back to the declared type — with range checks, because a
/// silently wrapped int32 would corrupt the table. Carried-over columns and
/// same-type values pass through untouched; only numeric targets are ever
/// computed (the planner rejects expressions over str/date columns).
Result<Scalar> CoerceCell(const Scalar& v, TypeTag want) {
  if (v.tag() == want) return v;
  switch (v.tag()) {
    case TypeTag::kInt:
    case TypeTag::kLng:
    case TypeTag::kDbl:
    case TypeTag::kOid:
      break;
    default:
      return Status::TypeMismatch("UPDATE produced a non-numeric value for a "
                                  "differently typed column");
  }
  const double d = v.ToDouble();
  switch (want) {
    case TypeTag::kDbl:
      return Scalar::Dbl(d);
    case TypeTag::kLng:
      return Scalar::Lng(static_cast<int64_t>(std::llround(d)));
    case TypeTag::kInt: {
      const long long r = std::llround(d);
      if (r < std::numeric_limits<int32_t>::min() ||
          r > std::numeric_limits<int32_t>::max())
        return Status::InvalidArgument("UPDATE value overflows int column");
      return Scalar::Int(static_cast<int32_t>(r));
    }
    case TypeTag::kOid: {
      const long long r = std::llround(d);
      if (r < 0) return Status::InvalidArgument("UPDATE value for oid column is negative");
      return Scalar::OidVal(static_cast<Oid>(r));
    }
    default:
      return Status::TypeMismatch("UPDATE cannot compute a value of this column type");
  }
}

}  // namespace

QueryService::QueryService(std::unique_ptr<Catalog> catalog, ServiceConfig cfg)
    : QueryService(catalog.get(), cfg) {
  owned_catalog_ = std::move(catalog);
}

QueryService::QueryService(Catalog* catalog, ServiceConfig cfg)
    : catalog_(catalog),
      cfg_(cfg),
      recycler_(cfg.recycler),
      plan_cache_(cfg.plan_cache_capacity) {
  if (cfg_.num_workers < 1) cfg_.num_workers = 1;
  // Metric registration happens before the workers start, so the hot paths
  // only ever touch stable pointers.
  c_submitted_ = metrics_.AddCounter("queries_submitted");
  c_completed_ = metrics_.AddCounter("queries_completed");
  c_failed_ = metrics_.AddCounter("queries_failed");
  c_traced_ = metrics_.AddCounter("queries_traced");
  c_instrs_ = metrics_.AddCounter("instrs_executed");
  c_pool_hits_ = metrics_.AddCounter("instrs_pool_hits");
  c_monitored_ = metrics_.AddCounter("instrs_monitored");
  c_exec_us_ = metrics_.AddCounter("query_exec_us_total");
  c_wall_us_ = metrics_.AddCounter("query_wall_us_total");
  c_dml_inserted_ = metrics_.AddCounter("dml_rows_inserted");
  c_dml_deleted_ = metrics_.AddCounter("dml_rows_deleted");
  c_dml_updated_ = metrics_.AddCounter("dml_rows_updated");
  c_dml_commits_ = metrics_.AddCounter("dml_commits");
  c_txn_begun_ = metrics_.AddCounter("txn_begun");
  c_txn_committed_ = metrics_.AddCounter("txn_committed");
  c_txn_rolled_back_ = metrics_.AddCounter("txn_rolled_back");
  c_txn_conflicts_ = metrics_.AddCounter("txn_conflicts");
  c_epoch_pins_ = metrics_.AddCounter("epoch_pins");
  c_stale_refreshes_ = metrics_.AddCounter("stale_entry_refreshes");
  h_query_wall_us_ = metrics_.AddHistogram("query_wall_us");
  h_query_exec_us_ = metrics_.AddHistogram("query_exec_us");
  h_sql_parse_us_ = metrics_.AddHistogram("sql_parse_us");
  h_sql_compile_us_ = metrics_.AddHistogram("sql_compile_us");
  h_commit_merge_us_ = metrics_.AddHistogram("commit_merge_us");
  h_commit_index_us_ = metrics_.AddHistogram("commit_index_us");
  h_commit_pool_us_ = metrics_.AddHistogram("commit_pool_us");
  h_commit_publish_us_ = metrics_.AddHistogram("commit_publish_us");
  metrics_.AddGaugeFn("pool_entries",
                      [this] { return recycler_.pool_entries(); });
  metrics_.AddGaugeFn("pool_bytes", [this] { return recycler_.pool_bytes(); });
  metrics_.AddGaugeFn("plan_cache_plans",
                      [this] { return plan_cache_.size(); });
  metrics_.AddGaugeFn("plan_cache_bytes",
                      [this] { return plan_cache_.bytes(); });
  metrics_.AddGaugeFn("snapshot_epoch", [this] { return catalog_->epoch(); });
  recycler_.set_event_ring(&events_);
  plan_cache_.set_event_ring(&events_);
  // At most one service may drive a catalog at a time (see the borrowing
  // constructor's contract): a second attach would silently disconnect the
  // first service's invalidation hook, so fail loudly instead.
  RDB_CHECK(!catalog_->HasUpdateListener());
  // Commits and DDL report their invalidated columns here; ApplyUpdate's
  // exclusive lock makes the pool and plan-cache maintenance atomic w.r.t.
  // query execution.
  catalog_->SetUpdateListener([this](const std::vector<ColumnId>& cols,
                                     Catalog::UpdateKind kind) {
    // The listener fires BEFORE the catalog publishes the mutation's
    // snapshot (PublishSnapshot bumps the epoch by exactly one, after us),
    // so the epoch the touched columns move to is current + 1. Stamping it
    // into the recycler's col_epochs map here — before any re-admission —
    // is what epoch-tags refreshed pool entries correctly.
    const uint64_t new_epoch = catalog_->epoch() + 1;
    events_.Record(obs::EventKind::kEpochBump, 0, new_epoch, cols.size());
    // Plans survive data commits: a compiled statement binds tables by name
    // at run time, so new rows only move the epoch its next execution reads
    // under — eviction (and the recompile it forces on every later
    // submission) is reserved for schema changes, where the cached Program
    // is structurally stale. This is the plan-cache half of epoch tagging.
    if (kind == Catalog::UpdateKind::kSchema) plan_cache_.Invalidate(cols);
    // §6.3: tables whose commit was insert-only refresh their matching
    // select-over-bind pool entries from the delta; every other commit falls
    // back to column-wise invalidation. Events report the path maintenance
    // ACTUALLY took, read off the recycler's counters. `a` = pool entries
    // affected, `b` = columns in the commit; a commit that touched no pool
    // entries still records an invalidate event (a=0) so every commit is
    // visible in the ring.
    RecyclerStats before = recycler_.stats();
    recycler_.PropagateUpdate(catalog_, cols, new_epoch);
    RecyclerStats after = recycler_.stats();
    const uint64_t prop = after.propagated - before.propagated;
    const uint64_t inv = after.invalidated - before.invalidated;
    // Every propagated entry was refreshed BECAUSE the commit moved its
    // dependencies' epoch past its valid_from: the §6.3 lazy-refresh path.
    c_stale_refreshes_->Add(prop);
    if (prop > 0)
      events_.Record(obs::EventKind::kPropagate, 0, prop, cols.size());
    if (inv > 0 || prop == 0)
      events_.Record(obs::EventKind::kInvalidate, 0, inv, cols.size());
  });
  workers_.reserve(cfg_.num_workers);
  for (int i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryService::~QueryService() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  catalog_->SetUpdateListener(nullptr);
}

std::future<Result<QueryResult>> QueryService::Submit(
    const Program* prog, std::vector<Scalar> params) {
  Task t;
  t.prog = prog;
  t.params = std::move(params);
  t.trace = MaybeTrace(prog->name, /*forced=*/false);
  t.snapshot = catalog_->Snapshot();
  c_epoch_pins_->Add(1);
  return Enqueue(std::move(t));
}

std::shared_ptr<obs::QueryTrace> QueryService::MaybeTrace(
    const std::string& statement, bool forced) {
  if (!forced) {
    const uint32_t n = cfg_.trace_sample_n;
    if (n == 0) return nullptr;
    if (trace_seq_.fetch_add(1, std::memory_order_relaxed) % n != 0)
      return nullptr;
  }
  return std::make_shared<obs::QueryTrace>(statement, /*sampled=*/!forced);
}

void QueryService::ResolveTask(Task* task, Result<QueryResult> r) {
  if (task->done) {
    task->done(std::move(r));
  } else {
    task->promise.set_value(std::move(r));
  }
}

std::future<Result<QueryResult>> QueryService::Enqueue(Task t) {
  std::future<Result<QueryResult>> fut =
      t.done ? std::future<Result<QueryResult>>() : t.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      ResolveTask(&t, Status::Internal("query service is shut down"));
      return fut;
    }
    c_submitted_->Add(1);
    if (t.trace != nullptr) t.enqueue_ms = NowMillis();
    queue_.push_back(std::move(t));
    ++outstanding_;
  }
  queue_cv_.notify_one();
  return fut;
}

QueryHandle QueryService::Submit(Request req) {
  QueryHandle h;
  // std::function must be copyable, so the promise rides in a shared_ptr.
  auto p = std::make_shared<std::promise<Result<QueryResult>>>();
  h.future = p->get_future();
  RouteStatement(req.sql, req.session, req.options,
                 [p](Result<QueryResult> r) { p->set_value(std::move(r)); },
                 &h);
  return h;
}

void QueryService::SubmitAsync(Request req, SqlCallback done) {
  RouteStatement(req.sql, req.session, req.options, std::move(done), nullptr);
}

void QueryService::RouteStatement(const std::string& text, Session* session,
                                  const SubmitOptions& options,
                                  SqlCallback done, QueryHandle* handle_out) {
  // Parse/compile/bind rejections count as submitted+failed, so operators
  // watching ServiceStats see errored SQL, not only worker-side failures.
  auto fail = [this, &done](Status st) {
    c_submitted_->Add(1);
    c_failed_->Add(1);
    done(std::move(st));
  };
  // The session is the only home of autocommit, pinning, and transaction
  // state — there is deliberately no service-owned fallback session a null
  // could silently share across callers.
  if (session == nullptr)
    return fail(Status::InvalidArgument("Request.session is required"));

  // A SELECT text seen before binds without parsing: the plan cache keeps
  // each plan's recent texts with their coerced parameters. DML and
  // traced texts are never remembered, so they always parse.
  std::vector<Scalar> params;
  StopWatch plan_sw;
  PlanCache::EntryPtr entry = plan_cache_.LookupText(text, &params);
  const double text_probe_ms = plan_sw.ElapsedMillis();
  const bool text_hit = entry != nullptr;
  sql::Statement parsed;
  double parse_ms = 0;
  if (!text_hit) {
    StopWatch parse_sw;
    auto p = sql::ParseStatement(text);
    parse_ms = parse_sw.ElapsedMillis();
    h_sql_parse_us_->Record(MsToUs(parse_ms));
    if (!p.ok()) return fail(p.status());
    parsed = std::move(p).value();
  }

  if (!text_hit && parsed.kind != sql::Statement::Kind::kSelect) {
    // DML runs on the calling thread under the exclusive update lock; the
    // callback fires before RouteStatement returns. Counted like any
    // submission so operators see DML in the same submitted/completed/failed
    // totals.
    if (handle_out != nullptr) {
      handle_out->is_dml = true;
      handle_out->snapshot_epoch = catalog_->epoch();
    }
    c_submitted_->Add(1);
    Result<QueryResult> r = ExecuteDml(parsed, session);
    if (r.ok())
      c_completed_->Add(1);
    else
      c_failed_->Add(1);
    done(std::move(r));
    return;
  }

  // Snapshot capture (MVCC): inside an open transaction the transaction's
  // own view wins — the begin snapshot, overlaid with the private write set
  // once it is non-empty (read-your-own-writes, invisible to every other
  // session). Otherwise the session's pinned snapshot (repeatable reads),
  // else the newest published epoch.
  CatalogSnapshotPtr snapshot;
  bool no_recycle = false;
  if (session->in_txn()) {
    // Overlay construction reads catalog metadata, so take the same shared
    // hold compilation uses; the hold is released before the query runs
    // (the overlay is immutable once built).
    std::shared_lock<std::shared_mutex> lock(update_mu_);
    auto snap = TxnSnapshot(session, &no_recycle);
    if (!snap.ok()) return fail(snap.status());
    snapshot = std::move(snap).value();
  }
  if (snapshot == nullptr) {
    snapshot = session->pinned();
    if (snapshot == nullptr) snapshot = catalog_->Snapshot();
  }
  c_epoch_pins_->Add(1);
  if (handle_out != nullptr) handle_out->snapshot_epoch = snapshot->epoch();

  const sql::SelectStmt& stmt = parsed.select;
  const std::string fp = text_hit ? std::string() : sql::Fingerprint(stmt);
  // Tracing: explicit TRACE always wins; otherwise the submission/session
  // flags, then 1-in-N sampling. The fingerprint is computed from the
  // SelectStmt alone, so a traced instance shares the untraced instances'
  // plan.
  std::shared_ptr<obs::QueryTrace> trace = MaybeTrace(
      text, parsed.traced || options.trace || session->trace_all());
  if (trace != nullptr && !text_hit) {
    obs::QueryTrace::Span parse_span;
    parse_span.name = "parse";
    parse_span.dur_ms = parse_ms;
    trace->root().children.push_back(std::move(parse_span));
  }

  obs::QueryTrace::Span plan_span;
  plan_span.name = "plan";
  if (!text_hit) plan_sw.Restart();
  {
    // The plan cache is internally synchronised, so the probe needs no
    // update-lock hold: a plan-cache hit on the snapshot path touches no
    // lock a commit contends on at all.
    StopWatch probe_sw;
    if (!text_hit) entry = plan_cache_.Lookup(fp);
    if (trace != nullptr) {
      obs::QueryTrace::Span probe;
      probe.name = "cache_probe";
      probe.dur_ms = text_hit ? text_probe_ms : probe_sw.ElapsedMillis();
      probe.note = text_hit ? "text hit" : entry == nullptr ? "miss" : "hit";
      plan_span.children.push_back(std::move(probe));
    }
  }
  if (entry == nullptr) {
    // Compilation reads catalog metadata, so it takes a shared hold of the
    // update lock; a commit can therefore not change the schema mid-compile.
    // The hold is released before enqueueing — a plan that a later commit
    // invalidates stays executable (binds resolve by name at run time; a
    // dropped table surfaces as a clean NotFound).
    std::shared_lock<std::shared_mutex> lock(update_mu_);
    std::vector<Scalar> own;
    StopWatch compile_sw;
    auto plan = sql::CompileStmt(catalog_, stmt, &own);
    h_sql_compile_us_->Record(MsToUs(compile_sw.ElapsedMillis()));
    if (!plan.ok()) return fail(plan.status());
    PlanCache::Entry e;
    e.prog = std::make_shared<const Program>(std::move(plan.value().prog));
    e.param_types = std::move(plan.value().param_types);
    e.table_ids = std::move(plan.value().table_ids);
    // Under a compile race the first insert wins; our parameter vector
    // still fits the winner (same fingerprint => same canonical literal
    // order and types).
    entry = plan_cache_.Insert(fp, std::move(e));
    params = std::move(own);
    if (trace != nullptr) {
      obs::QueryTrace::Span compile;
      compile.name = "compile";
      compile.dur_ms = compile_sw.ElapsedMillis();
      plan_span.children.push_back(std::move(compile));
    }
  } else if (!text_hit) {
    // BindLiterals is pure over the parsed statement — catalog-free, so the
    // whole hit path stays lock-free.
    StopWatch bind_sw;
    auto bound = sql::BindLiterals(stmt, entry->param_types);
    if (!bound.ok()) return fail(bound.status());
    params = std::move(bound).value();
    if (trace != nullptr) {
      obs::QueryTrace::Span bind;
      bind.name = "bind_params";
      bind.dur_ms = bind_sw.ElapsedMillis();
      plan_span.children.push_back(std::move(bind));
    }
  }
  // Remember the text only once it bound cleanly: the next identical
  // submission skips parse, fingerprint and bind.
  if (!text_hit && !parsed.traced)
    plan_cache_.RememberText(text, fp, entry, params);
  plan_span.dur_ms = plan_sw.ElapsedMillis();
  if (trace != nullptr) trace->root().children.push_back(std::move(plan_span));

  Task t;
  t.prog_owner = entry->prog;
  t.prog = t.prog_owner.get();
  t.params = std::move(params);
  t.trace = std::move(trace);
  t.done = std::move(done);
  t.snapshot = std::move(snapshot);
  t.no_recycle = no_recycle;
  if (options.deadline_ms > 0)
    t.deadline_at_ms = NowMillis() + options.deadline_ms;
  Enqueue(std::move(t));
}

Result<QueryResult> QueryService::ExecuteDml(const sql::Statement& stmt,
                                             Session* session) {
  QueryResult out;
  using K = sql::Statement::Kind;

  switch (stmt.kind) {
    case K::kBegin: {
      // Lock-free: the snapshot is captured FIRST and the write set's begin
      // epoch copied from it, so the pair can never straddle a concurrent
      // commit (Catalog::BeginWrite() + a separate Snapshot() call could).
      CatalogSnapshotPtr snap = catalog_->Snapshot();
      TxnWriteSet ws;
      ws.begin_epoch = snap->epoch();
      if (!session->BeginTxn(std::move(ws), std::move(snap)))
        return Status::InvalidArgument("BEGIN inside an open transaction");
      c_txn_begun_->Add(1);
      out.values.emplace_back("txn_begun", Scalar::Lng(1));
      return out;
    }
    case K::kRollback: {
      // Dropping the Txn IS rollback: the write set never touched the
      // catalog, so there is nothing to undo — no lock, no epoch bump, no
      // pool or plan-cache maintenance. ROLLBACK with nothing open is a
      // no-op, not an error (every client quit path can issue it blindly).
      std::unique_ptr<Session::Txn> txn = session->TakeTxn();
      if (txn != nullptr) c_txn_rolled_back_->Add(1);
      out.values.emplace_back("rolled_back",
                              Scalar::Lng(txn != nullptr ? 1 : 0));
      return out;
    }
    case K::kCommit: {
      if (!session->in_txn()) {
        // Nothing staged: report 0 installed rather than erroring, so
        // autocommit scripts ending in a defensive COMMIT stay valid.
        out.values.emplace_back("committed", Scalar::Lng(0));
        return out;
      }
      Status st = ApplyUpdate([&](Catalog* cat) -> Status {
        std::unique_ptr<Session::Txn> txn = session->TakeTxn();
        if (txn == nullptr) return Status::OK();
        // CommitWrite's conflict phase is pure: on WriteConflict the
        // catalog is untouched and the write set dies with `txn` —
        // first-writer-wins, the loser retries from a fresh BEGIN. On
        // success the listener fires (pool/plan maintenance) and the next
        // snapshot publishes, ONCE for the whole transaction, while we
        // hold the update lock exclusively.
        CommitPhases phases;
        Status cs = cat->CommitWrite(&txn->ws, &phases);
        if (!cs.ok()) {
          if (cs.code() == StatusCode::kWriteConflict) {
            c_txn_conflicts_->Add(1);
            events_.Record(obs::EventKind::kTxnConflict, 0,
                           txn->ws.begin_epoch, 0);
          }
          return cs;
        }
        c_txn_committed_->Add(1);
        RecordCommit(phases);
        return Status::OK();
      });
      if (!st.ok()) return st;
      out.values.emplace_back("committed", Scalar::Lng(1));
      return out;
    }
    default:
      break;
  }

  // INSERT / DELETE / UPDATE. With autocommit off and no transaction open,
  // the statement implicitly opens one — the legacy staged-delta behaviour
  // (statements accumulate until an explicit COMMIT) expressed as a session
  // transaction.
  if (!session->in_txn() && !session->autocommit()) {
    CatalogSnapshotPtr snap = catalog_->Snapshot();
    TxnWriteSet ws;
    ws.begin_epoch = snap->epoch();
    session->BeginTxn(std::move(ws), std::move(snap));
    c_txn_begun_->Add(1);
  }

  if (session->in_txn()) {
    // In-transaction statement: only a SHARED hold — the write set is
    // session-private, so the statement needs schema stability, not mutual
    // exclusion. Victim scans read the transaction's overlay (begin
    // snapshot + write set) so repeated statements see their own effects;
    // an untouched write set short-circuits to the begin snapshot itself.
    std::shared_lock<std::shared_mutex> lock(update_mu_);
    Status st = Status::OK();
    session->WithTxn([&](Session::Txn* t) {
      const CatalogSnapshot* exec = nullptr;
      if (stmt.kind != K::kInsert) {
        if (t->ws.Empty()) {
          exec = t->begin_snapshot.get();
        } else {
          if (t->overlay == nullptr || t->overlay_version != t->ws.version) {
            auto ov = catalog_->OverlaySnapshot(t->begin_snapshot, t->ws);
            if (!ov.ok()) {
              st = ov.status();
              return;
            }
            t->overlay = std::move(ov).value();
            t->overlay_version = t->ws.version;
          }
          exec = t->overlay.get();
        }
      }
      st = RunDmlStatement(catalog_, stmt, &t->ws, t->begin_snapshot.get(),
                           exec, &out);
    });
    if (!st.ok()) return st;
    return out;
  }

  // Autocommit: an implicit single-statement transaction folded into ONE
  // exclusive hold — begin, execute, and commit with no interleaving
  // possible, so first-writer-wins can never fire here. Scans read the live
  // committed state (null exec snapshot), which under the exclusive lock IS
  // the statement's snapshot.
  Status st = ApplyUpdate([&](Catalog* cat) -> Status {
    TxnWriteSet ws = cat->BeginWrite();
    RDB_RETURN_NOT_OK(
        RunDmlStatement(cat, stmt, &ws, nullptr, nullptr, &out));
    CommitPhases phases;
    RDB_RETURN_NOT_OK(cat->CommitWrite(&ws, &phases));
    RecordCommit(phases);
    out.values.emplace_back("committed", Scalar::Lng(1));
    return Status::OK();
  });
  if (!st.ok()) return st;
  return out;
}

void QueryService::RecordCommit(const CommitPhases& phases) {
  c_dml_commits_->Add(1);
  h_commit_merge_us_->Record(static_cast<uint64_t>(phases.merge_us));
  h_commit_index_us_->Record(static_cast<uint64_t>(phases.index_us));
  h_commit_pool_us_->Record(static_cast<uint64_t>(phases.pool_us));
  h_commit_publish_us_->Record(static_cast<uint64_t>(phases.publish_us));
}

Status QueryService::RunDmlStatement(Catalog* cat, const sql::Statement& stmt,
                                     TxnWriteSet* ws,
                                     const CatalogSnapshot* base_snap,
                                     const CatalogSnapshot* exec_snap,
                                     QueryResult* out) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kInsert: {
      RDB_ASSIGN_OR_RETURN(std::vector<std::vector<Scalar>> rows,
                           sql::BindInsert(*cat, stmt.insert));
      const size_t n = rows.size();
      RDB_RETURN_NOT_OK(cat->Append(ws, stmt.insert.table, std::move(rows)));
      c_dml_inserted_->Add(n);
      out->values.emplace_back("rows_inserted",
                               Scalar::Lng(static_cast<int64_t>(n)));
      return Status::OK();
    }
    case sql::Statement::Kind::kDelete: {
      // The victim scan reads `exec_snap` — the transaction's overlay (its
      // own inserts are deletable, rows it already deleted are gone) or the
      // live committed state under autocommit's exclusive hold. Either way
      // the coordinates Catalog::Delete receives are overlay coordinates,
      // which it maps back to the begin snapshot's. No recycler hook: a
      // scan over to-be-deleted state must not be admitted to the shared
      // pool.
      std::vector<Scalar> params;
      RDB_ASSIGN_OR_RETURN(sql::CompiledPlan plan,
                           sql::CompileDelete(cat, stmt.del, &params));
      Interpreter interp(cat);
      if (exec_snap != nullptr) interp.set_snapshot(exec_snap);
      RDB_ASSIGN_OR_RETURN(QueryResult scan, interp.Run(plan.prog, params));
      const MalValue* v = scan.Find("victims");
      if (v == nullptr || !v->is_bat())
        return Status::Internal("victim scan produced no oid list");
      const BatPtr& b = v->bat();
      std::vector<Oid> oids;
      oids.reserve(b->size());
      for (size_t i = 0; i < b->size(); ++i)
        oids.push_back(b->TailAt(i).AsOid());
      // Overlapping DELETEs in one transaction can re-select rows already
      // queued; count only what this statement newly queued so the totals
      // reconcile with rows actually removed at commit.
      size_t n = 0;
      RDB_RETURN_NOT_OK(
          cat->Delete(ws, stmt.del.table, std::move(oids), base_snap, &n));
      c_dml_deleted_->Add(n);
      out->values.emplace_back("rows_deleted",
                               Scalar::Lng(static_cast<int64_t>(n)));
      return Status::OK();
    }
    case sql::Statement::Kind::kUpdate: {
      // UPDATE is delete + reinsert over the same write-set machinery: run
      // the victim scan plus the per-column value exports, rebuild each
      // victim row (constants from the statement, computed cells coerced to
      // the declared column type), queue the victims as deletes and the
      // rebuilt rows as inserts. At commit the row therefore moves to the
      // table's tail with a new oid — exactly how the delta design applies
      // in-place mutation.
      RDB_ASSIGN_OR_RETURN(sql::CompiledUpdate cu,
                           sql::CompileUpdate(cat, stmt.update));
      Interpreter interp(cat);
      if (exec_snap != nullptr) interp.set_snapshot(exec_snap);
      RDB_ASSIGN_OR_RETURN(QueryResult scan,
                           interp.Run(cu.plan.prog, cu.params));
      const MalValue* v = scan.Find("victims");
      if (v == nullptr || !v->is_bat())
        return Status::Internal("victim scan produced no oid list");
      const BatPtr& vb = v->bat();
      const size_t n = vb->size();
      const size_t ncols = cu.column_types.size();
      std::vector<const Bat*> value_bats(ncols, nullptr);
      for (size_t ci = 0; ci < ncols; ++ci) {
        if (cu.is_constant[ci]) continue;
        const MalValue* col = scan.Find(StrFormat("v%d", static_cast<int>(ci)));
        if (col == nullptr || !col->is_bat() || col->bat()->size() != n)
          return Status::Internal(StrFormat(
              "UPDATE value export v%d is missing or misaligned",
              static_cast<int>(ci)));
        value_bats[ci] = col->bat().get();
      }
      std::vector<Oid> oids;
      oids.reserve(n);
      std::vector<std::vector<Scalar>> rows(n);
      for (size_t i = 0; i < n; ++i) {
        oids.push_back(vb->TailAt(i).AsOid());
        rows[i].reserve(ncols);
        for (size_t ci = 0; ci < ncols; ++ci) {
          if (cu.is_constant[ci]) {
            rows[i].push_back(cu.constants[ci]);
          } else {
            RDB_ASSIGN_OR_RETURN(
                Scalar cell,
                CoerceCell(value_bats[ci]->TailAt(i), cu.column_types[ci]));
            rows[i].push_back(std::move(cell));
          }
        }
      }
      RDB_RETURN_NOT_OK(
          cat->Delete(ws, cu.table, std::move(oids), base_snap, nullptr));
      RDB_RETURN_NOT_OK(cat->Append(ws, cu.table, std::move(rows)));
      c_dml_updated_->Add(n);
      out->values.emplace_back("rows_updated",
                               Scalar::Lng(static_cast<int64_t>(n)));
      return Status::OK();
    }
    default:
      return Status::Internal("non-DML statement reached RunDmlStatement");
  }
}

Result<CatalogSnapshotPtr> QueryService::TxnSnapshot(Session* session,
                                                     bool* fresh_bats) {
  CatalogSnapshotPtr snap;
  Status st = Status::OK();
  bool fresh = false;
  session->WithTxn([&](Session::Txn* t) {
    if (t->ws.Empty()) {
      // Nothing written yet: read the begin snapshot itself. Its BATs are
      // the published catalog versions, so recycling (and cross-statement
      // repeatable reads) keep working.
      snap = t->begin_snapshot;
      return;
    }
    if (t->overlay == nullptr || t->overlay_version != t->ws.version) {
      auto ov = catalog_->OverlaySnapshot(t->begin_snapshot, t->ws);
      if (!ov.ok()) {
        st = ov.status();
        return;
      }
      t->overlay = std::move(ov).value();
      t->overlay_version = t->ws.version;
    }
    snap = t->overlay;
    fresh = true;
  });
  RDB_RETURN_NOT_OK(st);
  if (fresh_bats != nullptr) *fresh_bats = fresh;
  return snap;
}

std::vector<Result<QueryResult>> QueryService::RunBatch(
    const std::vector<QueryRequest>& batch) {
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(batch.size());
  for (const QueryRequest& q : batch) futures.push_back(Submit(q.prog, q.params));
  std::vector<Result<QueryResult>> out;
  out.reserve(batch.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

Status QueryService::ApplyUpdate(
    const std::function<Status(Catalog*)>& mutator) {
  std::unique_lock<std::shared_mutex> lock(update_mu_);
  return mutator(catalog_);
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

ServiceStats QueryService::SnapshotStats() const {
  ServiceStats s;
  s.submitted = c_submitted_->value();
  s.completed = c_completed_->value();
  s.failed = c_failed_->value();
  s.instrs = c_instrs_->value();
  s.pool_hits = c_pool_hits_->value();
  s.monitored = c_monitored_->value();
  s.exec_us = c_exec_us_->value();
  s.wall_us = c_wall_us_->value();
  s.queries_traced = c_traced_->value();
  PlanCacheStats pc = plan_cache_.stats();
  s.plan_lookups = pc.lookups;
  s.plan_hits = pc.hits;
  s.plan_text_hits = pc.text_hits;
  s.plan_compiles = pc.compiles;
  s.plan_invalidations = pc.invalidations;
  s.plan_evictions = pc.evictions;
  s.pool_stripes = recycler_.num_stripes();
  for (const auto& st : recycler_.stripe_stats()) {
    s.pool_excl_locks += st.excl_acquisitions;
    s.pool_shared_locks += st.shared_acquisitions;
    s.pool_borrows += st.borrows;
    s.pool_borrow_denied += st.borrow_denied;
    s.pool_rebalances += st.rebalances;
  }
  s.pool_all_stripe_ops = recycler_.all_stripe_ops();
  s.dml_inserted_rows = c_dml_inserted_->value();
  s.dml_deleted_rows = c_dml_deleted_->value();
  s.dml_updated_rows = c_dml_updated_->value();
  s.dml_commits = c_dml_commits_->value();
  s.txn_begun = c_txn_begun_->value();
  s.txn_committed = c_txn_committed_->value();
  s.txn_rolled_back = c_txn_rolled_back_->value();
  s.txn_conflicts = c_txn_conflicts_->value();
  RecyclerStats rs = recycler_.stats();
  s.pool_invalidated = rs.invalidated;
  s.pool_propagated = rs.propagated;
  s.pool_stale_declines = rs.stale_declines;
  s.snapshot_epoch = catalog_->epoch();
  s.epoch_pins = c_epoch_pins_->value();
  s.stale_entry_refreshes = c_stale_refreshes_->value();
  return s;
}

obs::RegistrySnapshot QueryService::MetricsSnapshot() const {
  obs::RegistrySnapshot snap = metrics_.Snapshot();
  // Merge in counters owned by the plan cache and the recycler (including
  // its budget slots), so one export carries the whole serving stack.
  ServiceStats s = SnapshotStats();
  snap.AddCounter("plan_cache_lookups", s.plan_lookups);
  snap.AddCounter("plan_cache_hits", s.plan_hits);
  snap.AddCounter("plan_cache_text_hits", s.plan_text_hits);
  snap.AddCounter("plan_cache_compiles", s.plan_compiles);
  snap.AddCounter("plan_cache_invalidations", s.plan_invalidations);
  snap.AddCounter("plan_cache_evictions", s.plan_evictions);
  RecyclerStats rs = recycler_.stats();
  snap.AddCounter("pool_monitored", rs.monitored);
  snap.AddCounter("pool_hits", rs.hits);
  snap.AddCounter("pool_exact_hits", rs.exact_hits);
  snap.AddCounter("pool_subsumed_hits", rs.subsumed_hits);
  snap.AddCounter("pool_admitted", rs.admitted);
  snap.AddCounter("pool_rejected", rs.rejected);
  snap.AddCounter("pool_evicted", rs.evicted);
  snap.AddCounter("pool_invalidated", rs.invalidated);
  snap.AddCounter("pool_propagated", rs.propagated);
  snap.AddCounter("pool_stale_declines", rs.stale_declines);
  snap.AddCounter("pool_time_saved_us",
                  static_cast<uint64_t>(rs.time_saved_ms * 1e3));
  snap.AddCounter("pool_borrows", s.pool_borrows);
  snap.AddCounter("pool_borrow_denied", s.pool_borrow_denied);
  snap.AddCounter("pool_rebalances", s.pool_rebalances);
  snap.AddCounter("pool_excl_locks", s.pool_excl_locks);
  snap.AddCounter("pool_shared_locks", s.pool_shared_locks);
  snap.AddCounter("pool_all_stripe_ops", s.pool_all_stripe_ops);
  snap.AddGauge("pool_stripes", s.pool_stripes);
  return snap;
}

std::string QueryService::DumpMetricsJson() const {
  return MetricsSnapshot().ToJson(obs::EventsToJsonArray(events_.Snapshot()));
}

std::string QueryService::DumpMetricsPrometheus() const {
  return MetricsSnapshot().ToPrometheus();
}

std::vector<std::shared_ptr<const obs::QueryTrace>> QueryService::RecentTraces()
    const {
  std::lock_guard<std::mutex> lock(traces_mu_);
  return {recent_traces_.begin(), recent_traces_.end()};
}

void QueryService::WorkerLoop(int worker_idx) {
  (void)worker_idx;
  // One interpreter per worker; all sessions share the one recycler. The
  // plain interpreter runs no_recycle tasks (in-transaction overlay reads):
  // overlay BATs are transaction-local fresh objects, so monitoring them
  // would pollute the shared pool with unmatchable identities.
  std::unique_ptr<ConcurrentRecycler::Session> session =
      recycler_.NewSession();
  Interpreter interp(catalog_, session.get());
  Interpreter plain_interp(catalog_);

  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }

    if (task.deadline_at_ms > 0 && NowMillis() > task.deadline_at_ms) {
      // Expired while queued: resolve without running (the submit already
      // counted it, so only the failure side is recorded here).
      c_failed_->Add(1);
      ResolveTask(&task, Status::DeadlineExceeded(
                             "query exceeded its deadline while queued"));
    } else {
      // The task carries its snapshot, so the run never touches the update
      // lock — commits proceed concurrently and this query keeps reading
      // its epoch.
      const double dequeue_ms = task.trace != nullptr ? NowMillis() : 0;
      Interpreter& run_interp = task.no_recycle ? plain_interp : interp;
      ConcurrentRecycler::Session* run_session =
          task.no_recycle ? nullptr : session.get();
      // The session records per-instruction decisions into the task's trace
      // for this run only; the pointer is cleared before the future resolves
      // so the trace is immutable once handed out.
      run_interp.set_snapshot(task.snapshot.get());
      if (run_session != nullptr) {
        run_session->set_epoch(task.snapshot->epoch());
        run_session->set_trace(task.trace.get());
      }
      auto r = run_interp.Run(*task.prog, task.params);
      run_interp.set_snapshot(nullptr);  // the snapshot dies with the task
      if (run_session != nullptr) run_session->set_trace(nullptr);
      const RunStats& rs = run_interp.last_run();
      c_instrs_->Add(rs.instrs);
      c_pool_hits_->Add(rs.pool_hits);
      c_monitored_->Add(rs.monitored);
      c_exec_us_->Add(MsToUs(rs.exec_ms));
      c_wall_us_->Add(MsToUs(rs.wall_ms));
      h_query_exec_us_->Record(MsToUs(rs.exec_ms));
      h_query_wall_us_->Record(MsToUs(rs.wall_ms));
      if (r.ok())
        c_completed_->Add(1);
      else
        c_failed_->Add(1);
      if (task.trace != nullptr) {
        c_traced_->Add(1);
        obs::QueryTrace::Span queue;
        queue.name = "queue";
        queue.dur_ms = task.enqueue_ms > 0 ? dequeue_ms - task.enqueue_ms : 0;
        obs::QueryTrace::Span exec;
        exec.name = "execute";
        exec.dur_ms = rs.wall_ms;
        exec.note = StrFormat("%d instrs, %d monitored, %d pool hits",
                              rs.instrs, rs.monitored, rs.pool_hits);
        if (!r.ok()) exec.note += " [failed: " + r.status().message() + "]";
        obs::QueryTrace::Span& root = task.trace->root();
        root.children.push_back(std::move(queue));
        root.children.push_back(std::move(exec));
        root.dur_ms = 0;
        for (const obs::QueryTrace::Span& c : root.children)
          root.dur_ms += c.dur_ms;
        if (r.ok()) r.value().trace = task.trace;
        {
          std::lock_guard<std::mutex> tlock(traces_mu_);
          recent_traces_.push_back(task.trace);
          if (recent_traces_.size() > kRecentTraceCap)
            recent_traces_.pop_front();
        }
      }
      ResolveTask(&task, std::move(r));
    }

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --outstanding_;
      if (outstanding_ == 0) drained_cv_.notify_all();
    }
  }
}

}  // namespace recycledb
