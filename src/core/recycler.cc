#include "core/recycler.h"

#include <algorithm>

#include "engine/operators.h"
#include "obs/event_ring.h"
#include "util/timer.h"

namespace recycledb {

Recycler::Recycler(RecyclerConfig cfg) : Recycler(cfg, nullptr, 0) {}

Recycler::Recycler(RecyclerConfig cfg, RecyclerSharedState* shared,
                   size_t stripe)
    : cfg_(cfg),
      owned_shared_(shared == nullptr
                        ? std::make_unique<RecyclerSharedState>(cfg, 1)
                        : nullptr),
      shared_(shared == nullptr ? owned_shared_.get() : shared),
      stripe_(stripe),
      budget_slot_(shared_->budget != nullptr ? &shared_->budget->slot(stripe)
                                              : nullptr),
      pool_(&shared_->pool_shared),
      subsume_(&pool_, SubsumptionEngine::Options{
                           cfg.enable_combined_subsumption}) {}

QueryCtx Recycler::BeginQueryCtx(const Program& prog) {
  (void)prog;
  QueryCtx ctx;
  ctx.query_id = ++shared_->query_seq;
  std::lock_guard<std::mutex> lock(shared_->active_mu);
  shared_->active_queries.push_back(ctx.query_id);
  return ctx;
}

void Recycler::EndQueryCtx(const QueryCtx& ctx) {
  std::lock_guard<std::mutex> lock(shared_->active_mu);
  auto it = std::find(shared_->active_queries.begin(),
                      shared_->active_queries.end(), ctx.query_id);
  if (it != shared_->active_queries.end()) shared_->active_queries.erase(it);
}

uint64_t Recycler::ProtectedEpoch() const {
  std::lock_guard<std::mutex> lock(shared_->active_mu);
  if (shared_->active_queries.empty()) return UINT64_MAX;
  return *std::min_element(shared_->active_queries.begin(),
                           shared_->active_queries.end());
}

void Recycler::BeginQuery(const Program& prog) {
  cur_ctx_ = BeginQueryCtx(prog);
}

void Recycler::EndQuery() {
  EndQueryCtx(cur_ctx_);
  cur_ctx_ = QueryCtx();
}

bool Recycler::OnEntry(const InstrView& instr, std::vector<MalValue>* results) {
  return OnEntryCtx(cur_ctx_, instr, results);
}

void Recycler::OnExit(const InstrView& instr,
                      const std::vector<MalValue>& results, double cpu_ms,
                      const std::vector<ColumnId>& deps) {
  OnExitCtx(cur_ctx_, instr, results, cpu_ms, deps);
}

void Recycler::RecordHit(const QueryCtx& ctx, PoolEntry* e, bool exact) {
  bool local = e->admit_query == ctx.query_id;
  ++e->reuses;
  if (local)
    e->local_reuse = true;
  else
    e->global_reuse = true;
  e->last_use_seq = ++shared_->clock;
  e->last_query = ctx.query_id;
  shared_->ledger.NoteReuse(e->source_tid, e->source_pc, local);
  ++stats_.hits;
  if (exact) ++stats_.exact_hits;
  if (local)
    ++stats_.local_hits;
  else
    ++stats_.global_hits;
  if (exact) stats_.time_saved_ms += e->cost_ms;
}

std::optional<Opcode> Recycler::SubsumptionCandidateOp(Opcode op) {
  switch (op) {
    case Opcode::kSelect:
    case Opcode::kUselect:
      return Opcode::kSelect;  // TrySelect enumerates kSelect entries
    case Opcode::kLikeSelect:
      return Opcode::kLikeSelect;
    case Opcode::kSemijoin:
      return Opcode::kSemijoin;
    default:
      return std::nullopt;
  }
}

Recycler::SharedHit Recycler::TryExactHitShared(const QueryCtx& ctx,
                                                const InstrView& instr,
                                                std::vector<MalValue>* results) {
  SharedHit out;
  PoolEntry* e = pool_.FindExact(instr.op, *instr.args, ctx.epoch);
  if (e == nullptr) return out;
  *results = e->results;  // shared_ptr copies: safe against later eviction
  bool local = e->admit_query == ctx.query_id;
  e->reuses.fetch_add(1, std::memory_order_relaxed);
  if (local)
    e->local_reuse.store(true, std::memory_order_relaxed);
  else
    e->global_reuse.store(true, std::memory_order_relaxed);
  e->last_use_seq.store(
      shared_->clock.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  e->last_query.store(ctx.query_id, std::memory_order_relaxed);
  // The concurrent ledger makes the credit-regime hit path shared-lock safe:
  // the refund is an atomic increment on the source's counter.
  shared_->ledger.NoteReuse(e->source_tid, e->source_pc, local);
  out.hit = true;
  out.local = local;
  out.saved_ms = e->cost_ms;
  return out;
}

bool Recycler::OnEntryCtx(const QueryCtx& ctx, const InstrView& instr,
                          std::vector<MalValue>* results) {
  ++stats_.monitored;
  StopWatch match_watch;

  PoolEntry* e = pool_.FindExact(instr.op, *instr.args, ctx.epoch);
  if (e != nullptr) {
    *results = e->results;
    RecordHit(ctx, e, /*exact=*/true);
    stats_.match_ms += match_watch.ElapsedMillis();
    return true;
  }
  stats_.match_ms += match_watch.ElapsedMillis();

  if (!cfg_.enable_subsumption) return false;

  std::optional<SubsumeOutcome> outcome;
  double combined_ms = 0;
  StopWatch subsume_watch;
  switch (instr.op) {
    case Opcode::kSelect:
    case Opcode::kUselect:
      outcome =
          subsume_.TrySelect(instr.op, *instr.args, ctx.epoch, &combined_ms);
      break;
    case Opcode::kLikeSelect:
      outcome = subsume_.TryLike(*instr.args, ctx.epoch);
      break;
    case Opcode::kSemijoin:
      outcome = subsume_.TrySemijoin(*instr.args, ctx.epoch);
      break;
    default:
      break;
  }
  // Every combined attempt is charged, including the ones that find no
  // cover cheaper than the regular select.
  stats_.subsume_alg_ms += combined_ms;
  stats_.max_subsume_alg_ms = std::max(stats_.max_subsume_alg_ms, combined_ms);
  if (!outcome.has_value()) return false;

  double subsumed_exec_ms = subsume_watch.ElapsedMillis();
  ++stats_.hits;
  if (outcome->combined) {
    ++stats_.combined_hits;
  } else {
    ++stats_.subsumed_hits;
  }

  // Account reuse on the sources and classify locality by the closest one.
  bool any_local = false;
  std::vector<ColumnId> deps;
  for (PoolEntry* src : outcome->sources) {
    ++src->subsumption_uses;
    src->last_use_seq = ++shared_->clock;
    bool local = src->admit_query == ctx.query_id;
    src->last_query = ctx.query_id;
    any_local |= local;
    for (const ColumnId& d : src->deps) {
      if (std::find(deps.begin(), deps.end(), d) == deps.end())
        deps.push_back(d);
    }
  }
  std::sort(deps.begin(), deps.end());
  if (any_local)
    ++stats_.local_hits;
  else
    ++stats_.global_hits;

  // The modified instruction's result enters the pool under the prevailing
  // admission policy (§5.1), and the subset lattice learns the new edges:
  // both result ⊆ column-operand (via AdmitResult) and result ⊆ source
  // intermediate, which later enables semijoin subsumption (W ⊂ V). A
  // combined result (§5.2) is a subset of the union of its sources only,
  // not of each one, so it gains no source edge.
  // Capture the source bat ids first: AdmitResult may evict the source
  // entries (bounded pool, §4.3 all-leaves-protected fallback), and the
  // lattice keys on bat ids, not entries.
  std::vector<uint64_t> source_bats;
  for (PoolEntry* src : outcome->sources) {
    if (!outcome->combined && !src->results.empty() &&
        src->results[0].is_bat())
      source_bats.push_back(src->results[0].bat()->id());
  }
  AdmitResult(ctx, instr, outcome->results, subsumed_exec_ms, deps,
              outcome->sources);
  if (!outcome->results.empty() && outcome->results[0].is_bat()) {
    for (uint64_t src_bat : source_bats) {
      pool_.AddSubsetEdge(outcome->results[0].bat()->id(), src_bat);
    }
  }

  *results = outcome->results;
  return true;
}

void Recycler::OnExitCtx(const QueryCtx& ctx, const InstrView& instr,
                         const std::vector<MalValue>& results, double cpu_ms,
                         const std::vector<ColumnId>& deps) {
  AdmitResult(ctx, instr, results, cpu_ms, deps, {});
}

size_t Recycler::EstimateNewBytes(const std::vector<MalValue>& results) const {
  size_t bytes = 0;
  for (const MalValue& v : results) {
    if (v.is_bat()) bytes += v.bat()->MemoryBytes();
  }
  return bytes;
}

bool Recycler::AdmitResult(const QueryCtx& ctx, const InstrView& instr,
                           const std::vector<MalValue>& results,
                           double cost_ms, const std::vector<ColumnId>& deps,
                           const std::vector<PoolEntry*>& extra_sources) {
  (void)extra_sources;  // sources are kept alive via column borrow edges
  // A racing invocation may have admitted the same instruction while this
  // one executed it (both missed, both ran). Keep the incumbent: its entry
  // may already have reuse statistics, and duplicate keys would make exact
  // matching ambiguous. Deliberately unfiltered by epoch: even an entry the
  // probing snapshot cannot see blocks admission — the pool must never hold
  // two entries under one key with divergent results.
  if (pool_.FindExact(instr.op, *instr.args) != nullptr) {
    ++stats_.rejected;
    return false;
  }
  // MVCC staleness gate: a snapshot reader whose dependencies were touched
  // by a later commit computed a result that may miss committed rows; it
  // must not enter the pool where a newer query could match it.
  const uint64_t valid_from = ValidFromFor(deps);
  if (ctx.epoch != kEpochLatest && ctx.epoch < valid_from) {
    ++stats_.rejected;
    ++stats_.stale_declines;
    return false;
  }
  if (!shared_->ledger.TryAdmit(instr.prog->template_id, instr.pc)) {
    ++stats_.rejected;
    return false;
  }
  size_t bytes_needed = EstimateNewBytes(results);
  if (!EnsureCapacity(bytes_needed)) {
    ++stats_.rejected;
    return false;
  }

  PoolEntry e;
  e.op = instr.op;
  e.args = *instr.args;
  e.results = results;
  e.cost_ms = cost_ms;
  e.result_rows =
      (!results.empty() && results[0].is_bat()) ? results[0].bat()->size() : 0;
  e.admit_seq = ++shared_->clock;
  e.last_use_seq = e.admit_seq;
  e.admit_ms = NowMillis();
  e.admit_query = ctx.query_id;
  e.last_query = ctx.query_id;
  e.source_tid = instr.prog->template_id;
  e.source_pc = instr.pc;
  e.valid_from = valid_from;
  e.deps = deps;
  pool_.Admit(std::move(e));
  ++stats_.admitted;

  AddSubsetEdges(instr.op, *instr.args, results);
  return true;
}

void Recycler::AddSubsetEdges(Opcode op, const std::vector<MalValue>& args,
                              const std::vector<MalValue>& results) {
  // Selection-family results are subsets of their column operand: the
  // semijoin-subsumption test W ⊂ V walks these edges (§5.1).
  switch (op) {
    case Opcode::kSelect:
    case Opcode::kUselect:
    case Opcode::kAntiUselect:
    case Opcode::kLikeSelect:
    case Opcode::kSelectNotNil:
    case Opcode::kSemijoin:
    case Opcode::kSlice:
    case Opcode::kKunique:
      if (!args.empty() && args[0].is_bat() && !results.empty() &&
          results[0].is_bat()) {
        pool_.AddSubsetEdge(results[0].bat()->id(), args[0].bat()->id());
      }
      break;
    default:
      break;
  }
}

void Recycler::NoteEviction(const PoolEntry& e) {
  ++stats_.evicted;
  shared_->ledger.NoteEviction(e.source_tid, e.source_pc, e.global_reuse);
}

bool Recycler::EnsureCapacity(size_t bytes_needed) {
  PoolBudget::Slot* slot = budget_slot_;
  if (slot == nullptr) return true;  // no budget configured
  const uint64_t borrows_before =
      shared_->events != nullptr ? slot->borrows() : 0;
  const double now_ms = NowMillis();
  const uint64_t protected_epoch =
      cfg_.protect_current_query ? ProtectedEpoch() : UINT64_MAX;
  auto on_evict = [this](const PoolEntry& e) { NoteEviction(e); };

  // Held-above-usage slack (cross-stripe byte releases, admission
  // over-estimates, earlier evictions) is deliberately RETAINED: it covers
  // future admissions of this stripe without touching the free ledger, so
  // the steady admit/evict cycle performs no acquisitions at all (and the
  // borrow counters only record actual growth beyond the base share).
  // Slack returns to the ledger when the budget signals that a stripe is
  // starving — serviced here and on the probe path — or when an admission
  // is declined.
  ServiceBudgetSignals();

  // Entry budget: one entry. Acquire it from the ledger; on a dry ledger
  // evict one of our own entries — usage drops below held, so the entry is
  // covered without a ledger round-trip.
  if (cfg_.max_entries != 0 &&
      pool_.num_entries() + 1 > slot->held_entries()) {
    if (!slot->TryAcquireEntry()) {
      EvictForEntries(&pool_, cfg_.eviction, pool_.num_entries(), /*need=*/1,
                      protected_epoch, now_ms, on_evict);
      if (pool_.num_entries() + 1 > slot->held_entries()) {
        ReturnBudgetSlack();  // admission declined: keep nothing unused
        return false;
      }
    }
  }

  // Byte budget: acquire the shortfall, then evict locally for whatever the
  // ledger could not grant (freed usage stays covered by the held capacity,
  // exactly like the entry above).
  if (cfg_.max_bytes != 0) {
    if (bytes_needed > cfg_.max_bytes) {
      ReturnBudgetSlack();  // return the entry acquired above
      return false;         // oversize result can never fit
    }
    size_t usage = pool_.total_bytes();
    size_t held = slot->held_bytes();
    if (usage + bytes_needed > held) {
      size_t granted = slot->AcquireBytesUpTo(usage + bytes_needed - held);
      if (usage + bytes_needed > held + granted) {
        EvictForMemory(&pool_, cfg_.eviction, slot->held_bytes(),
                       bytes_needed, protected_epoch, now_ms, on_evict);
        if (pool_.total_bytes() + bytes_needed > slot->held_bytes()) {
          ReturnBudgetSlack();  // admission declined: keep nothing unused
          return false;
        }
      }
    }
  }
  if (shared_->events != nullptr && slot->borrows() > borrows_before)
    shared_->events->Record(obs::EventKind::kBorrow,
                            static_cast<uint32_t>(stripe_),
                            slot->held_bytes(), slot->base_bytes());
  return true;
}

void Recycler::ReturnBudgetSlack() {
  PoolBudget::Slot* slot = budget_slot_;
  if (slot == nullptr) return;
  // Usage can only DROP concurrently (cross-stripe column releases under the
  // shared bookkeeping mutex); admissions raising it need this stripe's
  // exclusive lock, which the caller holds. A stale read is therefore
  // conservative: we release no more than the true slack.
  size_t use_bytes = pool_.total_bytes();
  size_t use_entries = pool_.num_entries();
  size_t held_bytes = slot->held_bytes();
  size_t held_entries = slot->held_entries();
  slot->Release(held_bytes > use_bytes ? held_bytes - use_bytes : 0,
                held_entries > use_entries ? held_entries - use_entries : 0);
}

void Recycler::ServiceBudgetSignals() {
  PoolBudget::Slot* slot = budget_slot_;
  if (slot == nullptr) return;
  obs::EventRing* events = shared_->events;
  // A slack request (any starved acquisition) asks only for held-above-usage
  // capacity — returning it costs this stripe nothing.
  if (slot->SeesSlackRequest()) {
    size_t held_before = slot->held_bytes();
    ReturnBudgetSlack();
    if (events != nullptr && slot->held_bytes() < held_before)
      events->Record(obs::EventKind::kSlack, static_cast<uint32_t>(stripe_),
                     held_before - slot->held_bytes());
  }
  // Pressure (an UNDER-share stripe starved) additionally makes an
  // over-share stripe shed down to its base by local eviction, once per
  // pressure epoch.
  if (slot->SeesPressure()) {
    const size_t bytes_before = pool_.total_bytes();
    const double now_ms = NowMillis();
    const uint64_t protected_epoch =
        cfg_.protect_current_query ? ProtectedEpoch() : UINT64_MAX;
    auto on_evict = [this](const PoolEntry& e) { NoteEviction(e); };
    if (cfg_.max_bytes != 0 && pool_.total_bytes() > slot->base_bytes()) {
      EvictForMemory(&pool_, cfg_.eviction, slot->base_bytes(),
                     /*bytes_needed=*/0, protected_epoch, now_ms, on_evict);
    }
    if (cfg_.max_entries != 0 && pool_.num_entries() > slot->base_entries()) {
      EvictForEntries(&pool_, cfg_.eviction, slot->base_entries(),
                      /*need=*/0, protected_epoch, now_ms, on_evict);
    }
    ReturnBudgetSlack();
    slot->NoteRebalance();
    if (events != nullptr)
      events->Record(obs::EventKind::kShed, static_cast<uint32_t>(stripe_),
                     bytes_before - pool_.total_bytes());
  }
}

bool Recycler::BudgetSignalPending() const {
  const PoolBudget::Slot* slot = budget_slot_;
  if (slot == nullptr) return false;
  // The slack peek also requires visible byte slack, so hit-heavy stripes
  // with nothing to give never pay a lock upgrade.
  return (slot->PeekSlackRequest() &&
          slot->held_bytes() > pool_.total_bytes()) ||
         slot->PeekPressure();
}

uint64_t Recycler::ValidFromFor(const std::vector<ColumnId>& deps) const {
  std::lock_guard<std::mutex> lock(shared_->epoch_mu);
  uint64_t floor = 0;
  for (const ColumnId& d : deps) {
    auto it = shared_->col_epochs.find(d);
    if (it != shared_->col_epochs.end() && it->second > floor)
      floor = it->second;
  }
  return floor;
}

void Recycler::StampColumnEpochs(const std::vector<ColumnId>& cols,
                                 uint64_t epoch) {
  if (epoch == 0) return;
  std::lock_guard<std::mutex> lock(shared_->epoch_mu);
  for (const ColumnId& c : cols) {
    uint64_t& slot = shared_->col_epochs[c];
    if (epoch > slot) slot = epoch;
  }
}

void Recycler::OnCatalogUpdate(const std::vector<ColumnId>& cols,
                               uint64_t epoch) {
  StampColumnEpochs(cols, epoch);
  stats_.invalidated += pool_.InvalidateColumns(cols);
}

std::vector<Recycler::Refresh> Recycler::CollectRefreshes(
    Catalog* catalog, const std::vector<ColumnId>& cols,
    const std::function<PoolEntry*(uint64_t)>& producer_of) {
  // Collect affected entries, separating refreshable select-over-bind
  // entries (single-column dependency, insert-only delta available) from
  // the rest.
  std::vector<Refresh> refreshes;

  for (PoolEntry* e : pool_.Entries()) {
    bool affected = false;
    for (const ColumnId& d : e->deps) {
      for (const ColumnId& c : cols) {
        if (d == c) affected = true;
      }
    }
    if (!affected) continue;
    // The whole selection family over a bind is refreshable: range selects
    // (kSelect), equality selects (kUselect), and LIKE selects — each is a
    // pure per-row predicate, so running it over the insert delta and
    // appending reproduces a run over the grown column. Anything else (or a
    // multi-column dependency) is invalidated.
    if (e->deps.size() != 1) continue;
    if (e->op != Opcode::kSelect && e->op != Opcode::kUselect &&
        e->op != Opcode::kLikeSelect)
      continue;
    // Identify the bind instruction that produced arg0 (possibly admitted
    // in a different stripe, hence the indirection).
    if (e->args.empty() || !e->args[0].is_bat()) continue;
    PoolEntry* bind = producer_of(e->args[0].bat()->id());
    if (bind == nullptr || bind->op != Opcode::kBind) continue;
    const std::string& table = bind->args[1].scalar().AsStr();
    const std::string& column = bind->args[2].scalar().AsStr();
    auto delta = catalog->LastInsertDelta(table, column);
    if (!delta.ok()) continue;  // deletes or no insert delta: invalidate
    if (!catalog->LastCommitInsertOnly(table)) continue;

    // Execute the selection over the delta only and append (§6.3).
    Result<BatPtr> piece = Status::Internal("unreachable");
    switch (e->op) {
      case Opcode::kSelect:
        piece = engine::Select(delta.value(), e->args[1].scalar(),
                               e->args[2].scalar(), e->args[3].scalar().AsBit(),
                               e->args[4].scalar().AsBit());
        break;
      case Opcode::kUselect:
        piece = engine::Uselect(delta.value(), e->args[1].scalar());
        break;
      case Opcode::kLikeSelect:
        piece = engine::LikeSelect(delta.value(), e->args[1].scalar().AsStr());
        break;
      default:
        continue;
    }
    if (!piece.ok()) continue;
    auto fresh_bind = catalog->BindColumn(table, column);
    if (!fresh_bind.ok()) continue;

    Refresh r;
    r.op = e->op;
    r.args = e->args;
    r.args[0] = MalValue(fresh_bind.value());
    if (piece.value()->size() == 0) {
      // No delta row qualifies: the old result is the refreshed one.
      r.results.push_back(e->results[0]);
    } else {
      auto merged =
          engine::Concat({e->results[0].bat(), std::move(piece).value()});
      if (!merged.ok()) continue;
      r.results.emplace_back(std::move(merged).value());
    }
    r.cost_ms = e->cost_ms;
    r.deps = e->deps;
    r.source_tid = e->source_tid;
    r.source_pc = e->source_pc;
    refreshes.push_back(std::move(r));
  }
  return refreshes;
}

void Recycler::AdmitRefresh(Refresh r) {
  if (!EnsureCapacity(EstimateNewBytes(r.results))) return;
  PoolEntry e;
  e.op = r.op;
  e.args = std::move(r.args);
  e.results = std::move(r.results);
  e.cost_ms = r.cost_ms;
  e.result_rows = e.results[0].bat()->size();
  e.admit_seq = ++shared_->clock;
  e.last_use_seq = e.admit_seq;
  e.admit_ms = NowMillis();
  e.admit_query = shared_->query_seq.load(std::memory_order_relaxed);
  e.last_query = e.admit_query;
  e.source_tid = r.source_tid;
  e.source_pc = r.source_pc;
  e.valid_from = ValidFromFor(r.deps);
  e.deps = std::move(r.deps);
  AddSubsetEdges(e.op, e.args, e.results);
  pool_.Admit(std::move(e));
  ++stats_.propagated;
}

void Recycler::PropagateUpdate(Catalog* catalog,
                               const std::vector<ColumnId>& cols,
                               uint64_t epoch) {
  // Stamp first: the refreshed entries are re-admitted below and must carry
  // the new validity floor (their merged results include the fresh delta,
  // which readers on older snapshots must not see).
  StampColumnEpochs(cols, epoch);
  std::vector<Refresh> refreshes = CollectRefreshes(
      catalog, cols, [this](uint64_t bat_id) { return pool_.ProducerOf(bat_id); });

  // Drop the affected subtree wholesale, then re-admit the refreshed
  // selections against the new binds.
  stats_.invalidated += pool_.InvalidateColumns(cols);

  for (Refresh& r : refreshes) AdmitRefresh(std::move(r));
}

void Recycler::Clear() { pool_.Clear(); }

}  // namespace recycledb
