#include "core/concurrent_recycler.h"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "util/str.h"

namespace recycledb {

namespace {

/// Bytes a hit or admission hands to (or takes from) the query: the bat
/// results' column memory. Only computed on traced paths.
uint64_t TraceResultBytes(const std::vector<MalValue>& results) {
  uint64_t n = 0;
  for (const MalValue& v : results)
    if (v.is_bat() && v.bat() != nullptr) n += v.bat()->MemoryBytes();
  return n;
}

}  // namespace

ConcurrentRecycler::ConcurrentRecycler(RecyclerConfig cfg)
    : cfg_(cfg), shared_(cfg, std::max<size_t>(cfg.pool_stripes, 1)) {
  // Each stripe charges its own max/N slot of the shared budget, so budgeted
  // admission stays on the one stripe lock and borrows idle capacity
  // through the atomic ledger.
  if (cfg_.pool_stripes < 1) cfg_.pool_stripes = 1;
  stripes_.reserve(cfg_.pool_stripes);
  for (size_t i = 0; i < cfg_.pool_stripes; ++i) {
    auto s = std::make_unique<Stripe>();
    s->core = std::make_unique<Recycler>(cfg_, &shared_, i);
    stripes_.push_back(std::move(s));
  }
}

size_t ConcurrentRecycler::StripeOf(Opcode op,
                                    const std::vector<MalValue>& args) const {
  if (stripes_.size() == 1) return 0;
  uint64_t h;
  if (!args.empty() && args[0].is_bat()) {
    // Key by (subsumption-candidate op, first-arg bat): the probe and every
    // entry that could answer it — exactly or by subsumption — co-locate.
    Opcode key_op = Recycler::SubsumptionCandidateOp(op).value_or(op);
    h = static_cast<uint64_t>(key_op) + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (args[0].bat()->id() * 0xc2b2ae3d27d4eb4fULL)) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  } else {
    h = RecyclePool::MatchHash(op, args);
  }
  return static_cast<size_t>(h % stripes_.size());
}

QueryCtx ConcurrentRecycler::SessionBegin(const Program& prog) {
  // The invocation registry lives in the shared state behind its own leaf
  // mutex, so per-query bookkeeping skips every pool lock (any stripe core
  // reaches the same registry).
  return stripes_[0]->core->BeginQueryCtx(prog);
}

void ConcurrentRecycler::SessionEnd(const QueryCtx& ctx) {
  stripes_[0]->core->EndQueryCtx(ctx);
}

bool ConcurrentRecycler::SessionOnEntry(const QueryCtx& ctx,
                                        const RecyclerHook::InstrView& instr,
                                        std::vector<MalValue>* results,
                                        obs::QueryTrace* trace) {
  size_t si = StripeOf(instr.op, *instr.args);
  Stripe& s = *stripes_[si];
  // -1: fall through to the subsumption path; 0: pure miss; 1: exact hit.
  int fast_outcome = -1;
  double fast_saved_ms = 0;
  {
    std::shared_lock lock(s.mu);
    s.shared_acq.fetch_add(1, std::memory_order_relaxed);
    // Hot path: an exact hit completes entirely under the shared lock —
    // per-entry reuse stats are atomics, the credit ledger is concurrent
    // (so CREDIT/ADAPT hits stay here too), aggregates below are ours.
    Recycler::SharedHit hit = s.core->TryExactHitShared(ctx, instr, results);
    if (hit.hit) {
      s.fast_hits.fetch_add(1, std::memory_order_relaxed);
      if (hit.local)
        s.fast_local_hits.fetch_add(1, std::memory_order_relaxed);
      else
        s.fast_global_hits.fetch_add(1, std::memory_order_relaxed);
      s.fast_saved_ns.fetch_add(static_cast<uint64_t>(hit.saved_ms * 1e6),
                                std::memory_order_relaxed);
      fast_outcome = 1;
      fast_saved_ms = hit.saved_ms;
    } else {
      // Exact match missed: a miss with no subsumption candidates — the
      // common case for cold instructions — finishes under the shared lock.
      bool maybe_subsumes = false;
      if (cfg_.enable_subsumption && !instr.args->empty() &&
          (*instr.args)[0].is_bat()) {
        std::optional<Opcode> cand_op =
            Recycler::SubsumptionCandidateOp(instr.op);
        maybe_subsumes =
            cand_op.has_value() &&
            s.core->pool().HasEntriesFor(*cand_op,
                                         (*instr.args)[0].bat()->id());
      }
      if (!maybe_subsumes) {
        // Pure miss: execute outside any lock; OnExit offers the result.
        s.fast_misses.fetch_add(1, std::memory_order_relaxed);
        fast_outcome = 0;
      }
    }
  }
  if (fast_outcome >= 0) {
    if (trace != nullptr) {
      obs::RecyclerDecision d;
      d.pc = instr.pc;
      d.op = instr.op;
      d.kind = fast_outcome == 1 ? obs::RecyclerDecision::Kind::kExactHit
                                 : obs::RecyclerDecision::Kind::kMiss;
      d.stripe = static_cast<uint32_t>(si);
      if (fast_outcome == 1) d.bytes = TraceResultBytes(*results);
      if (cfg_.admission != AdmissionKind::kKeepAll)
        d.credits =
            shared_.ledger.CreditsLeft(instr.prog->template_id, instr.pc);
      d.saved_ms = fast_saved_ms;
      trace->AddDecision(d);
    }
    // Fast paths still answer the budget: a stripe serving only hits (or
    // misses that never admit) must not trap budget other stripes starve
    // for. No-op without a budget or pending signal.
    MaybeServicePressure(si);
    return fast_outcome == 1;
  }
  // Possible subsumption: the DP reads candidate entries and admits the
  // rewritten result, all within this stripe (the stripe key guarantees the
  // candidate set is local). It re-probes from scratch, so a racing
  // invalidation between the two lock scopes degrades to a miss. A budget
  // charges this stripe's slot and stays local.
  std::unique_lock lock(s.mu);
  s.excl_acq.fetch_add(1, std::memory_order_relaxed);
  if (trace == nullptr) return s.core->OnEntryCtx(ctx, instr, results);
  RecyclerStats before = s.core->stats();
  size_t bytes_before = s.core->pool().total_bytes();
  bool hit = s.core->OnEntryCtx(ctx, instr, results);
  AppendTraceDelta(trace, instr, si, before, bytes_before,
                   /*emit_probe=*/true, hit,
                   hit ? TraceResultBytes(*results) : 0);
  return hit;
}

void ConcurrentRecycler::SessionOnExit(const QueryCtx& ctx,
                                       const RecyclerHook::InstrView& instr,
                                       const std::vector<MalValue>& results,
                                       double cpu_ms,
                                       const std::vector<ColumnId>& deps,
                                       obs::QueryTrace* trace) {
  size_t si = StripeOf(instr.op, *instr.args);
  Stripe& s = *stripes_[si];
  std::unique_lock lock(s.mu);
  s.excl_acq.fetch_add(1, std::memory_order_relaxed);
  if (trace == nullptr) {
    s.core->OnExitCtx(ctx, instr, results, cpu_ms, deps);
    return;
  }
  RecyclerStats before = s.core->stats();
  size_t bytes_before = s.core->pool().total_bytes();
  s.core->OnExitCtx(ctx, instr, results, cpu_ms, deps);
  AppendTraceDelta(trace, instr, si, before, bytes_before,
                   /*emit_probe=*/false, /*hit=*/false,
                   TraceResultBytes(results));
}

void ConcurrentRecycler::AppendTraceDelta(
    obs::QueryTrace* trace, const RecyclerHook::InstrView& instr,
    size_t stripe_idx, const RecyclerStats& before, size_t bytes_before,
    bool emit_probe, bool hit, uint64_t hit_bytes) {
  // Lock-free reads, safe because the caller holds the stripe's exclusive
  // lock and admission/eviction stay stripe-local.
  const Recycler& core = *stripes_[stripe_idx]->core;
  RecyclerStats after = core.stats();
  size_t bytes_after = core.pool().total_bytes();
  int credits = -1;
  if (cfg_.admission != AdmissionKind::kKeepAll)
    credits = shared_.ledger.CreditsLeft(instr.prog->template_id, instr.pc);

  auto base = [&](obs::RecyclerDecision::Kind kind) {
    obs::RecyclerDecision d;
    d.pc = instr.pc;
    d.op = instr.op;
    d.kind = kind;
    d.stripe = static_cast<uint32_t>(stripe_idx);
    d.credits = credits;
    return d;
  };

  if (emit_probe) {
    // Entry side: exactly one probe-outcome record per monitored execution.
    obs::RecyclerDecision d =
        base(hit ? (after.exact_hits > before.exact_hits
                        ? obs::RecyclerDecision::Kind::kExactHit
                        : obs::RecyclerDecision::Kind::kSubsumedHit)
                 : obs::RecyclerDecision::Kind::kMiss);
    d.bytes = hit_bytes;
    d.saved_ms = after.time_saved_ms - before.time_saved_ms;
    trace->AddDecision(d);
  }
  // Admission outcome (subsumption admits its rewritten result on the entry
  // side; recycleExit admits the executed result).
  if (after.admitted > before.admitted) {
    obs::RecyclerDecision d = base(obs::RecyclerDecision::Kind::kAdmit);
    d.bytes = hit_bytes;
    trace->AddDecision(d);
  } else if (after.rejected > before.rejected) {
    trace->AddDecision(base(obs::RecyclerDecision::Kind::kDecline));
  }
  if (after.evicted > before.evicted) {
    obs::RecyclerDecision d = base(obs::RecyclerDecision::Kind::kEvictVictim);
    d.count = after.evicted - before.evicted;
    d.bytes = bytes_before > bytes_after ? bytes_before - bytes_after : 0;
    trace->AddDecision(d);
  }
}

std::vector<std::unique_lock<std::shared_mutex>>
ConcurrentRecycler::LockAllExclusive() {
  all_stripe_ops_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(stripes_.size());
  for (auto& s : stripes_) {
    locks.emplace_back(s->mu);  // fixed index order: deadlock-free
    s->excl_acq.fetch_add(1, std::memory_order_relaxed);
  }
  return locks;
}

void ConcurrentRecycler::MaybeServicePressure(size_t stripe_idx) {
  Stripe& s = *stripes_[stripe_idx];
  // Cheap relaxed peeks only; the epochs are consumed under the exclusive
  // lock.
  if (!s.core->BudgetSignalPending()) return;
  std::unique_lock lock(s.mu);
  s.excl_acq.fetch_add(1, std::memory_order_relaxed);
  s.core->ServiceBudgetSignals();
}

void ConcurrentRecycler::OnCatalogUpdate(const std::vector<ColumnId>& cols,
                                         uint64_t epoch) {
  auto locks = LockAllExclusive();
  // col_epochs is shared across the group: stamp once, then run the
  // per-stripe invalidation waves without re-stamping.
  stripes_[0]->core->StampColumnEpochs(cols, epoch);
  for (auto& s : stripes_) {
    s->core->OnCatalogUpdate(cols);
    s->core->ReturnBudgetSlack();  // invalidated bytes go back to the ledger
  }
}

void ConcurrentRecycler::PropagateUpdate(Catalog* catalog,
                                         const std::vector<ColumnId>& cols,
                                         uint64_t epoch) {
  auto locks = LockAllExclusive();
  // Stamp before collecting refreshes: AdmitRefresh below computes each
  // re-admitted entry's valid_from from col_epochs, and the refreshed
  // results include the fresh delta, which readers on older snapshots must
  // not see.
  stripes_[0]->core->StampColumnEpochs(cols, epoch);
  // The bind entry that produced a selection's argument may live in another
  // stripe; the producer registry is shared, so any stripe's pool resolves
  // it group-wide.
  auto producer_of = [this](uint64_t bat_id) -> PoolEntry* {
    return stripes_[0]->core->pool().ProducerOf(bat_id);
  };
  std::vector<Recycler::Refresh> refreshes;
  for (auto& s : stripes_) {
    auto part = s->core->CollectRefreshes(catalog, cols, producer_of);
    for (auto& r : part) refreshes.push_back(std::move(r));
  }
  for (auto& s : stripes_) s->core->OnCatalogUpdate(cols);
  // Re-admission is routed by the refreshed instruction's key: the fresh
  // bind bat may hash the selection into a different stripe than before.
  for (auto& r : refreshes) {
    size_t si = StripeOf(r.op, r.args);
    stripes_[si]->core->AdmitRefresh(std::move(r));
  }
  for (auto& s : stripes_) s->core->ReturnBudgetSlack();
}

void ConcurrentRecycler::Clear() {
  auto locks = LockAllExclusive();
  for (auto& s : stripes_) {
    s->core->Clear();
    s->core->ReturnBudgetSlack();
  }
}

void ConcurrentRecycler::ResetStats() {
  auto locks = LockAllExclusive();
  for (auto& s : stripes_) {
    s->core->ResetStats();
    s->fast_misses.store(0, std::memory_order_relaxed);
    s->fast_hits.store(0, std::memory_order_relaxed);
    s->fast_local_hits.store(0, std::memory_order_relaxed);
    s->fast_global_hits.store(0, std::memory_order_relaxed);
    s->fast_saved_ns.store(0, std::memory_order_relaxed);
    s->excl_acq.store(0, std::memory_order_relaxed);
    s->shared_acq.store(0, std::memory_order_relaxed);
  }
  all_stripe_ops_.store(0, std::memory_order_relaxed);
}

RecyclerStats ConcurrentRecycler::stats() const {
  RecyclerStats out;
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    out += s->core->stats();
    uint64_t fh = s->fast_hits.load(std::memory_order_relaxed);
    out.monitored += s->fast_misses.load(std::memory_order_relaxed) + fh;
    out.hits += fh;
    out.exact_hits += fh;
    out.local_hits += s->fast_local_hits.load(std::memory_order_relaxed);
    out.global_hits += s->fast_global_hits.load(std::memory_order_relaxed);
    out.time_saved_ms +=
        static_cast<double>(s->fast_saved_ns.load(std::memory_order_relaxed)) /
        1e6;
  }
  return out;
}

std::vector<ConcurrentRecycler::StripeStats> ConcurrentRecycler::stripe_stats()
    const {
  std::vector<StripeStats> out;
  out.reserve(stripes_.size());
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    StripeStats st;
    st.entries = s->core->pool().num_entries();
    st.bytes = s->core->pool().total_bytes();
    st.excl_acquisitions = s->excl_acq.load(std::memory_order_relaxed);
    st.shared_acquisitions = s->shared_acq.load(std::memory_order_relaxed);
    st.hits = s->core->stats().hits +
              s->fast_hits.load(std::memory_order_relaxed);
    st.admitted = s->core->stats().admitted;
    st.evicted = s->core->stats().evicted;
    if (const PoolBudget::Slot* slot = s->core->budget_slot_) {
      st.budget_base_bytes = slot->base_bytes();
      st.budget_held_bytes = slot->held_bytes();
      st.borrows = slot->borrows();
      st.borrow_denied = slot->denied();
      st.rebalances = slot->rebalances();
    }
    out.push_back(st);
  }
  return out;
}

std::vector<std::string> ConcurrentRecycler::ContentSignature() const {
  std::vector<std::string> out;
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    const RecyclePool& pool = s->core->pool();
    for (const PoolEntry* e : pool.Entries())
      out.push_back(RecyclePool::EntrySignature(*e));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BatPtr> ConcurrentRecycler::ResultBats() const {
  std::vector<BatPtr> out;
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    for (const PoolEntry* e : s->core->pool().Entries()) {
      for (const MalValue& v : e->results) {
        if (v.is_bat()) out.push_back(v.bat());
      }
    }
  }
  return out;
}

size_t ConcurrentRecycler::pool_entries() const {
  size_t n = 0;
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    n += s->core->pool().num_entries();
  }
  return n;
}

size_t ConcurrentRecycler::pool_bytes() const {
  size_t n = 0;
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    n += s->core->pool().total_bytes();
  }
  return n;
}

std::string ConcurrentRecycler::DumpPool(size_t max_entries) const {
  std::ostringstream os;
  os << StrFormat("striped recycle pool: %zu stripes, %zu entries, %.2f MB\n",
                  stripes_.size(), pool_entries(),
                  static_cast<double>(pool_bytes()) / (1024.0 * 1024.0));
  size_t budget = max_entries;
  for (size_t i = 0; i < stripes_.size(); ++i) {
    std::shared_lock lock(stripes_[i]->mu);
    const RecyclePool& pool = stripes_[i]->core->pool();
    if (pool.num_entries() == 0) continue;
    os << StrFormat("stripe %zu:\n", i);
    os << pool.Dump(budget);
    budget -= std::min(budget, pool.num_entries());
    if (budget == 0) break;
  }
  return os.str();
}

}  // namespace recycledb
