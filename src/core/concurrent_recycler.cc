#include "core/concurrent_recycler.h"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "util/str.h"
#include "util/timer.h"

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

ConcurrentRecycler::ConcurrentRecycler(RecyclerConfig cfg,
                                       ResourceGovernor* governor)
    : cfg_(cfg), shared_(cfg.admission, cfg.credits) {
  if (cfg_.pool_stripes < 1) cfg_.pool_stripes = 1;
  stripes_.reserve(cfg_.pool_stripes);
  for (size_t i = 0; i < cfg_.pool_stripes; ++i) {
    auto s = std::make_unique<Stripe>();
    s->core = std::make_unique<Recycler>(cfg_, &shared_);
    stripe_index_.emplace(s->core.get(), i);
    stripes_.push_back(std::move(s));
  }
  if (cfg_.max_entries != 0 || cfg_.max_bytes != 0) {
    // The budget lives in a governor domain and each stripe leases its max/N
    // fair share, so budgeted admission stays on the one stripe lock and
    // borrows idle capacity through the atomic ledger.
    if (governor == nullptr) {
      owned_governor_ = std::make_unique<ResourceGovernor>();
      governor = owned_governor_.get();
    }
    governor_ = governor;
    pool_domain_ = governor_->AddDomain(
        "recycle_pool", {cfg_.max_bytes, cfg_.max_entries});
    const size_t n = stripes_.size();
    for (size_t i = 0; i < n; ++i) {
      stripes_[i]->lease = pool_domain_->CreateLease(
          "stripe" + std::to_string(i), cfg_.max_bytes / n,
          cfg_.max_entries / n);
    }
    shared_.ensure_capacity = [this](Recycler* stripe, size_t bytes_needed) {
      return EnsureCapacityStriped(stripe_index_.at(stripe), bytes_needed);
    };
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
    // Fast paths still answer the governor: a stripe serving only hits (or
    // misses that never admit) must not trap budget other stripes starve
    // for. No-op without a budget or pending signal.
    MaybeServicePressure(si);
    return fast_outcome == 1;
  }
  // Possible subsumption: the DP reads candidate entries and admits the
  // rewritten result, all within this stripe (the stripe key guarantees the
  // candidate set is local). It re-probes from scratch, so a racing
  // invalidation between the two lock scopes degrades to a miss. A budget
  // charges this stripe's lease and stays local.
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

void ConcurrentRecycler::SyncLease(Stripe& s) {
  if (s.lease == nullptr) return;
  // Usage can only DROP concurrently (cross-stripe column releases under the
  // shared bookkeeping mutex); admissions raising it need this stripe's
  // exclusive lock, which the caller holds. A stale read is therefore
  // conservative: we release no more than the true slack.
  size_t use_bytes = s.core->pool().total_bytes();
  size_t use_entries = s.core->pool().num_entries();
  size_t held_bytes = s.lease->held_bytes();
  size_t held_entries = s.lease->held_entries();
  s.lease->Release(held_bytes > use_bytes ? held_bytes - use_bytes : 0,
                   held_entries > use_entries ? held_entries - use_entries : 0);
}

void ConcurrentRecycler::ServicePressureLocked(size_t stripe_idx) {
  Stripe& s = *stripes_[stripe_idx];
  ResourceGovernor::Lease* lease = s.lease;
  if (lease == nullptr) return;
  // A slack request (any starved acquisition in the domain) asks only for
  // held-above-usage capacity — returning it costs this stripe nothing.
  if (lease->SeesSlackRequest()) {
    size_t held_before = lease->held_bytes();
    SyncLease(s);
    if (events_ != nullptr && lease->held_bytes() < held_before)
      events_->Record(obs::EventKind::kSlack,
                      static_cast<uint32_t>(stripe_idx),
                      held_before - lease->held_bytes());
  }
  // Pressure (an UNDER-share stripe starved) additionally makes an
  // over-share stripe shed down to its base by stripe-local eviction, once
  // per pressure epoch.
  if (lease->SeesPressure()) {
    RecyclePool& pool = s.core->pool();
    const size_t bytes_before = pool.total_bytes();
    const double now_ms = NowMillis();
    const uint64_t protected_epoch = cfg_.protect_current_query
                                         ? s.core->ProtectedEpoch()
                                         : UINT64_MAX;
    auto on_evict = [&s](const PoolEntry& e) { s.core->NoteEviction(e); };
    if (cfg_.max_bytes != 0 && pool.total_bytes() > lease->base_bytes()) {
      EvictForMemory(&pool, cfg_.eviction, lease->base_bytes(),
                     /*bytes_needed=*/0, protected_epoch, now_ms, on_evict);
    }
    if (cfg_.max_entries != 0 &&
        pool.num_entries() > lease->base_entries()) {
      EvictForEntries(&pool, cfg_.eviction, lease->base_entries(),
                      /*need=*/0, protected_epoch, now_ms, on_evict);
    }
    SyncLease(s);
    lease->NoteRebalance();
    if (events_ != nullptr)
      events_->Record(obs::EventKind::kShed, static_cast<uint32_t>(stripe_idx),
                      bytes_before - pool.total_bytes());
  }
}

void ConcurrentRecycler::MaybeServicePressure(size_t stripe_idx) {
  Stripe& s = *stripes_[stripe_idx];
  ResourceGovernor::Lease* lease = s.lease;
  if (lease == nullptr) return;
  // Cheap relaxed peeks only; the epochs are consumed under the exclusive
  // lock. The slack peek also requires visible byte slack so hit-heavy
  // stripes with nothing to give never pay the lock upgrade.
  bool want_slack = lease->PeekSlackRequest() &&
                    lease->held_bytes() > s.core->pool().total_bytes();
  if (!want_slack && !lease->PeekPressure()) return;
  std::unique_lock lock(s.mu);
  s.excl_acq.fetch_add(1, std::memory_order_relaxed);
  ServicePressureLocked(stripe_idx);
}

bool ConcurrentRecycler::EnsureCapacityStriped(size_t stripe_idx,
                                               size_t bytes_needed) {
  Stripe& s = *stripes_[stripe_idx];
  RecyclePool& pool = s.core->pool();
  ResourceGovernor::Lease* lease = s.lease;
  const uint64_t borrows_before =
      events_ != nullptr ? lease->borrows() : 0;
  const double now_ms = NowMillis();
  const uint64_t protected_epoch = cfg_.protect_current_query
                                       ? s.core->ProtectedEpoch()
                                       : UINT64_MAX;
  auto on_evict = [&s](const PoolEntry& e) { s.core->NoteEviction(e); };

  // Held-above-usage slack (cross-stripe byte releases, admission
  // over-estimates, earlier evictions) is deliberately RETAINED: it covers
  // future admissions of this stripe without touching the domain ledger, so
  // the steady admit/evict cycle performs no acquisitions at all (and the
  // borrow counters only record actual growth beyond the fair share).
  // Slack returns to the ledger when the governor signals that someone is
  // starving — serviced here and on the probe path — or when an admission
  // is declined.
  ServicePressureLocked(stripe_idx);

  // Entry budget: one slot. Acquire from the ledger; on a dry ledger evict
  // one of our own entries — usage drops below held, so the slot is covered
  // without a ledger round-trip.
  if (cfg_.max_entries != 0 &&
      pool.num_entries() + 1 > lease->held_entries()) {
    if (!lease->TryAcquire(0, 1)) {
      EvictForEntries(&pool, cfg_.eviction, pool.num_entries(), /*need=*/1,
                      protected_epoch, now_ms, on_evict);
      if (pool.num_entries() + 1 > lease->held_entries()) {
        SyncLease(s);  // admission declined: keep nothing we don't use
        return false;
      }
    }
  }

  // Byte budget: acquire the shortfall, then evict stripe-locally for
  // whatever the ledger could not grant (freed usage stays covered by the
  // held capacity, exactly like the entry slot above).
  if (cfg_.max_bytes != 0) {
    if (bytes_needed > cfg_.max_bytes) {
      SyncLease(s);  // return the entry slot acquired above
      return false;  // oversize result can never fit
    }
    size_t usage = pool.total_bytes();
    size_t held = lease->held_bytes();
    if (usage + bytes_needed > held) {
      size_t granted = lease->AcquireBytesUpTo(usage + bytes_needed - held);
      if (usage + bytes_needed > held + granted) {
        EvictForMemory(&pool, cfg_.eviction, lease->held_bytes(), bytes_needed,
                       protected_epoch, now_ms, on_evict);
        if (pool.total_bytes() + bytes_needed > lease->held_bytes()) {
          SyncLease(s);  // admission declined: keep nothing we don't use
          return false;
        }
      }
    }
  }
  if (events_ != nullptr && lease->borrows() > borrows_before)
    events_->Record(obs::EventKind::kBorrow, static_cast<uint32_t>(stripe_idx),
                    lease->held_bytes(), lease->base_bytes());
  return true;
}

void ConcurrentRecycler::OnCatalogUpdate(const std::vector<ColumnId>& cols,
                                         uint64_t epoch) {
  auto locks = LockAllExclusive();
  // col_epochs is shared across the group: stamp once, then run the
  // per-stripe invalidation waves without re-stamping.
  stripes_[0]->core->StampColumnEpochs(cols, epoch);
  for (auto& s : stripes_) {
    s->core->OnCatalogUpdate(cols);
    SyncLease(*s);  // invalidated bytes go back to the free ledger now
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
  for (auto& s : stripes_) SyncLease(*s);
}

void ConcurrentRecycler::Clear() {
  auto locks = LockAllExclusive();
  for (auto& s : stripes_) {
    s->core->Clear();
    SyncLease(*s);
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
    if (s->lease != nullptr) s->lease->ResetCounters();
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
    if (s->lease != nullptr) {
      st.lease_base_bytes = s->lease->base_bytes();
      st.lease_held_bytes = s->lease->held_bytes();
      st.borrows = s->lease->borrows();
      st.borrow_denied = s->lease->denied();
      st.rebalances = s->lease->rebalances();
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

size_t ConcurrentRecycler::pool_encoded_bytes() const {
  size_t n = 0;
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    n += s->core->pool().encoded_bytes();
  }
  return n;
}

size_t ConcurrentRecycler::encoding_savings_bytes() const {
  size_t n = 0;
  for (auto& s : stripes_) {
    std::shared_lock lock(s->mu);
    n += s->core->pool().encoding_savings_bytes();
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
