#include "core/policies.h"

#include <algorithm>
#include <limits>

namespace recycledb {

const char* AdmissionName(AdmissionKind k) {
  switch (k) {
    case AdmissionKind::kKeepAll:
      return "KEEPALL";
    case AdmissionKind::kCredit:
      return "CREDIT";
    case AdmissionKind::kAdaptiveCredit:
      return "ADAPT";
  }
  return "?";
}

const char* EvictionName(EvictionKind k) {
  switch (k) {
    case EvictionKind::kLru:
      return "LRU";
    case EvictionKind::kBenefit:
      return "BP";
    case EvictionKind::kHistory:
      return "HP";
  }
  return "?";
}

CreditLedger::Source& CreditLedger::Lookup(uint64_t tid, int pc) {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = sources_.find({tid, pc});
  if (it == sources_.end()) {
    it = sources_
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(tid, pc),
                      std::forward_as_tuple(initial_))
             .first;
  }
  return it->second;  // map nodes are pointer-stable; counters are atomic
}

bool CreditLedger::TryAdmit(uint64_t tid, int pc) {
  if (kind_ == AdmissionKind::kKeepAll) return true;
  Source& s = Lookup(tid, pc);
  int inv = s.invocations.fetch_add(1, std::memory_order_relaxed) + 1;
  if (kind_ == AdmissionKind::kAdaptiveCredit && inv > initial_) {
    // Graduation point: proven sources get unlimited credits, the rest are
    // cut off (paper §7.2).
    return s.reused.load(std::memory_order_relaxed);
  }
  // CAS debit: never take the counter below zero under concurrent admits.
  int c = s.credits.load(std::memory_order_relaxed);
  while (c > 0) {
    if (s.credits.compare_exchange_weak(c, c - 1, std::memory_order_relaxed))
      return true;
  }
  return false;
}

void CreditLedger::NoteReuse(uint64_t tid, int pc, bool local) {
  if (kind_ == AdmissionKind::kKeepAll) return;
  Source& s = Lookup(tid, pc);
  s.reused.store(true, std::memory_order_relaxed);
  if (local)  // local reuse returns the credit immediately
    s.credits.fetch_add(1, std::memory_order_relaxed);
}

void CreditLedger::NoteEviction(uint64_t tid, int pc, bool had_global_reuse) {
  if (kind_ == AdmissionKind::kKeepAll) return;
  if (!had_global_reuse) return;
  Source& s = Lookup(tid, pc);
  // A globally reused instance returns its credit on eviction.
  s.credits.fetch_add(1, std::memory_order_relaxed);
}

int CreditLedger::CreditsLeft(uint64_t tid, int pc) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = sources_.find({tid, pc});
  return it == sources_.end()
             ? initial_
             : it->second.credits.load(std::memory_order_relaxed);
}

double EntryBenefit(const PoolEntry& e, EvictionKind kind, double now_ms) {
  // Weight per Eq. 2: proven (globally reused) intermediates weigh their
  // reuse count; unreused or only-locally-reused ones weigh 0.1.
  double weight;
  if (e.reuses > 0 && e.global_reuse) {
    weight = static_cast<double>(e.reuses);
  } else {
    weight = 0.1;
  }
  double benefit = e.cost_ms * weight;
  if (kind == EvictionKind::kHistory) {
    double age_ms = now_ms - e.admit_ms;
    if (age_ms < 1e-3) age_ms = 1e-3;
    benefit /= age_ms;
  }
  return benefit;
}

namespace {

/// Victim selection among the pool's current leaves for a single eviction
/// round. Returns victims to evict this round; empty means nothing
/// evictable. Decisions depend only on entry statistics.
std::vector<PoolEntry*> PickRound(RecyclePool* pool, EvictionKind kind,
                                  bool memory_mode, size_t amount_needed,
                                  uint64_t protected_epoch, double now_ms) {
  std::vector<PoolEntry*> leaves =
      pool->Leaves(protected_epoch, /*include_protected=*/false);
  if (leaves.empty()) {
    // Exception of §4.3: a single query may fill the entire pool, in which
    // case its own intermediates become evictable.
    leaves = pool->Leaves(protected_epoch, /*include_protected=*/true);
  }
  if (leaves.empty()) return {};

  if (!memory_mode) {
    // Entry-count limit: evict exactly one entry per round.
    PoolEntry* victim = nullptr;
    if (kind == EvictionKind::kLru) {
      for (PoolEntry* e : leaves) {
        if (victim == nullptr || e->last_use_seq < victim->last_use_seq)
          victim = e;
      }
    } else {
      double best = std::numeric_limits<double>::max();
      for (PoolEntry* e : leaves) {
        double b = EntryBenefit(*e, kind, now_ms);
        if (b < best) {
          best = b;
          victim = e;
        }
      }
    }
    return {victim};
  }

  size_t leaf_bytes = 0;
  for (const PoolEntry* e : leaves) leaf_bytes += e->owned_bytes;
  if (leaf_bytes <= amount_needed) {
    // Leaves alone cannot free enough: evict them all and let the caller
    // iterate (their parents become leaves).
    return leaves;
  }

  if (kind == EvictionKind::kLru) {
    std::sort(leaves.begin(), leaves.end(),
              [](const PoolEntry* a, const PoolEntry* b) {
                return a->last_use_seq < b->last_use_seq;
              });
    std::vector<PoolEntry*> out;
    size_t freed = 0;
    for (PoolEntry* e : leaves) {
      if (freed >= amount_needed) break;
      out.push_back(e);
      freed += e->owned_bytes;
    }
    return out;
  }

  // Benefit/History memory eviction: keep the most profitable subset that
  // fits in capacity = leaf_bytes - needed (complementary knapsack, greedy
  // 1/2-approximation; §4.3).
  size_t capacity = leaf_bytes - amount_needed;
  std::vector<PoolEntry*> order = leaves;
  std::sort(order.begin(), order.end(),
            [&](const PoolEntry* a, const PoolEntry* b) {
              // Zero-byte entries always fit; rank by profit density.
              double da = a->owned_bytes
                              ? EntryBenefit(*a, kind, now_ms) /
                                    static_cast<double>(a->owned_bytes)
                              : std::numeric_limits<double>::max();
              double db = b->owned_bytes
                              ? EntryBenefit(*b, kind, now_ms) /
                                    static_cast<double>(b->owned_bytes)
                              : std::numeric_limits<double>::max();
              return da > db;
            });
  std::vector<bool> keep(order.size(), false);
  size_t used = 0;
  double greedy_profit = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (used + order[i]->owned_bytes <= capacity) {
      keep[i] = true;
      used += order[i]->owned_bytes;
      greedy_profit += EntryBenefit(*order[i], kind, now_ms);
    }
  }
  // Worst-case guard: compare with keeping only the single best item.
  size_t best_single = SIZE_MAX;
  double best_single_profit = -1;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i]->owned_bytes <= capacity) {
      double p = EntryBenefit(*order[i], kind, now_ms);
      if (p > best_single_profit) {
        best_single_profit = p;
        best_single = i;
      }
    }
  }
  if (best_single != SIZE_MAX && best_single_profit > greedy_profit) {
    std::fill(keep.begin(), keep.end(), false);
    keep[best_single] = true;
  }
  std::vector<PoolEntry*> out;
  for (size_t i = 0; i < order.size(); ++i) {
    if (!keep[i]) out.push_back(order[i]);
  }
  return out;
}

void EvictRound(RecyclePool* pool, const std::vector<PoolEntry*>& round,
                size_t* evicted,
                const std::function<void(const PoolEntry&)>& on_evict) {
  for (const PoolEntry* victim : round) {
    PoolEntry* e = pool->Get(victim->id);
    if (e == nullptr) continue;
    // Stripe-local eviction runs without the other stripes' locks, so a
    // concurrent admission elsewhere may have re-parented this victim (the
    // cross-stripe lineage counters are updated lock-free). Honour the
    // leaves-only policy when we can see the new child; the remaining
    // race window is closed by Remove(force), for which removing a
    // just-re-parented entry is benign — results live by shared_ptr and
    // every dependent-bookkeeping decrement is defensive.
    if (!e->IsLeaf()) continue;
    on_evict(*e);
    pool->Remove(e->id, /*force=*/true);
    ++(*evicted);
  }
}

}  // namespace

size_t EvictForEntries(RecyclePool* pool, EvictionKind kind,
                       size_t max_entries, size_t need,
                       uint64_t protected_epoch, double now_ms,
                       const std::function<void(const PoolEntry&)>& on_evict) {
  size_t evicted = 0;
  while (pool->num_entries() + need > max_entries) {
    std::vector<PoolEntry*> round = PickRound(
        pool, kind, /*memory_mode=*/false, 0, protected_epoch, now_ms);
    if (round.empty()) break;
    EvictRound(pool, round, &evicted, on_evict);
  }
  return evicted;
}

size_t EvictForMemory(RecyclePool* pool, EvictionKind kind, size_t max_bytes,
                      size_t bytes_needed, uint64_t protected_epoch,
                      double now_ms,
                      const std::function<void(const PoolEntry&)>& on_evict) {
  size_t evicted = 0;
  // Iterate: each round evicts among current leaves; parents surface as new
  // leaves in the next round.
  while (pool->total_bytes() + bytes_needed > max_bytes &&
         pool->num_entries() > 0) {
    size_t excess = pool->total_bytes() + bytes_needed - max_bytes;
    std::vector<PoolEntry*> round = PickRound(
        pool, kind, /*memory_mode=*/true, excess, protected_epoch, now_ms);
    if (round.empty()) break;
    EvictRound(pool, round, &evicted, on_evict);
  }
  return evicted;
}

}  // namespace recycledb
