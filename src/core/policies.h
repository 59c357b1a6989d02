#ifndef RECYCLEDB_CORE_POLICIES_H_
#define RECYCLEDB_CORE_POLICIES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "core/recycle_pool.h"

namespace recycledb {

/// Admission policies (paper §4.2).
enum class AdmissionKind {
  kKeepAll,         ///< keep every instruction advised by the optimiser
  kCredit,          ///< economical credit scheme
  kAdaptiveCredit,  ///< CREDIT that graduates reused instructions (§7.2)
};

/// Eviction policies (paper §4.3).
enum class EvictionKind {
  kLru,      ///< least recently used leaf
  kBenefit,  ///< smallest B(I) = Cost(I) * Weight(I)         (Eq. 1-2)
  kHistory,  ///< benefit aged by lifetime                     (Eq. 3)
};

const char* AdmissionName(AdmissionKind k);
const char* EvictionName(EvictionKind k);

/// Per-source-instruction credit ledger. A "source instruction" is a static
/// instruction of a query template, keyed by (template id, pc). Credits are
/// consumed on admission; returned immediately on local reuse; returned on
/// eviction of an instance that had seen global reuse. The adaptive variant
/// grants unlimited credits to sources with at least one reuse after
/// `credits` invocations, and cuts off the rest (§7.2).
///
/// The ledger is CONCURRENT: per-source credit counters are atomics with a
/// CAS debit loop, and the source map is guarded by a leaf mutex taken only
/// to find-or-create the node (std::map nodes are pointer-stable). This is
/// what lets CREDIT/ADAPT exact hits run under the striped recycler's
/// *shared* pool lock: NoteReuse on the hit path mutates only atomics.
class CreditLedger {
 public:
  CreditLedger(AdmissionKind kind, int credits)
      : kind_(kind), initial_(credits) {}

  /// Admission decision for one executed instance. Consumes a credit when
  /// admitting under the credit regimes; KEEPALL always admits.
  bool TryAdmit(uint64_t tid, int pc);

  /// A pool instance of this source was reused. Safe under a shared pool
  /// lock (atomic refund / graduation flag).
  void NoteReuse(uint64_t tid, int pc, bool local);

  /// A pool instance of this source was evicted.
  void NoteEviction(uint64_t tid, int pc, bool had_global_reuse);

  int CreditsLeft(uint64_t tid, int pc) const;

 private:
  struct Source {
    explicit Source(int c) : credits(c) {}
    std::atomic<int> credits;
    std::atomic<int> invocations{0};
    std::atomic<bool> reused{false};
  };
  Source& Lookup(uint64_t tid, int pc);

  AdmissionKind kind_;
  int initial_;
  mutable std::mutex map_mu_;  ///< guards the map structure, not the counters
  std::map<std::pair<uint64_t, int>, Source> sources_;
};

/// Evicts entries until at least `need` entry slots are free given the
/// `max_entries` limit, honouring lineage (leaves only) and protecting every
/// entry last touched at or after `protected_epoch` — the oldest running
/// query's id, which generalises §4.3's protect-current-query rule to N
/// concurrent queries — unless the protected entries fill the pool.
/// `on_evict` fires for every victim before removal.
/// Returns the number of entries evicted.
size_t EvictForEntries(RecyclePool* pool, EvictionKind kind,
                       size_t max_entries, size_t need,
                       uint64_t protected_epoch, double now_ms,
                       const std::function<void(const PoolEntry&)>& on_evict);

/// Evicts entries until `bytes_needed` bytes fit under `max_bytes`. For the
/// benefit/history policies this solves the complementary binary-knapsack
/// problem with the greedy 1/2-approximation of §4.3 (items in decreasing
/// profit-per-byte order, compared against the best single item).
size_t EvictForMemory(RecyclePool* pool, EvictionKind kind, size_t max_bytes,
                      size_t bytes_needed, uint64_t protected_epoch,
                      double now_ms,
                      const std::function<void(const PoolEntry&)>& on_evict);

/// B(I) under the given policy (Eqs. 1-3). Exposed for tests and benches.
double EntryBenefit(const PoolEntry& e, EvictionKind kind, double now_ms);

}  // namespace recycledb

#endif  // RECYCLEDB_CORE_POLICIES_H_
