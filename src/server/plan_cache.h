#ifndef RECYCLEDB_SERVER_PLAN_CACHE_H_
#define RECYCLEDB_SERVER_PLAN_CACHE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bat/scalar.h"
#include "catalog/catalog.h"
#include "mal/program.h"
#include "obs/event_ring.h"

namespace recycledb {

/// Cumulative plan-cache counters (atomically maintained; readable while
/// the service runs).
struct PlanCacheStats {
  uint64_t lookups = 0;        ///< fingerprint or statement-text probes
  uint64_t hits = 0;           ///< probes answered by a cached plan
  uint64_t text_hits = 0;      ///< hits answered by a remembered text
  uint64_t compiles = 0;       ///< plans compiled and inserted
  uint64_t invalidations = 0;  ///< cached plans dropped by commits/DDL
  uint64_t evictions = 0;      ///< cached plans dropped by LRU capacity
};

/// The shared plan-template cache: maps a normalised query fingerprint to
/// one compiled, recycler-marked Program shared by every session and worker
/// (MonetDB's compiled-query cache, which the paper's recycler sits behind —
/// parameterised plans are what make pool hits across query instances
/// possible at all).
///
/// Entries are immutable once inserted and handed out by shared_ptr, so a
/// query keeps executing its plan safely even if a concurrent commit — or an
/// LRU eviction — drops the entry. Invalidation is driven by the catalog's
/// update listener with the same ColumnIds the recycle pool sees;
/// QueryService calls it under the exclusive update lock, making it atomic
/// w.r.t. in-flight queries.
///
/// ## Capacity (LRU)
///
/// The constructor bounds the cache by fingerprint count. Inserting past
/// capacity evicts least-recently-used entries (recency is touched by
/// Lookup under the shared lock via per-entry atomic ticks), so ad-hoc
/// workloads with unbounded distinct patterns cannot grow the map without
/// bound.
///
/// ## Statement texts
///
/// Besides the fingerprint map, the cache remembers the exact statement
/// texts bound to each plan, with their already-coerced parameters, so a
/// text seen before is served without parsing, fingerprinting or binding.
/// A text dies with its plan (invalidation, LRU eviction, Clear), and each
/// plan keeps at most kMaxTextsPerPlan texts, oldest out first, so the text
/// index is bounded by the plan capacity.
class PlanCache {
 public:
  struct Entry {
    std::shared_ptr<const Program> prog;
    /// Positional parameter types; literal i of a matching statement binds
    /// parameter i coerced to param_types[i] (sql::BindLiterals).
    std::vector<TypeTag> param_types;
    /// Tables the plan reads; any commit touching one drops the entry.
    std::vector<int32_t> table_ids;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Texts remembered per plan; past it the oldest text is forgotten.
  static constexpr size_t kMaxTextsPerPlan = 16;

  /// Bounds the cache at `max_plans` fingerprints (0 = unlimited).
  explicit PlanCache(size_t max_plans = 0) : max_plans_(max_plans) {}

  /// Attaches a sink for LRU-eviction events (kind kPlanEvict, `a` = the
  /// evicted plan's estimated bytes). Call before concurrent traffic; the
  /// ring must outlive the cache. Null (the default) records nothing.
  void set_event_ring(obs::EventRing* events) { events_ = events; }

  /// Returns the cached entry or nullptr. Counts a lookup (and a hit), and
  /// touches the entry's LRU recency.
  EntryPtr Lookup(const std::string& fingerprint);

  /// Inserts a freshly compiled plan and counts a compile, evicting the LRU
  /// entry if capacity demands. Under a racing double-compile the first
  /// insert wins and the loser's entry is discarded, so every submitter
  /// shares one Program; the returned entry is always the winner.
  EntryPtr Insert(const std::string& fingerprint, Entry entry);

  /// Probes by exact statement text. On a hit, returns the plan entry and
  /// fills `*params` with the text's bound parameters; counts a lookup, a
  /// hit and a text hit, and touches the plan's recency. A miss counts
  /// nothing (the fingerprint probe that follows does) and returns nullptr.
  EntryPtr LookupText(const std::string& text, std::vector<Scalar>* params);

  /// Remembers that `text` binds `params` onto `entry`, but only while
  /// `entry` is still the plan cached under `fingerprint` (a plan dropped
  /// since it was looked up takes no texts).
  void RememberText(const std::string& text, const std::string& fingerprint,
                    const EntryPtr& entry, std::vector<Scalar> params);

  /// Remembered texts across all plans.
  size_t text_count() const;

  /// Drops every plan reading a table named in `cols` (ColumnId::table; join
  /// index pseudo-columns carry their child table, which invalidation
  /// already covers).
  void Invalidate(const std::vector<ColumnId>& cols);

  /// Drops everything (stats are kept; see ResetStats).
  void Clear();

  size_t size() const;
  /// Estimated bytes of the cached Programs (the `plan_cache_bytes` gauge).
  size_t bytes() const;
  PlanCacheStats stats() const;
  void ResetStats();

  /// Rough footprint of one compiled plan: variable table, instruction
  /// stream, interned constants.
  static size_t EstimateEntryBytes(const Entry& e);

 private:
  struct Slot {
    EntryPtr entry;
    size_t est_bytes = 0;
    /// Last-touch tick of the LRU clock. A pointer because Lookup stores to
    /// it under the SHARED lock (atomic), while the map may rehash slots on
    /// insert (atomics are not movable).
    std::unique_ptr<std::atomic<uint64_t>> last_use;
    /// Keys of texts_ bound to this plan, oldest first.
    std::vector<std::string> texts;
  };
  struct TextBinding {
    EntryPtr entry;
    std::vector<Scalar> params;
    /// The plan slot's recency tick; valid while the binding exists, since
    /// a slot's texts are dropped with it under the exclusive lock.
    std::atomic<uint64_t>* last_use = nullptr;
  };
  using PlanMap = std::unordered_map<std::string, Slot>;

  /// Drops the least-recently-used slot of a non-empty map. Requires the
  /// exclusive lock.
  void EvictLruLocked();
  /// Erases one plan slot and its texts; returns the next iterator.
  /// Requires the exclusive lock.
  PlanMap::iterator EraseLocked(PlanMap::iterator it);
  /// The next recency tick.
  uint64_t Tick() {
    return use_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const size_t max_plans_;  ///< 0 = unbounded
  mutable std::shared_mutex mu_;
  PlanMap plans_;
  std::unordered_map<std::string, TextBinding> texts_;
  size_t bytes_ = 0;  ///< Σ est_bytes (guarded by mu_)
  std::atomic<uint64_t> use_clock_{0};
  obs::EventRing* events_ = nullptr;  ///< optional eviction-event sink
  std::atomic<uint64_t> lookups_{0}, hits_{0}, text_hits_{0}, compiles_{0},
      invalidations_{0}, evictions_{0};
};

}  // namespace recycledb

#endif  // RECYCLEDB_SERVER_PLAN_CACHE_H_
