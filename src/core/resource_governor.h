#ifndef RECYCLEDB_CORE_RESOURCE_GOVERNOR_H_
#define RECYCLEDB_CORE_RESOURCE_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace recycledb {

/// Unified memory governance: ONE place that owns every byte/entry budget of
/// the serving stack and leases per-consumer quotas out of it.
///
/// Before this existed, capacity logic was scattered — the recycle pool's
/// max_entries/max_bytes lived in RecyclerConfig and forced every budgeted
/// admission through an all-stripe lock, while the plan cache had no bound at
/// all. The governor centralises the *accounting*: budgets are grouped into
/// named domains (e.g. "recycle_pool", "plan_cache"), each domain holds an
/// atomic free ledger, and consumers (a pool stripe, the plan cache) hold a
/// Lease they charge capacity against. Victim SELECTION stays with the §4.3
/// eviction policies (core/policies.h) — the governor decides how much a
/// consumer may hold, never which entry dies.
///
/// ## Lease protocol
///
/// A lease's `held` capacity is what the ledger has granted it; the consumer
/// guarantees its live usage never exceeds `held` (acquire BEFORE admitting,
/// release AFTER freeing). `base` is the lease's fair share of the domain —
/// holding beyond it is *borrowing*, tracked by the borrow counters.
///
/// Because leases acquire on demand starting from zero, an idle consumer's
/// unused share sits in the domain's free ledger where loaded consumers can
/// borrow it — a skewed workload concentrates the whole budget on the hot
/// consumers without any cross-consumer locking.
///
/// ## Pressure / rebalance
///
/// When an acquisition fails for a lease still UNDER its base share, the
/// domain's pressure epoch is bumped: an entitled consumer starved because
/// borrowers hold its share. Borrowing leases observe the epoch via
/// `SeesPressure()` (once per epoch) and are expected to shed down to base —
/// for a pool stripe that means stripe-local eviction — then `NoteRebalance`.
/// The governor never forces the shed; it only signals, so consumers shed
/// under their own locks at their own pace.
///
/// ## Thread-safety
///
/// Everything is lock-free on the hot path: the free ledgers and held
/// counters are atomics moved by CAS transfers, so concurrent consumers never
/// serialise on the governor. The only mutex guards lease creation. The
/// conservation invariant `free + Σ held == max` holds per resource at every
/// instant (transfers are atomic on the free side and the held side is only
/// mutated by its single consumer under that consumer's own lock).
class ResourceGovernor {
 public:
  class Domain;

  struct DomainConfig {
    size_t max_bytes = 0;    ///< byte budget; 0 = unlimited (no ledger)
    size_t max_entries = 0;  ///< entry budget; 0 = unlimited (no ledger)
  };

  /// One consumer's slice of a domain's budget. Created via
  /// Domain::CreateLease and owned by the governor; pointers stay valid for
  /// the governor's lifetime.
  class Lease {
   public:
    /// All-or-nothing: raises `held` by (bytes, entries) from the domain's
    /// free ledger. Fails — without partial effect — when the ledger cannot
    /// cover it.
    bool TryAcquire(size_t bytes, size_t entries);

    /// Partial byte acquisition: grants min(want, available); returns the
    /// granted amount.
    size_t AcquireBytesUpTo(size_t want);

    /// Returns capacity to the domain's free ledger. Clamped to `held` —
    /// over-releasing is a consumer bug but must not corrupt the ledger.
    void Release(size_t bytes, size_t entries);

    /// True once per domain pressure epoch, and only while this lease holds
    /// beyond its base share: the caller should shed down to base and then
    /// NoteRebalance().
    bool SeesPressure();

    /// Non-consuming preview of SeesPressure (for cheap checks on paths
    /// that would need to upgrade a lock before responding).
    bool PeekPressure() const;

    /// True once per domain slack epoch (raised by ANY starved acquisition,
    /// including over-base consumers): the caller should return its
    /// held-above-usage slack to the ledger — no eviction expected.
    bool SeesSlackRequest();

    /// Non-consuming preview of SeesSlackRequest.
    bool PeekSlackRequest() const;

    void NoteRebalance() {
      rebalances_.fetch_add(1, std::memory_order_relaxed);
    }

    size_t held_bytes() const {
      return held_bytes_.load(std::memory_order_relaxed);
    }
    size_t held_entries() const {
      return held_entries_.load(std::memory_order_relaxed);
    }
    size_t base_bytes() const { return base_bytes_; }
    size_t base_entries() const { return base_entries_; }
    uint64_t borrows() const {
      return borrows_.load(std::memory_order_relaxed);
    }
    uint64_t denied() const { return denied_.load(std::memory_order_relaxed); }
    uint64_t rebalances() const {
      return rebalances_.load(std::memory_order_relaxed);
    }
    const std::string& name() const { return name_; }

    /// Zeroes the borrow/denied/rebalance counters (held capacity is state,
    /// not a statistic, and is untouched).
    void ResetCounters();

   private:
    friend class Domain;
    Lease(Domain* domain, std::string name, size_t base_bytes,
          size_t base_entries)
        : domain_(domain),
          name_(std::move(name)),
          base_bytes_(base_bytes),
          base_entries_(base_entries) {}

    Domain* domain_;
    std::string name_;
    size_t base_bytes_;
    size_t base_entries_;
    std::atomic<size_t> held_bytes_{0};
    std::atomic<size_t> held_entries_{0};
    std::atomic<uint64_t> last_pressure_seen_{0};
    std::atomic<uint64_t> last_slack_seen_{0};
    std::atomic<uint64_t> borrows_{0};     ///< acquisitions that went past base
    std::atomic<uint64_t> denied_{0};      ///< failed / partial acquisitions
    std::atomic<uint64_t> rebalances_{0};  ///< pressure sheds + slack returns
  };

  struct LeaseStats {
    std::string name;
    size_t base_bytes = 0;
    size_t held_bytes = 0;
    size_t base_entries = 0;
    size_t held_entries = 0;
    uint64_t borrows = 0;
    uint64_t denied = 0;
    uint64_t rebalances = 0;
  };

  struct DomainStats {
    std::string name;
    size_t max_bytes = 0;
    size_t free_bytes = 0;
    size_t max_entries = 0;
    size_t free_entries = 0;
    uint64_t pressure_epoch = 0;
    uint64_t slack_epoch = 0;
    std::vector<LeaseStats> leases;
  };

  /// One budget group with its own atomic free ledger.
  class Domain {
   public:
    Domain(std::string name, DomainConfig cfg);

    /// Carves a lease out of this domain. `base_*` is the lease's fair share
    /// (pure accounting — nothing is reserved); the lease may borrow beyond
    /// it while the ledger has capacity. Thread-safe; the returned pointer
    /// lives as long as the governor.
    Lease* CreateLease(std::string name, size_t base_bytes,
                       size_t base_entries);

    size_t max_bytes() const { return cfg_.max_bytes; }
    size_t max_entries() const { return cfg_.max_entries; }
    size_t free_bytes() const {
      return free_bytes_.load(std::memory_order_relaxed);
    }
    size_t free_entries() const {
      return free_entries_.load(std::memory_order_relaxed);
    }
    uint64_t pressure_epoch() const {
      return pressure_epoch_.load(std::memory_order_relaxed);
    }
    uint64_t slack_epoch() const {
      return slack_epoch_.load(std::memory_order_relaxed);
    }
    const std::string& name() const { return name_; }

    DomainStats stats() const;

   private:
    friend class Lease;

    /// CAS transfer of up to `want` from one free ledger into a lease; a
    /// zero-capacity resource (max == 0) is unlimited and always grants in
    /// full without ledger movement.
    static size_t TakeUpTo(std::atomic<size_t>* free, size_t want);
    static void GiveBack(std::atomic<size_t>* free, size_t amount);

    void RaisePressure() {
      pressure_epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    void RaiseSlackRequest() {
      slack_epoch_.fetch_add(1, std::memory_order_relaxed);
    }

    std::string name_;
    DomainConfig cfg_;
    std::atomic<size_t> free_bytes_;
    std::atomic<size_t> free_entries_;
    /// Bumped when an under-base lease is starved; borrowing leases shed to
    /// base once per epoch (see Lease::SeesPressure).
    std::atomic<uint64_t> pressure_epoch_{0};
    /// Bumped by EVERY starved acquisition: leases holding above-usage
    /// slack return it once per epoch (no eviction; see SeesSlackRequest) —
    /// this is how an over-base hot consumer gets at idle slack without
    /// forcing anyone to drop live state.
    std::atomic<uint64_t> slack_epoch_{0};
    mutable std::mutex lease_mu_;  ///< guards lease creation only
    std::vector<std::unique_ptr<Lease>> leases_;
  };

  ResourceGovernor() = default;
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Registers a budget domain. Thread-safe; the returned pointer lives as
  /// long as the governor.
  Domain* AddDomain(std::string name, DomainConfig cfg);

  /// Snapshot of every domain and lease, for ServiceStats / the shell's
  /// `.gov` command.
  std::vector<DomainStats> stats() const;

  /// Sum of every domain's pressure epoch: a cheap monotone signal that
  /// advances whenever an entitled consumer anywhere was starved. Admission
  /// control (the network server) watches it to decide when to shed load —
  /// cheaper than stats(), which copies every lease.
  uint64_t TotalPressureEpoch() const;

 private:
  mutable std::mutex mu_;  ///< guards domain creation only
  std::vector<std::unique_ptr<Domain>> domains_;
};

}  // namespace recycledb

#endif  // RECYCLEDB_CORE_RESOURCE_GOVERNOR_H_
