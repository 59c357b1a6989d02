#ifndef RECYCLEDB_CORE_POOL_BUDGET_H_
#define RECYCLEDB_CORE_POOL_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace recycledb {

/// The recycle pool's byte and entry budget (paper §4.3 resource limits) as
/// an atomic free ledger split into slots, one per pool stripe. A standalone
/// Recycler has one slot whose base share is the whole budget; a striped
/// pool gives each of its N stripes a max/N base share. Victim selection
/// stays with the §4.3 eviction policies (core/policies.h): the ledger only
/// decides how much a slot may hold.
///
/// ## Slot protocol
///
/// A slot's `held` capacity is what the ledger has granted it; its stripe
/// keeps live usage within `held` (acquire BEFORE admitting, release AFTER
/// freeing). Holding beyond `base` is borrowing. Slots acquire on demand
/// from zero, so an idle stripe's share sits in the free ledger where a hot
/// stripe can borrow it without any cross-stripe locking.
///
/// ## Pressure and slack
///
/// Every failed acquisition bumps the slack epoch: slots holding capacity
/// above their usage return it once per epoch (no eviction). A failed
/// acquisition by a slot still UNDER its base also bumps the pressure epoch:
/// slots holding beyond base then shed down to it by stripe-local eviction.
/// With a single slot `free == max - held`, so a short ledger always means
/// `held + want > base` and pressure is never raised.
///
/// ## Thread-safety
///
/// The free ledger and the epochs are atomics moved by CAS; a slot's held
/// counters are only mutated by its own stripe under that stripe's lock. The
/// invariant `free + sum(held) == max` holds per resource at every instant.
/// A zero maximum means the resource is unlimited: acquisitions grant in
/// full and the ledger does not move.
class PoolBudget {
 public:
  class Slot {
   public:
    /// Raises `held` by one entry from the free ledger. Fails without effect
    /// when the ledger has no entry left.
    bool TryAcquireEntry();

    /// Partial byte acquisition: grants min(want, free); returns the grant.
    size_t AcquireBytesUpTo(size_t want);

    /// Returns capacity to the free ledger, clamped to `held` (an
    /// over-release must not mint capacity).
    void Release(size_t bytes, size_t entries);

    /// True once per pressure epoch, and only while this slot holds beyond
    /// its base: the caller sheds down to base and then NoteRebalance().
    bool SeesPressure();
    /// Non-consuming preview of SeesPressure (for the probe path, which
    /// must upgrade its lock before responding).
    bool PeekPressure() const;

    /// True once per slack epoch: the caller returns its held-above-usage
    /// capacity to the ledger.
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

    /// Zeroes the borrow/denied/rebalance counters; held capacity is state,
    /// not a statistic, and is untouched.
    void ResetCounters();

   private:
    friend class PoolBudget;

    PoolBudget* budget_ = nullptr;
    size_t base_bytes_ = 0;
    size_t base_entries_ = 0;
    std::atomic<size_t> held_bytes_{0};
    std::atomic<size_t> held_entries_{0};
    std::atomic<uint64_t> last_pressure_seen_{0};
    std::atomic<uint64_t> last_slack_seen_{0};
    std::atomic<uint64_t> borrows_{0};     ///< acquisitions past base
    std::atomic<uint64_t> denied_{0};      ///< failed / partial acquisitions
    std::atomic<uint64_t> rebalances_{0};  ///< pressure sheds + slack returns
  };

  /// A budget of `max_bytes` / `max_entries` (0 = unlimited) split into
  /// `num_slots` slots, each with a base share of max / num_slots.
  PoolBudget(size_t max_bytes, size_t max_entries, size_t num_slots);
  PoolBudget(const PoolBudget&) = delete;
  PoolBudget& operator=(const PoolBudget&) = delete;

  Slot& slot(size_t i) { return slots_[i]; }

  size_t free_bytes() const {
    return free_bytes_.load(std::memory_order_relaxed);
  }
  size_t free_entries() const {
    return free_entries_.load(std::memory_order_relaxed);
  }
  /// Advances whenever a slot under its base share was starved. The
  /// network server watches it to shed load (see net/server.h).
  uint64_t pressure_epoch() const {
    return pressure_epoch_.load(std::memory_order_relaxed);
  }

 private:
  /// CAS transfer of up to `want` out of a free ledger.
  static size_t TakeUpTo(std::atomic<size_t>* free, size_t want);
  static void GiveBack(std::atomic<size_t>* free, size_t amount);

  void RaisePressure() {
    pressure_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  void RaiseSlackRequest() {
    slack_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t max_bytes_;
  size_t max_entries_;
  std::atomic<size_t> free_bytes_;
  std::atomic<size_t> free_entries_;
  std::atomic<uint64_t> pressure_epoch_{0};
  std::atomic<uint64_t> slack_epoch_{0};
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace recycledb

#endif  // RECYCLEDB_CORE_POOL_BUDGET_H_
