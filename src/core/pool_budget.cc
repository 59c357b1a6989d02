#include "core/pool_budget.h"

#include <algorithm>

namespace recycledb {

PoolBudget::PoolBudget(size_t max_bytes, size_t max_entries,
                       size_t num_slots)
    : max_bytes_(max_bytes),
      max_entries_(max_entries),
      free_bytes_(max_bytes),
      free_entries_(max_entries),
      slots_(new Slot[num_slots]) {
  for (size_t i = 0; i < num_slots; ++i) {
    slots_[i].budget_ = this;
    slots_[i].base_bytes_ = max_bytes / num_slots;
    slots_[i].base_entries_ = max_entries / num_slots;
  }
}

size_t PoolBudget::TakeUpTo(std::atomic<size_t>* free, size_t want) {
  size_t cur = free->load(std::memory_order_relaxed);
  while (true) {
    size_t take = std::min(cur, want);
    if (take == 0) return 0;
    if (free->compare_exchange_weak(cur, cur - take,
                                    std::memory_order_relaxed))
      return take;
  }
}

void PoolBudget::GiveBack(std::atomic<size_t>* free, size_t amount) {
  if (amount != 0) free->fetch_add(amount, std::memory_order_relaxed);
}

bool PoolBudget::Slot::TryAcquireEntry() {
  const bool bytes_limited = budget_->max_bytes_ != 0;
  const bool entries_limited = budget_->max_entries_ != 0;
  const size_t hb = held_bytes_.load(std::memory_order_relaxed);
  const size_t he = held_entries_.load(std::memory_order_relaxed);
  if (entries_limited && TakeUpTo(&budget_->free_entries_, 1) == 0) {
    denied_.fetch_add(1, std::memory_order_relaxed);
    // Any starvation asks slack-holders to return idle capacity; only a
    // slot starved below its own share additionally makes borrowers shed.
    budget_->RaiseSlackRequest();
    if (he + 1 <= base_entries_) budget_->RaisePressure();
    return false;
  }
  held_entries_.store(he + 1, std::memory_order_relaxed);
  if ((bytes_limited && hb > base_bytes_) ||
      (entries_limited && he + 1 > base_entries_))
    borrows_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t PoolBudget::Slot::AcquireBytesUpTo(size_t want) {
  if (want == 0) return 0;
  const bool limited = budget_->max_bytes_ != 0;
  const size_t hb = held_bytes_.load(std::memory_order_relaxed);
  size_t granted = limited ? TakeUpTo(&budget_->free_bytes_, want) : want;
  if (granted < want) {
    denied_.fetch_add(1, std::memory_order_relaxed);
    budget_->RaiseSlackRequest();
    if (hb + want <= base_bytes_) budget_->RaisePressure();
  }
  if (granted > 0) {
    held_bytes_.store(hb + granted, std::memory_order_relaxed);
    if (limited && hb + granted > base_bytes_)
      borrows_.fetch_add(1, std::memory_order_relaxed);
  }
  return granted;
}

void PoolBudget::Slot::Release(size_t bytes, size_t entries) {
  const size_t hb = held_bytes_.load(std::memory_order_relaxed);
  const size_t he = held_entries_.load(std::memory_order_relaxed);
  bytes = std::min(bytes, hb);
  entries = std::min(entries, he);
  if (bytes == 0 && entries == 0) return;
  held_bytes_.store(hb - bytes, std::memory_order_relaxed);
  held_entries_.store(he - entries, std::memory_order_relaxed);
  if (budget_->max_bytes_ != 0) GiveBack(&budget_->free_bytes_, bytes);
  if (budget_->max_entries_ != 0) GiveBack(&budget_->free_entries_, entries);
}

bool PoolBudget::Slot::SeesPressure() {
  uint64_t epoch = budget_->pressure_epoch_.load(std::memory_order_relaxed);
  if (epoch == last_pressure_seen_.load(std::memory_order_relaxed))
    return false;
  last_pressure_seen_.store(epoch, std::memory_order_relaxed);
  return (budget_->max_bytes_ != 0 && held_bytes() > base_bytes_) ||
         (budget_->max_entries_ != 0 && held_entries() > base_entries_);
}

bool PoolBudget::Slot::PeekPressure() const {
  if (budget_->pressure_epoch_.load(std::memory_order_relaxed) ==
      last_pressure_seen_.load(std::memory_order_relaxed))
    return false;
  return (budget_->max_bytes_ != 0 && held_bytes() > base_bytes_) ||
         (budget_->max_entries_ != 0 && held_entries() > base_entries_);
}

bool PoolBudget::Slot::SeesSlackRequest() {
  uint64_t epoch = budget_->slack_epoch_.load(std::memory_order_relaxed);
  if (epoch == last_slack_seen_.load(std::memory_order_relaxed)) return false;
  last_slack_seen_.store(epoch, std::memory_order_relaxed);
  return true;
}

bool PoolBudget::Slot::PeekSlackRequest() const {
  return budget_->slack_epoch_.load(std::memory_order_relaxed) !=
         last_slack_seen_.load(std::memory_order_relaxed);
}

void PoolBudget::Slot::ResetCounters() {
  borrows_.store(0, std::memory_order_relaxed);
  denied_.store(0, std::memory_order_relaxed);
  rebalances_.store(0, std::memory_order_relaxed);
}

}  // namespace recycledb
