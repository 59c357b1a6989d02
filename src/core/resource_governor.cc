#include "core/resource_governor.h"

#include <algorithm>

namespace recycledb {

// --- Domain ledger -----------------------------------------------------------

ResourceGovernor::Domain::Domain(std::string name, DomainConfig cfg)
    : name_(std::move(name)),
      cfg_(cfg),
      free_bytes_(cfg.max_bytes),
      free_entries_(cfg.max_entries) {}

size_t ResourceGovernor::Domain::TakeUpTo(std::atomic<size_t>* free,
                                          size_t want) {
  size_t cur = free->load(std::memory_order_relaxed);
  while (true) {
    size_t take = std::min(cur, want);
    if (take == 0) return 0;
    if (free->compare_exchange_weak(cur, cur - take,
                                    std::memory_order_relaxed))
      return take;
  }
}

void ResourceGovernor::Domain::GiveBack(std::atomic<size_t>* free,
                                        size_t amount) {
  if (amount != 0) free->fetch_add(amount, std::memory_order_relaxed);
}

ResourceGovernor::Lease* ResourceGovernor::Domain::CreateLease(
    std::string name, size_t base_bytes, size_t base_entries) {
  std::lock_guard<std::mutex> lock(lease_mu_);
  leases_.push_back(std::unique_ptr<Lease>(
      new Lease(this, std::move(name), base_bytes, base_entries)));
  return leases_.back().get();
}

ResourceGovernor::DomainStats ResourceGovernor::Domain::stats() const {
  DomainStats s;
  s.name = name_;
  s.max_bytes = cfg_.max_bytes;
  s.free_bytes = free_bytes();
  s.max_entries = cfg_.max_entries;
  s.free_entries = free_entries();
  s.pressure_epoch = pressure_epoch();
  s.slack_epoch = slack_epoch();
  std::lock_guard<std::mutex> lock(lease_mu_);
  for (const auto& l : leases_) {
    LeaseStats ls;
    ls.name = l->name();
    ls.base_bytes = l->base_bytes();
    ls.held_bytes = l->held_bytes();
    ls.base_entries = l->base_entries();
    ls.held_entries = l->held_entries();
    ls.borrows = l->borrows();
    ls.denied = l->denied();
    ls.rebalances = l->rebalances();
    s.leases.push_back(std::move(ls));
  }
  return s;
}

// --- Lease -------------------------------------------------------------------

bool ResourceGovernor::Lease::TryAcquire(size_t bytes, size_t entries) {
  const bool bytes_limited = domain_->cfg_.max_bytes != 0;
  const bool entries_limited = domain_->cfg_.max_entries != 0;
  const size_t hb = held_bytes_.load(std::memory_order_relaxed);
  const size_t he = held_entries_.load(std::memory_order_relaxed);
  size_t got_entries =
      entries_limited ? Domain::TakeUpTo(&domain_->free_entries_, entries)
                      : entries;
  if (got_entries < entries) {
    Domain::GiveBack(&domain_->free_entries_, got_entries);
    denied_.fetch_add(1, std::memory_order_relaxed);
    // Any starvation asks slack-holders to return idle capacity; only a
    // lease starved below its own share additionally makes borrowers shed.
    domain_->RaiseSlackRequest();
    if (he + entries <= base_entries_) domain_->RaisePressure();
    return false;
  }
  size_t got_bytes = bytes_limited
                         ? Domain::TakeUpTo(&domain_->free_bytes_, bytes)
                         : bytes;
  if (got_bytes < bytes) {
    if (bytes_limited) Domain::GiveBack(&domain_->free_bytes_, got_bytes);
    if (entries_limited) Domain::GiveBack(&domain_->free_entries_, got_entries);
    denied_.fetch_add(1, std::memory_order_relaxed);
    domain_->RaiseSlackRequest();
    if (hb + bytes <= base_bytes_) domain_->RaisePressure();
    return false;
  }
  held_bytes_.store(hb + bytes, std::memory_order_relaxed);
  held_entries_.store(he + entries, std::memory_order_relaxed);
  if ((bytes_limited && hb + bytes > base_bytes_) ||
      (entries_limited && he + entries > base_entries_))
    borrows_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t ResourceGovernor::Lease::AcquireBytesUpTo(size_t want) {
  if (want == 0) return 0;
  const bool limited = domain_->cfg_.max_bytes != 0;
  const size_t hb = held_bytes_.load(std::memory_order_relaxed);
  size_t granted =
      limited ? Domain::TakeUpTo(&domain_->free_bytes_, want) : want;
  if (granted < want) {
    denied_.fetch_add(1, std::memory_order_relaxed);
    domain_->RaiseSlackRequest();
    if (hb + want <= base_bytes_) domain_->RaisePressure();
  }
  if (granted > 0) {
    held_bytes_.store(hb + granted, std::memory_order_relaxed);
    if (limited && hb + granted > base_bytes_)
      borrows_.fetch_add(1, std::memory_order_relaxed);
  }
  return granted;
}

void ResourceGovernor::Lease::Release(size_t bytes, size_t entries) {
  const size_t hb = held_bytes_.load(std::memory_order_relaxed);
  const size_t he = held_entries_.load(std::memory_order_relaxed);
  bytes = std::min(bytes, hb);
  entries = std::min(entries, he);
  if (bytes == 0 && entries == 0) return;
  held_bytes_.store(hb - bytes, std::memory_order_relaxed);
  held_entries_.store(he - entries, std::memory_order_relaxed);
  if (domain_->cfg_.max_bytes != 0)
    Domain::GiveBack(&domain_->free_bytes_, bytes);
  if (domain_->cfg_.max_entries != 0)
    Domain::GiveBack(&domain_->free_entries_, entries);
}

bool ResourceGovernor::Lease::SeesPressure() {
  uint64_t epoch = domain_->pressure_epoch_.load(std::memory_order_relaxed);
  if (epoch == last_pressure_seen_.load(std::memory_order_relaxed))
    return false;
  last_pressure_seen_.store(epoch, std::memory_order_relaxed);
  return (domain_->cfg_.max_bytes != 0 && held_bytes() > base_bytes_) ||
         (domain_->cfg_.max_entries != 0 && held_entries() > base_entries_);
}

bool ResourceGovernor::Lease::PeekPressure() const {
  if (domain_->pressure_epoch_.load(std::memory_order_relaxed) ==
      last_pressure_seen_.load(std::memory_order_relaxed))
    return false;
  return (domain_->cfg_.max_bytes != 0 && held_bytes() > base_bytes_) ||
         (domain_->cfg_.max_entries != 0 && held_entries() > base_entries_);
}

bool ResourceGovernor::Lease::SeesSlackRequest() {
  uint64_t epoch = domain_->slack_epoch_.load(std::memory_order_relaxed);
  if (epoch == last_slack_seen_.load(std::memory_order_relaxed)) return false;
  last_slack_seen_.store(epoch, std::memory_order_relaxed);
  return true;
}

bool ResourceGovernor::Lease::PeekSlackRequest() const {
  return domain_->slack_epoch_.load(std::memory_order_relaxed) !=
         last_slack_seen_.load(std::memory_order_relaxed);
}

void ResourceGovernor::Lease::ResetCounters() {
  borrows_.store(0, std::memory_order_relaxed);
  denied_.store(0, std::memory_order_relaxed);
  rebalances_.store(0, std::memory_order_relaxed);
}

// --- Governor ----------------------------------------------------------------

ResourceGovernor::Domain* ResourceGovernor::AddDomain(std::string name,
                                                      DomainConfig cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  domains_.push_back(std::make_unique<Domain>(std::move(name), cfg));
  return domains_.back().get();
}

std::vector<ResourceGovernor::DomainStats> ResourceGovernor::stats() const {
  std::vector<DomainStats> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(domains_.size());
  for (const auto& d : domains_) out.push_back(d->stats());
  return out;
}

uint64_t ResourceGovernor::TotalPressureEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& d : domains_) sum += d->pressure_epoch();
  return sum;
}

}  // namespace recycledb
