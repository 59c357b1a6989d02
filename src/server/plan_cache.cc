#include "server/plan_cache.h"

#include <algorithm>
#include <limits>

namespace recycledb {

size_t PlanCache::EstimateEntryBytes(const Entry& e) {
  size_t n = sizeof(Entry);
  n += e.param_types.size() * sizeof(TypeTag);
  n += e.table_ids.size() * sizeof(int32_t);
  if (e.prog != nullptr) {
    const Program& p = *e.prog;
    n += sizeof(Program) + p.name.size();
    for (const VarDecl& v : p.vars) {
      n += sizeof(VarDecl) + v.name.size();
      // Interned string constants (bind table/column names, LIKE patterns)
      // carry an out-of-line payload the sizeof above does not see.
      if (v.is_const && v.const_val.tag() == TypeTag::kStr)
        n += v.const_val.AsStr().size();
    }
    for (const Instruction& i : p.instrs) {
      n += sizeof(Instruction);
      n += (i.args.size() + i.rets.size()) * sizeof(uint16_t);
    }
  }
  return n;
}

PlanCache::EntryPtr PlanCache::Lookup(const std::string& fingerprint) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = plans_.find(fingerprint);
  if (it == plans_.end()) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Touch recency under the shared lock: ticks are per-slot atomics fed by
  // one atomic clock, exactly the recycle pool's logical-clock idiom.
  it->second.last_use->store(Tick(), std::memory_order_relaxed);
  return it->second.entry;
}

PlanCache::EntryPtr PlanCache::LookupText(const std::string& text,
                                          std::vector<Scalar>* params) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = texts_.find(text);
  if (it == texts_.end()) return nullptr;
  lookups_.fetch_add(1, std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  text_hits_.fetch_add(1, std::memory_order_relaxed);
  it->second.last_use->store(Tick(), std::memory_order_relaxed);
  *params = it->second.params;
  return it->second.entry;
}

void PlanCache::RememberText(const std::string& text,
                             const std::string& fingerprint,
                             const EntryPtr& entry,
                             std::vector<Scalar> params) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto pit = plans_.find(fingerprint);
  if (pit == plans_.end() || pit->second.entry != entry) return;
  Slot& slot = pit->second;
  auto [tit, fresh] = texts_.try_emplace(text);
  if (!fresh) return;  // a racing submission of the same text won
  tit->second.entry = entry;
  tit->second.params = std::move(params);
  tit->second.last_use = slot.last_use.get();
  if (slot.texts.size() == kMaxTextsPerPlan) {
    texts_.erase(slot.texts.front());
    slot.texts.erase(slot.texts.begin());
  }
  slot.texts.push_back(text);
}

PlanCache::PlanMap::iterator PlanCache::EraseLocked(PlanMap::iterator it) {
  for (const std::string& text : it->second.texts) texts_.erase(text);
  bytes_ -= it->second.est_bytes;
  return plans_.erase(it);
}

void PlanCache::EvictLruLocked() {
  auto victim = plans_.end();
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (auto it = plans_.begin(); it != plans_.end(); ++it) {
    uint64_t tick = it->second.last_use->load(std::memory_order_relaxed);
    if (tick < oldest) {
      oldest = tick;
      victim = it;
    }
  }
  if (events_ != nullptr)
    events_->Record(obs::EventKind::kPlanEvict, 0, victim->second.est_bytes);
  EraseLocked(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

PlanCache::EntryPtr PlanCache::Insert(const std::string& fingerprint,
                                      Entry entry) {
  compiles_.fetch_add(1, std::memory_order_relaxed);
  auto sp = std::make_shared<const Entry>(std::move(entry));
  size_t est = EstimateEntryBytes(*sp);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = plans_.find(fingerprint);
  if (it != plans_.end()) {
    // Racing double-compile: the incumbent wins, the loser's plan is
    // discarded without ever charging capacity.
    it->second.last_use->store(Tick(), std::memory_order_relaxed);
    return it->second.entry;
  }
  if (max_plans_ != 0 && plans_.size() >= max_plans_) EvictLruLocked();
  Slot slot;
  slot.entry = sp;
  slot.est_bytes = est;
  slot.last_use = std::make_unique<std::atomic<uint64_t>>(Tick());
  bytes_ += est;
  plans_.emplace(fingerprint, std::move(slot));
  return sp;
}

void PlanCache::Invalidate(const std::vector<ColumnId>& cols) {
  if (cols.empty()) return;
  std::vector<int32_t> tables;
  tables.reserve(cols.size());
  for (const ColumnId& c : cols) tables.push_back(c.table);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());

  std::unique_lock<std::shared_mutex> lock(mu_);
  uint64_t dropped = 0;
  for (auto it = plans_.begin(); it != plans_.end();) {
    const std::vector<int32_t>& deps = it->second.entry->table_ids;
    bool affected = std::any_of(deps.begin(), deps.end(), [&](int32_t t) {
      return std::binary_search(tables.begin(), tables.end(), t);
    });
    if (affected) {
      it = EraseLocked(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

void PlanCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  bytes_ = 0;
  plans_.clear();
  texts_.clear();
}

size_t PlanCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return plans_.size();
}

size_t PlanCache::text_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return texts_.size();
}

size_t PlanCache::bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bytes_;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.text_hits = text_hits_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

void PlanCache::ResetStats() {
  lookups_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  text_hits_.store(0, std::memory_order_relaxed);
  compiles_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace recycledb
