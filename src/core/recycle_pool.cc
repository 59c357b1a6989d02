#include "core/recycle_pool.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"
#include "util/str.h"

namespace recycledb {

namespace {

/// Visits every distinct non-persistent column reachable from the entry's
/// result bats, in a deterministic order (admission and removal must agree).
template <typename Fn>
void ForEachResultColumn(const PoolEntry& e, Fn&& fn) {
  for (const MalValue& v : e.results) {
    if (!v.is_bat()) continue;
    const Bat& b = *v.bat();
    const Column* h = b.head().col.get();
    const Column* t = b.tail().col.get();
    if (h != nullptr && !h->persistent()) fn(h);
    if (t != nullptr && t != h && !t->persistent()) fn(t);
  }
}

}  // namespace

void SubsetLattice::AddEdge(uint64_t sub_bat, uint64_t super_bat) {
  if (sub_bat == super_bat) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Bound the relation table; losing edges only loses optional subsumption.
  if (subset_parents_.size() > 200000) subset_parents_.clear();
  auto& parents = subset_parents_[sub_bat];
  if (std::find(parents.begin(), parents.end(), super_bat) == parents.end())
    parents.push_back(super_bat);
}

bool SubsetLattice::IsSubsetOf(uint64_t sub_bat, uint64_t super_bat) const {
  if (sub_bat == super_bat) return true;
  std::lock_guard<std::mutex> lock(mu_);
  // DFS up the superset edges; the lattice is tiny.
  std::vector<uint64_t> work{sub_bat};
  std::vector<uint64_t> seen;
  while (!work.empty()) {
    uint64_t cur = work.back();
    work.pop_back();
    auto it = subset_parents_.find(cur);
    if (it == subset_parents_.end()) continue;
    for (uint64_t p : it->second) {
      if (p == super_bat) return true;
      if (std::find(seen.begin(), seen.end(), p) == seen.end()) {
        seen.push_back(p);
        work.push_back(p);
      }
    }
  }
  return false;
}

std::vector<std::pair<uint64_t, uint64_t>> SubsetLattice::Edges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const auto& [sub, parents] : subset_parents_)
    for (uint64_t super : parents) out.emplace_back(sub, super);
  return out;
}

void SubsetLattice::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  subset_parents_.clear();
}

RecyclePool::RecyclePool(PoolSharedState* shared) : shared_(shared) {
  if (shared_ == nullptr) {
    owned_shared_ = std::make_unique<PoolSharedState>();
    shared_ = owned_shared_.get();
  }
}

size_t RecyclePool::MatchHash(Opcode op, const std::vector<MalValue>& args) {
  size_t h = static_cast<size_t>(op) * 0x9e3779b97f4a7c15ULL + 0x1234567;
  for (const MalValue& a : args) {
    h ^= a.MatchHash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

uint64_t RecyclePool::Admit(PoolEntry entry) {
  entry.id = next_id_++;
  uint64_t id = entry.id;
  auto [it, ok] = entries_.emplace(id, std::move(entry));
  RDB_CHECK(ok);
  IndexEntry(&it->second);
  return id;
}

void RecyclePool::IndexEntry(PoolEntry* e) {
  match_index_.emplace(MatchHash(e->op, e->args), e->id);
  if (!e->args.empty() && e->args[0].is_bat()) {
    op_arg_index_[{static_cast<int>(e->op), e->args[0].bat()->id()}]
        .push_back(e->id);
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  for (const MalValue& v : e->results) {
    if (v.is_bat()) shared_->producer[v.bat()->id()] = e;
  }
  // Lineage edges: the producers of my bat arguments gain a child — the
  // producer may live in another stripe's pool (atomic counter, see
  // PoolEntry::children).
  for (const MalValue& a : e->args) {
    if (!a.is_bat()) continue;
    auto it = shared_->producer.find(a.bat()->id());
    if (it != shared_->producer.end() && it->second != e) {
      it->second->children.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Memory attribution: fresh columns are owned; shared columns add a
  // borrow edge to the owning entry (keeps subsumption sources alive).
  ForEachResultColumn(*e, [&](const Column* c) {
    auto it = shared_->col_track.find(c);
    if (it == shared_->col_track.end()) {
      size_t bytes = c->MemoryBytes();
      shared_->col_track.emplace(
          c, PoolSharedState::ColTrack{e, this, 1, bytes});
      e->owned_bytes += bytes;
      total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    } else {
      ++it->second.refs;
      if (it->second.owner != nullptr && it->second.owner != e) {
        it->second.owner->children.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
}

void RecyclePool::UnindexEntry(PoolEntry* e) {
  // match index
  auto range = match_index_.equal_range(MatchHash(e->op, e->args));
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == e->id) {
      match_index_.erase(it);
      break;
    }
  }
  if (!e->args.empty() && e->args[0].is_bat()) {
    auto key = std::make_pair(static_cast<int>(e->op), e->args[0].bat()->id());
    auto it = op_arg_index_.find(key);
    if (it != op_arg_index_.end()) {
      auto& vec = it->second;
      vec.erase(std::remove(vec.begin(), vec.end(), e->id), vec.end());
      if (vec.empty()) op_arg_index_.erase(it);
    }
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  for (const MalValue& v : e->results) {
    if (!v.is_bat()) continue;
    auto it = shared_->producer.find(v.bat()->id());
    if (it != shared_->producer.end() && it->second == e)
      shared_->producer.erase(it);
  }
  for (const MalValue& a : e->args) {
    if (!a.is_bat()) continue;
    auto it = shared_->producer.find(a.bat()->id());
    if (it != shared_->producer.end() && it->second != e) {
      PoolEntry* parent = it->second;
      if (parent->children.load(std::memory_order_relaxed) > 0)
        parent->children.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  ForEachResultColumn(*e, [&](const Column* c) {
    auto it = shared_->col_track.find(c);
    if (it == shared_->col_track.end()) return;
    if (it->second.owner != e) {
      PoolEntry* owner = it->second.owner;
      if (owner != nullptr &&
          owner->children.load(std::memory_order_relaxed) > 0)
        owner->children.fetch_sub(1, std::memory_order_relaxed);
    }
    if (--it->second.refs == 0) {
      // The introducing pool carries the bytes until the LAST borrower dies
      // (the column's data was alive until now), then gives them back.
      RecyclePool* owner_pool = it->second.owner_pool;
      owner_pool->total_bytes_.fetch_sub(it->second.bytes,
                                         std::memory_order_relaxed);
      shared_->col_track.erase(it);
    } else if (it->second.owner == e) {
      // The owner dies while borrowers remain: keep the attribution target
      // but never dereference the entry again.
      it->second.owner = nullptr;
    }
  });
}

PoolEntry* RecyclePool::FindExact(Opcode op, const std::vector<MalValue>& args,
                                  uint64_t visible_epoch) {
  auto range = match_index_.equal_range(MatchHash(op, args));
  for (auto it = range.first; it != range.second; ++it) {
    PoolEntry* e = Get(it->second);
    if (e == nullptr || e->op != op || e->args.size() != args.size()) continue;
    if (e->valid_from > visible_epoch) continue;  // newer than the snapshot
    bool eq = true;
    for (size_t i = 0; i < args.size(); ++i) {
      if (!e->args[i].MatchEq(args[i])) {
        eq = false;
        break;
      }
    }
    if (eq) return e;
  }
  return nullptr;
}

bool RecyclePool::HasEntriesFor(Opcode op, uint64_t bat_id) const {
  auto it = op_arg_index_.find({static_cast<int>(op), bat_id});
  return it != op_arg_index_.end() && !it->second.empty();
}

PoolEntry* RecyclePool::ProducerOf(uint64_t bat_id) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  auto it = shared_->producer.find(bat_id);
  return it == shared_->producer.end() ? nullptr : it->second;
}

std::vector<PoolEntry*> RecyclePool::FindByOpAndFirstArg(
    Opcode op, uint64_t bat_id, uint64_t visible_epoch) {
  std::vector<PoolEntry*> out;
  auto it = op_arg_index_.find({static_cast<int>(op), bat_id});
  if (it == op_arg_index_.end()) return out;
  out.reserve(it->second.size());
  for (uint64_t id : it->second) {
    PoolEntry* e = Get(id);
    if (e != nullptr && e->valid_from <= visible_epoch) out.push_back(e);
  }
  return out;
}

PoolEntry* RecyclePool::Get(uint64_t id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

void RecyclePool::AddSubsetEdge(uint64_t sub_bat, uint64_t super_bat) {
  shared_->lattice.AddEdge(sub_bat, super_bat);
}

bool RecyclePool::IsSubsetOf(uint64_t sub_bat, uint64_t super_bat) const {
  return shared_->lattice.IsSubsetOf(sub_bat, super_bat);
}

void RecyclePool::Remove(uint64_t id, bool force) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  if (!force) RDB_CHECK(it->second.children == 0);
  UnindexEntry(&it->second);
  entries_.erase(it);
}

size_t RecyclePool::InvalidateColumns(const std::vector<ColumnId>& cols) {
  std::vector<uint64_t> doomed;
  for (auto& [id, e] : entries_) {
    bool hit = false;
    for (const ColumnId& d : e.deps) {
      for (const ColumnId& c : cols) {
        if (d == c) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    if (hit) doomed.push_back(id);
  }
  for (uint64_t id : doomed) Remove(id, /*force=*/true);
  return doomed.size();
}

void RecyclePool::Clear() {
  // Unwind entry by entry: in a striped group the shared bookkeeping still
  // carries the OTHER stripes' entries, so a wholesale map clear would
  // corrupt their accounting. (A standalone pool ends up empty either way;
  // a full striped Clear visits every stripe.)
  for (auto& [id, e] : entries_) UnindexEntry(&e);
  entries_.clear();
  match_index_.clear();
  op_arg_index_.clear();
  shared_->lattice.Clear();
}

std::vector<PoolEntry*> RecyclePool::Entries() {
  std::vector<PoolEntry*> out;
  out.reserve(entries_.size());
  for (auto& [id, e] : entries_) out.push_back(&e);
  return out;
}

std::vector<const PoolEntry*> RecyclePool::Entries() const {
  std::vector<const PoolEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) out.push_back(&e);
  return out;
}

std::vector<PoolEntry*> RecyclePool::Leaves(uint64_t protected_epoch,
                                            bool include_protected) {
  std::vector<PoolEntry*> out;
  for (auto& [id, e] : entries_) {
    if (!e.IsLeaf()) continue;
    if (!include_protected && e.last_query >= protected_epoch) continue;
    out.push_back(&e);
  }
  return out;
}

size_t RecyclePool::ReusedBytes() const {
  size_t bytes = 0;
  for (const auto& [id, e] : entries_) {
    if (e.reuses > 0 || e.subsumption_uses > 0) bytes += e.owned_bytes;
  }
  return bytes;
}

size_t RecyclePool::ReusedEntries() const {
  size_t n = 0;
  for (const auto& [id, e] : entries_) {
    if (e.reuses > 0 || e.subsumption_uses > 0) ++n;
  }
  return n;
}

std::string RecyclePool::EntrySignature(const PoolEntry& e) {
  return StrFormat("%s|rows=%zu|bytes=%zu|reuses=%d|subs=%d|deps=%zu",
                   OpcodeName(e.op), e.result_rows, e.owned_bytes,
                   e.reuses.load(std::memory_order_relaxed),
                   e.subsumption_uses.load(std::memory_order_relaxed),
                   e.deps.size());
}

std::string RecyclePool::Dump(size_t max_entries) const {
  std::ostringstream os;
  os << StrFormat("recycle pool: %zu entries, %.2f MB\n", entries_.size(),
                  static_cast<double>(total_bytes_) / (1024.0 * 1024.0));
  std::vector<const PoolEntry*> es = Entries();
  std::sort(es.begin(), es.end(), [](const PoolEntry* a, const PoolEntry* b) {
    return a->admit_seq < b->admit_seq;
  });
  size_t n = 0;
  for (const PoolEntry* e : es) {
    if (n++ >= max_entries) {
      os << "  ...\n";
      break;
    }
    os << "  " << OpcodeName(e->op) << "(";
    for (size_t i = 0; i < e->args.size(); ++i) {
      if (i) os << ", ";
      if (e->args[i].is_bat())
        os << "bat#" << e->args[i].bat()->id();
      else
        os << e->args[i].scalar().ToString();
    }
    // mem is the entry's owned bytes and last the logical-clock tick of its
    // most recent use (admit tick in parentheses): together with the reuse
    // flags this is everything LRU/benefit eviction decides on, so a REPL
    // user can predict the next victim from this dump alone.
    os << StrFormat(
        ") rows=%zu cost=%.3fms mem=%zuB last=%llu(admit=%llu) reuses=%d%s%s",
        e->result_rows, e->cost_ms, e->owned_bytes,
        static_cast<unsigned long long>(
            e->last_use_seq.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(e->admit_seq), e->reuses.load(),
        e->global_reuse.load() ? " G" : "", e->local_reuse.load() ? " L" : "");
    os << "\n";
  }
  return os.str();
}

}  // namespace recycledb
