#include "catalog/catalog.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "bat/hash_index.h"
#include "util/check.h"
#include "util/str.h"
#include "util/timer.h"

namespace recycledb {

namespace {

/// The write set's delete oids below `rows`, sorted and without
/// duplicates: the positions a merge drops.
std::vector<Oid> SortedDeletes(const std::vector<Oid>& deletes, size_t rows) {
  std::vector<Oid> out;
  out.reserve(deletes.size());
  for (Oid o : deletes) {
    if (o < rows) out.push_back(o);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// One column after a write set: `src` without the rows at the sorted
/// positions `deleted`, then value `ci` of every inserted row appended.
/// The rows between two deleted positions are copied as one run, so a
/// table that lost no rows is copied in one piece. When `inserted` is
/// non-null and the write set inserts rows, it receives a column of just
/// the inserted values.
ColumnPtr MergeColumn(TypeTag type, const Column& src,
                      const std::vector<Oid>& deleted,
                      const std::vector<std::vector<Scalar>>& inserts,
                      size_t ci, ColumnPtr* inserted) {
  ColumnPtr merged;
  VisitPhysical(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    const auto& data = src.Data<T>();
    std::vector<T> ins;
    ins.reserve(inserts.size());
    StringHeapPtr heap = src.heap();
    if constexpr (std::is_same_v<T, StrCode>) {
      // The old heap is shared while every inserted string is in it; a
      // new string extends a copy, which keeps the old codes, so older
      // snapshots keep their heap and the kept rows need no re-coding.
      std::unique_ptr<StringHeapBuilder> extended;
      for (const auto& row : inserts) {
        const std::string& s = row[ci].AsStr();
        StrCode c;
        if (extended == nullptr && !heap->Find(s, &c))
          extended = std::make_unique<StringHeapBuilder>(*heap);
        ins.push_back(extended != nullptr ? extended->Intern(s) : c);
      }
      if (extended != nullptr) heap = extended->Finish();
    } else {
      for (const auto& row : inserts) ins.push_back(row[ci].Get<T>());
    }
    if (inserted != nullptr && !ins.empty())
      *inserted = Column::Make(type, ins, heap);
    std::vector<T> fresh;
    fresh.reserve(data.size() - deleted.size() + ins.size());
    auto from = data.begin();
    for (Oid d : deleted) {
      fresh.insert(fresh.end(), from, data.begin() + d);
      from = data.begin() + d + 1;
    }
    fresh.insert(fresh.end(), from, data.end());
    fresh.insert(fresh.end(), ins.begin(), ins.end());
    auto col = Column::Make(type, std::move(fresh), std::move(heap));
    col->set_persistent(true);
    col->ComputeSorted();
    merged = std::move(col);
  });
  return merged;
}

/// Microseconds since `*t`, which moves to now.
double LapUs(int64_t* t) {
  const int64_t now = NowNanos();
  const double us = static_cast<double>(now - *t) / 1e3;
  *t = now;
  return us;
}

}  // namespace

Result<BatPtr> CatalogSnapshot::BindColumn(const std::string& table,
                                           const std::string& column) const {
  auto it = cols_.find({table, column});
  if (it == cols_.end())
    return Status::NotFound("column " + table + "." + column +
                            " (snapshot epoch " + std::to_string(epoch_) +
                            ")");
  return it->second.bat;
}

Result<BatPtr> CatalogSnapshot::BindIndex(const std::string& index) const {
  auto it = indices_.find(index);
  if (it == indices_.end())
    return Status::NotFound("index " + index + " (snapshot epoch " +
                            std::to_string(epoch_) + ")");
  return it->second.bat;
}

Result<ColumnId> CatalogSnapshot::GetColumnId(const std::string& table,
                                              const std::string& column) const {
  auto it = cols_.find({table, column});
  if (it == cols_.end())
    return Status::NotFound("column " + table + "." + column);
  return it->second.id;
}

Result<ColumnId> CatalogSnapshot::GetIndexId(const std::string& index) const {
  auto it = indices_.find(index);
  if (it == indices_.end()) return Status::NotFound("index " + index);
  return it->second.id;
}

Catalog::Catalog() : snapshot_(std::make_shared<CatalogSnapshot>()) {}

CatalogSnapshotPtr Catalog::Snapshot() const {
  return std::atomic_load(&snapshot_);
}

void Catalog::PublishSnapshot() {
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto snap = std::make_shared<CatalogSnapshot>();
  snap->epoch_ = epoch;
  for (const auto& t : tables_) {
    if (!t) continue;
    for (size_t ci = 0; ci < t->num_columns(); ++ci) {
      if (t->column(ci) == nullptr) continue;  // mid-bulk-load
      auto bound = BindColumn(t->name(), t->column_name(static_cast<int>(ci)));
      if (!bound.ok()) continue;
      snap->cols_[{t->name(), t->column_name(static_cast<int>(ci))}] =
          CatalogSnapshot::View{{t->id(), static_cast<int32_t>(ci)},
                                std::move(bound).value()};
    }
  }
  for (size_t k = 0; k < indices_.size(); ++k) {
    auto bound = BindIndex(indices_[k].name);
    if (!bound.ok()) continue;
    snap->indices_[indices_[k].name] = CatalogSnapshot::View{
        {indices_[k].child_table, kIndexColBase + static_cast<int32_t>(k)},
        std::move(bound).value()};
  }
  std::atomic_store(&snapshot_,
                    std::shared_ptr<const CatalogSnapshot>(std::move(snap)));
}

int Table::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int32_t Catalog::CreateTable(
    const std::string& name,
    const std::vector<std::pair<std::string, TypeTag>>& cols) {
  RDB_CHECK(table_by_name_.find(name) == table_by_name_.end());
  int32_t id = static_cast<int32_t>(tables_.size());
  auto t = std::make_unique<Table>(id, name);
  for (const auto& [cname, ctype] : cols) {
    t->defs_.push_back({cname, ctype});
    t->cols_.push_back(nullptr);
  }
  tables_.push_back(std::move(t));
  table_by_name_[name] = id;
  PublishSnapshot();
  return id;
}

template <typename T>
Status Catalog::LoadColumn(const std::string& table, const std::string& column,
                           std::vector<T> data, bool sorted, bool key) {
  const Table* tc = FindTable(table);
  if (tc == nullptr) return Status::NotFound("table " + table);
  Table* t = tables_[tc->id()].get();
  int ci = t->FindColumn(column);
  if (ci < 0) return Status::NotFound("column " + table + "." + column);
  auto col = Column::Make(t->defs_[ci].type, std::move(data));
  col->set_sorted(sorted);
  col->set_key(key);
  col->set_persistent(true);
  bool any_loaded = false;
  for (size_t k = 0; k < t->cols_.size(); ++k) {
    if (k != static_cast<size_t>(ci) && t->cols_[k] != nullptr)
      any_loaded = true;
  }
  if (!any_loaded) {
    t->rows_ = col->size();
  } else if (col->size() != t->rows_) {
    return Status::InvalidArgument(
        StrFormat("column %s.%s has %zu rows, table has %zu", table.c_str(),
                  column.c_str(), col->size(), t->rows_));
  }
  t->cols_[ci] = std::move(col);
  {
    std::lock_guard<std::mutex> lock(bind_mu_);
    bind_cache_.erase({t->id(), ci});
  }
  // A bulk load renumbers the table wholesale; transactions that began
  // before it cannot be remapped, so raise the conflict floor past the
  // epoch this publish is about to install.
  commit_history_.erase(t->id());
  history_floor_[t->id()] = epoch() + 1;
  PublishSnapshot();
  return Status::OK();
}

template Status Catalog::LoadColumn<int8_t>(const std::string&,
                                            const std::string&,
                                            std::vector<int8_t>, bool, bool);
template Status Catalog::LoadColumn<int32_t>(const std::string&,
                                             const std::string&,
                                             std::vector<int32_t>, bool, bool);
template Status Catalog::LoadColumn<int64_t>(const std::string&,
                                             const std::string&,
                                             std::vector<int64_t>, bool, bool);
template Status Catalog::LoadColumn<Oid>(const std::string&, const std::string&,
                                         std::vector<Oid>, bool, bool);
template Status Catalog::LoadColumn<double>(const std::string&,
                                            const std::string&,
                                            std::vector<double>, bool, bool);
template Status Catalog::LoadColumn<std::string>(const std::string&,
                                                 const std::string&,
                                                 std::vector<std::string>, bool,
                                                 bool);

Status Catalog::RegisterFkIndex(const std::string& name,
                                const std::string& child_table,
                                const std::string& child_key,
                                const std::string& parent_table,
                                const std::string& parent_key) {
  const Table* c = FindTable(child_table);
  const Table* p = FindTable(parent_table);
  if (c == nullptr || p == nullptr)
    return Status::NotFound("fk index tables");
  FkIndex idx;
  idx.name = name;
  idx.child_table = c->id();
  idx.parent_table = p->id();
  idx.child_key = c->FindColumn(child_key);
  idx.parent_key = p->FindColumn(parent_key);
  if (idx.child_key < 0 || idx.parent_key < 0)
    return Status::NotFound("fk index key columns");
  RDB_RETURN_NOT_OK(RebuildIndex(&idx));
  index_by_name_[name] = static_cast<int>(indices_.size());
  indices_.push_back(std::move(idx));
  PublishSnapshot();
  return Status::OK();
}

ColumnPtr Catalog::BuildFkMap(const Column& child_key,
                              const Column& parent_key) {
  const auto& cv = child_key.Data<Oid>();
  const auto& pv = parent_key.Data<Oid>();
  const size_t cn = cv.size(), pn = pv.size();
  std::vector<Oid> map(cn);
  const size_t span = parent_key.sorted() && parent_key.key()
                          ? DirectSpan(pv.data(), pn, cn + pn)
                          : 0;
  if (span != 0) {
    // Distinct ascending parent keys: a position array over their span. A
    // nil child key lies past the span (the parent's last key is below the
    // nil), so it misses like any key outside it, reading slot 0 instead.
    constexpr uint32_t kAbsent = ~uint32_t{0};
    const Oid lo = pv[0];
    std::vector<uint32_t> row_of(span, kAbsent);
    for (size_t j = 0; j < pn; ++j)
      row_of[pv[j] - lo] = static_cast<uint32_t>(j);
    for (size_t i = 0; i < cn; ++i) {
      const Oid d = cv[i] - lo;
      const bool in = d < span;
      const uint32_t j = row_of[in ? d : 0];
      map[i] = in && j != kAbsent ? j : kNilOid;
    }
  } else {
    // The index holds no nil parent key and finds no nil child key.
    HashIndexT<Oid> index(pv.data(), pn);
    for (size_t i = 0; i < cn; ++i) {
      const size_t j = index.FindFirst(cv[i]);
      map[i] = j == SIZE_MAX ? kNilOid : j;
    }
  }
  auto col = Column::Make(TypeTag::kOid, std::move(map));
  col->set_persistent(true);
  return col;
}

Status Catalog::RebuildIndex(FkIndex* idx, bool* changed) {
  const Table* c = tables_[idx->child_table].get();
  const Table* p = tables_[idx->parent_table].get();
  const ColumnPtr& ckey = c->column(idx->child_key);
  const ColumnPtr& pkey = p->column(idx->parent_key);
  if (ckey == nullptr || pkey == nullptr)
    return Status::Internal("fk index over unloaded columns");
  if (ckey->type() != TypeTag::kOid || pkey->type() != TypeTag::kOid)
    return Status::InvalidArgument("fk keys must be oid-typed");
  ColumnPtr map = BuildFkMap(*ckey, *pkey);
  const bool same =
      idx->map != nullptr && idx->map->Data<Oid>() == map->Data<Oid>();
  if (!same) idx->map = std::move(map);
  if (changed != nullptr) *changed = !same;
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  auto it = table_by_name_.find(name);
  if (it == table_by_name_.end()) return Status::NotFound("table " + name);
  int32_t id = it->second;
  std::vector<ColumnId> invalidated;
  Table* t = tables_[id].get();
  for (size_t ci = 0; ci < t->num_columns(); ++ci)
    invalidated.push_back({id, static_cast<int32_t>(ci)});
  for (size_t k = 0; k < indices_.size(); ++k) {
    if (indices_[k].child_table == id || indices_[k].parent_table == id) {
      invalidated.push_back({indices_[k].child_table,
                             kIndexColBase + static_cast<int32_t>(k)});
      index_by_name_.erase(indices_[k].name);
    }
  }
  indices_.erase(std::remove_if(indices_.begin(), indices_.end(),
                                [&](const FkIndex& x) {
                                  return x.child_table == id ||
                                         x.parent_table == id;
                                }),
                 indices_.end());
  // Rebuild name->slot map since slots shifted — and drop the whole
  // slot-keyed index bind cache: surviving indices now live under new slots,
  // so per-slot erasure would leave stale entries that a later index
  // reusing the slot would wrongly inherit.
  index_by_name_.clear();
  for (size_t k = 0; k < indices_.size(); ++k)
    index_by_name_[indices_[k].name] = static_cast<int>(k);
  {
    std::lock_guard<std::mutex> lock(bind_mu_);
    index_bind_cache_.clear();
  }
  InvalidateBindCache(id);
  tables_[id].reset();
  table_by_name_.erase(it);
  commit_history_.erase(id);
  history_floor_.erase(id);
  // Listener first (pool/plan maintenance, stale-epoch stamping), THEN the
  // new epoch becomes visible — same ordering contract as Commit.
  if (listener_) listener_(invalidated, UpdateKind::kSchema);
  PublishSnapshot();
  return Status::OK();
}

const Table* Catalog::FindTable(const std::string& name) const {
  auto it = table_by_name_.find(name);
  if (it == table_by_name_.end()) return nullptr;
  return tables_[it->second].get();
}

Result<ColumnId> Catalog::GetColumnId(const std::string& table,
                                      const std::string& column) const {
  const Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  int ci = t->FindColumn(column);
  if (ci < 0) return Status::NotFound("column " + table + "." + column);
  return ColumnId{t->id(), ci};
}

Result<ColumnId> Catalog::GetIndexId(const std::string& index) const {
  auto it = index_by_name_.find(index);
  if (it == index_by_name_.end()) return Status::NotFound("index " + index);
  return ColumnId{indices_[it->second].child_table,
                  kIndexColBase + it->second};
}

Result<std::string> Catalog::FindFkIndex(const std::string& child_table,
                                         const std::string& child_col,
                                         const std::string& parent_table,
                                         const std::string& parent_col) const {
  const Table* c = FindTable(child_table);
  const Table* p = FindTable(parent_table);
  if (c == nullptr || p == nullptr)
    return Status::NotFound("fk index tables");
  int cc = c->FindColumn(child_col);
  int pc = p->FindColumn(parent_col);
  if (cc < 0 || pc < 0) return Status::NotFound("fk index key columns");
  for (const FkIndex& idx : indices_) {
    if (idx.child_table == c->id() && idx.parent_table == p->id() &&
        idx.child_key == cc && idx.parent_key == pc) {
      return idx.name;
    }
  }
  return Status::NotFound(StrFormat(
      "no foreign-key join index registered for %s.%s -> %s.%s",
      child_table.c_str(), child_col.c_str(), parent_table.c_str(),
      parent_col.c_str()));
}

Result<BatPtr> Catalog::BindColumn(const std::string& table,
                                   const std::string& column) {
  const Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  int ci = t->FindColumn(column);
  if (ci < 0) return Status::NotFound("column " + table + "." + column);
  if (t->column(ci) == nullptr)
    return Status::Internal("column not loaded: " + table + "." + column);
  auto key = std::make_pair(t->id(), ci);
  std::lock_guard<std::mutex> lock(bind_mu_);
  auto it = bind_cache_.find(key);
  if (it != bind_cache_.end()) return it->second;
  BatPtr b = Bat::DenseHead(t->column(ci));
  bind_cache_[key] = b;
  return b;
}

Result<BatPtr> Catalog::BindIndex(const std::string& index) {
  auto it = index_by_name_.find(index);
  if (it == index_by_name_.end()) return Status::NotFound("index " + index);
  std::lock_guard<std::mutex> lock(bind_mu_);
  auto cached = index_bind_cache_.find(it->second);
  if (cached != index_bind_cache_.end()) return cached->second;
  BatPtr b = Bat::DenseHead(indices_[it->second].map);
  index_bind_cache_[it->second] = b;
  return b;
}

TxnWriteSet Catalog::BeginWrite() const {
  TxnWriteSet ws;
  ws.begin_epoch = epoch();
  return ws;
}

Status Catalog::Append(TxnWriteSet* ws, const std::string& table,
                       std::vector<std::vector<Scalar>> rows) {
  const Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  for (const auto& r : rows) {
    if (r.size() != t->num_columns())
      return Status::InvalidArgument("row arity mismatch");
  }
  auto& delta = ws->deltas[t->id()];
  for (auto& r : rows) delta.inserts.push_back(std::move(r));
  ++ws->version;
  return Status::OK();
}

Status Catalog::Delete(TxnWriteSet* ws, const std::string& table,
                       std::vector<Oid> overlay_oids,
                       const CatalogSnapshot* base_snap, size_t* newly_queued) {
  const Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  // The kept-row boundary is the BEGIN snapshot's row count: the victim
  // scan that produced these oids ran against that snapshot (plus this
  // write set), so commits landed since must not move the boundary.
  size_t base = t->num_rows();
  if (base_snap != nullptr) {
    if (t->num_columns() == 0)
      return Status::Internal("delete from a column-less table");
    RDB_ASSIGN_OR_RETURN(BatPtr b,
                         base_snap->BindColumn(table, t->column_name(0)));
    base = b->size();
  }
  auto& delta = ws->deltas[t->id()];
  const size_t kept = base - delta.deletes.size();

  // Sorted copy of the already-queued begin-coordinate deletes: the inverse
  // of the overlay's compaction walks it ascending to restore each kept
  // overlay oid to its begin coordinate.
  std::vector<Oid> queued_sorted(delta.deletes.begin(), delta.deletes.end());
  std::sort(queued_sorted.begin(), queued_sorted.end());

  std::vector<Oid> base_victims;
  std::vector<size_t> insert_victims;  // indices into delta.inserts
  for (Oid v : overlay_oids) {
    if (v < kept) {
      Oid b = v;
      for (Oid d : queued_sorted) {
        if (d <= b)
          ++b;
        else
          break;
      }
      base_victims.push_back(b);
    } else {
      size_t idx = v - kept;
      if (idx >= delta.inserts.size())
        return Status::Internal("victim oid beyond the overlay row space");
      insert_victims.push_back(idx);
    }
  }

  size_t added = 0;
  // Un-queue the transaction's own pending inserts, highest index first so
  // earlier removals do not shift later ones.
  std::sort(insert_victims.begin(), insert_victims.end());
  insert_victims.erase(
      std::unique(insert_victims.begin(), insert_victims.end()),
      insert_victims.end());
  for (auto it = insert_victims.rbegin(); it != insert_victims.rend(); ++it) {
    delta.inserts.erase(delta.inserts.begin() +
                        static_cast<ptrdiff_t>(*it));
    ++added;
  }
  std::unordered_set<Oid> dedup(delta.deletes.begin(), delta.deletes.end());
  for (Oid b : base_victims) {
    if (dedup.insert(b).second) {
      delta.deletes.push_back(b);
      ++added;
    }
  }
  if (newly_queued != nullptr) *newly_queued = added;
  if (added > 0) ++ws->version;
  return Status::OK();
}

void Catalog::InvalidateBindCache(int32_t table_id) {
  std::lock_guard<std::mutex> lock(bind_mu_);
  for (auto it = bind_cache_.begin(); it != bind_cache_.end();) {
    if (it->first.first == table_id)
      it = bind_cache_.erase(it);
    else
      ++it;
  }
}

Status Catalog::CommitWrite(TxnWriteSet* ws, CommitPhases* phases) {
  if (ws->Empty()) {
    ws->deltas.clear();
    return Status::OK();
  }
  CommitPhases local;
  if (phases == nullptr) phases = &local;
  int64_t lap = NowNanos();

  // --- Phase 1: first-writer-wins conflict check + coordinate remap. Pure
  // over the catalog — a WriteConflict return leaves every table, cache,
  // and epoch untouched; the caller discards the write set (abort).
  //
  // ws delete oids are in begin-snapshot coordinates. Every delete-carrying
  // commit published since renumbered the table's rows (its compaction
  // shifts subsequent oids down); replaying the retained commit records in
  // epoch order either proves a conflict (some commit deleted the same row
  // this transaction targets) or yields the rows' CURRENT coordinates.
  // Insert-only commits neither move nor remove rows, so they are absent
  // from the history and two insert-only transactions never conflict.
  std::map<int32_t, std::vector<Oid>> remapped;
  for (auto& [tid, delta] : ws->deltas) {
    if (delta.Empty()) continue;
    if (tid < 0 || static_cast<size_t>(tid) >= tables_.size() ||
        tables_[tid] == nullptr)
      return Status::NotFound("table dropped since the transaction began");
    if (delta.deletes.empty()) continue;
    const std::string& tname = tables_[tid]->name();
    auto fit = history_floor_.find(tid);
    if (fit != history_floor_.end() && ws->begin_epoch < fit->second)
      return Status::WriteConflict(
          "transaction over '" + tname +
          "' began before the retained commit history (epoch " +
          std::to_string(ws->begin_epoch) + " < floor " +
          std::to_string(fit->second) + ")");
    std::vector<Oid> oids = delta.deletes;
    auto hit = commit_history_.find(tid);
    if (hit != commit_history_.end()) {
      for (const CommitRecord& rec : hit->second) {  // ascending epoch
        if (rec.epoch <= ws->begin_epoch) continue;
        for (Oid& o : oids) {
          auto lb = std::lower_bound(rec.deleted_sorted.begin(),
                                     rec.deleted_sorted.end(), o);
          if (lb != rec.deleted_sorted.end() && *lb == o)
            return Status::WriteConflict(
                "row of '" + tname +
                "' was deleted or updated by a transaction that committed at "
                "epoch " +
                std::to_string(rec.epoch));
          o -= static_cast<Oid>(lb - rec.deleted_sorted.begin());
        }
      }
    }
    remapped[tid] = std::move(oids);
  }

  // --- Phase 2: the delta merge (the pre-transaction Commit body), reading
  // deletes in their remapped current coordinates.
  std::vector<ColumnId> invalidated;
  last_insert_delta_.clear();
  last_commit_insert_only_.clear();
  std::vector<int32_t> updated_tables;

  for (auto& [tid, delta] : ws->deltas) {
    if (delta.Empty()) continue;
    Table* t = tables_[tid].get();
    updated_tables.push_back(tid);
    last_commit_insert_only_[tid] = delta.deletes.empty();
    const std::vector<Oid> deleted = SortedDeletes(
        remapped.count(tid) ? remapped[tid] : delta.deletes, t->rows_);
    const size_t kept = t->rows_ - deleted.size();

    for (size_t ci = 0; ci < t->num_columns(); ++ci) {
      TypeTag ctype = t->defs_[ci].type;
      const ColumnPtr& old = t->cols_[ci];
      RDB_CHECK(old != nullptr);
      ColumnPtr ins;
      t->cols_[ci] = MergeColumn(ctype, *old, deleted, delta.inserts, ci, &ins);
      // Record the insert delta for §6.3 propagation.
      if (ins != nullptr) {
        last_insert_delta_[{tid, static_cast<int>(ci)}] = Bat::Make(
            BatSide::Dense(kept), BatSide::Materialized(ins), ins->size());
      }
      invalidated.push_back({tid, static_cast<int32_t>(ci)});
    }
    t->rows_ = kept + delta.inserts.size();
    InvalidateBindCache(tid);
  }
  phases->merge_us = LapUs(&lap);

  // Rebuild join indices touching any updated table. An index whose map
  // came out unchanged keeps its column and bound BAT, and is not reported:
  // pool entries over it stay valid.
  for (size_t k = 0; k < indices_.size(); ++k) {
    FkIndex& idx = indices_[k];
    bool touched = false;
    for (int32_t tid : updated_tables) {
      if (idx.child_table == tid || idx.parent_table == tid) touched = true;
    }
    if (!touched) continue;
    bool changed = false;
    RDB_RETURN_NOT_OK(RebuildIndex(&idx, &changed));
    if (!changed) continue;
    {
      std::lock_guard<std::mutex> lock(bind_mu_);
      index_bind_cache_.erase(static_cast<int>(k));
    }
    invalidated.push_back({idx.child_table,
                           kIndexColBase + static_cast<int32_t>(k)});
  }
  phases->index_us = LapUs(&lap);

  ws->deltas.clear();
  if (invalidated.empty()) return Status::OK();  // all deltas were empty
  // Commit = merge deltas, let the listener reconcile the recycler pool and
  // plan cache against the columns that changed, and only THEN publish the
  // new snapshot and bump the epoch. Submissions that capture a snapshot
  // before the publish keep reading the previous version; submissions after
  // it see a fully reconciled pool — no reader ever observes a half-applied
  // commit.
  if (listener_) listener_(invalidated, UpdateKind::kData);
  phases->pool_us = LapUs(&lap);

  // Record this commit's deletes (in the pre-commit coordinates computed by
  // phase 1) so later-committing transactions that began before it can be
  // remapped or refused. Insert-only tables are deliberately NOT recorded:
  // they never renumber rows, so they can neither cause nor lose a conflict.
  const uint64_t commit_epoch = epoch() + 1;  // PublishSnapshot's epoch
  for (auto& [tid, oids] : remapped) {
    if (oids.empty()) continue;
    std::sort(oids.begin(), oids.end());
    oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
    auto& hist = commit_history_[tid];
    hist.push_back(CommitRecord{commit_epoch, std::move(oids)});
    while (hist.size() > kCommitHistoryCap) {
      // Pruned records raise the floor: transactions older than the newest
      // pruned epoch can no longer be remapped and conflict conservatively.
      history_floor_[tid] = std::max(history_floor_[tid], hist.front().epoch);
      hist.erase(hist.begin());
    }
  }
  PublishSnapshot();
  phases->publish_us = LapUs(&lap);
  return Status::OK();
}

Result<CatalogSnapshotPtr> Catalog::OverlaySnapshot(
    const CatalogSnapshotPtr& base, const TxnWriteSet& ws) {
  auto snap = std::make_shared<CatalogSnapshot>();
  snap->epoch_ = base->epoch_;
  snap->cols_ = base->cols_;
  snap->indices_ = base->indices_;

  // Merged key columns per touched table, for FK-index rebuilds below.
  std::map<int32_t, std::map<int, ColumnPtr>> fresh_cols;

  for (const auto& [tid, delta] : ws.deltas) {
    if (delta.Empty()) continue;
    if (tid < 0 || static_cast<size_t>(tid) >= tables_.size() ||
        tables_[tid] == nullptr)
      return Status::NotFound("table dropped since the transaction began");
    const Table* t = tables_[tid].get();
    const std::string& tname = t->name();

    // Base row count and per-column source data come from the BEGIN
    // snapshot — the write set's delete oids are in its coordinates.
    RDB_ASSIGN_OR_RETURN(BatPtr probe,
                         base->BindColumn(tname, t->column_name(0)));
    const std::vector<Oid> deleted =
        SortedDeletes(delta.deletes, probe->size());

    for (size_t ci = 0; ci < t->num_columns(); ++ci) {
      const std::string& cname = t->column_name(static_cast<int>(ci));
      RDB_ASSIGN_OR_RETURN(BatPtr bound, base->BindColumn(tname, cname));
      const ColumnPtr& old = bound->tail().col;
      if (old == nullptr)
        return Status::Internal("overlay over non-materialized base column");
      ColumnPtr merged = MergeColumn(t->defs_[ci].type, *old, deleted,
                                     delta.inserts, ci, nullptr);
      fresh_cols[tid][static_cast<int>(ci)] = merged;
      snap->cols_[{tname, cname}] = CatalogSnapshot::View{
          {tid, static_cast<int32_t>(ci)}, Bat::DenseHead(merged)};
    }
  }

  // Rebuild FK indices whose child or parent table the write set touched,
  // over the overlay's merged key columns.
  for (size_t k = 0; k < indices_.size(); ++k) {
    const FkIndex& idx = indices_[k];
    const bool touched = fresh_cols.count(idx.child_table) ||
                         fresh_cols.count(idx.parent_table);
    if (!touched) continue;
    auto key_col = [&](int32_t tid, int ci) -> Result<ColumnPtr> {
      auto fit = fresh_cols.find(tid);
      if (fit != fresh_cols.end()) {
        auto cit = fit->second.find(ci);
        if (cit != fit->second.end()) return cit->second;
      }
      const Table* t = tables_[tid].get();
      RDB_ASSIGN_OR_RETURN(
          BatPtr bound, base->BindColumn(t->name(), t->column_name(ci)));
      if (bound->tail().col == nullptr)
        return Status::Internal("overlay index over non-materialized column");
      return bound->tail().col;
    };
    RDB_ASSIGN_OR_RETURN(ColumnPtr ckey, key_col(idx.child_table, idx.child_key));
    RDB_ASSIGN_OR_RETURN(ColumnPtr pkey,
                         key_col(idx.parent_table, idx.parent_key));
    if (ckey->type() != TypeTag::kOid || pkey->type() != TypeTag::kOid)
      return Status::InvalidArgument("fk keys must be oid-typed");
    snap->indices_[idx.name] = CatalogSnapshot::View{
        {idx.child_table, kIndexColBase + static_cast<int32_t>(k)},
        Bat::DenseHead(BuildFkMap(*ckey, *pkey))};
  }
  return CatalogSnapshotPtr(std::move(snap));
}

Result<BatPtr> Catalog::LastInsertDelta(const std::string& table,
                                        const std::string& column) const {
  RDB_ASSIGN_OR_RETURN(ColumnId cid, GetColumnId(table, column));
  auto it = last_insert_delta_.find({cid.table, cid.col});
  if (it == last_insert_delta_.end())
    return Status::NotFound("no insert delta for " + table + "." + column);
  return it->second;
}

bool Catalog::LastCommitInsertOnly(const std::string& table) const {
  const Table* t = FindTable(table);
  if (t == nullptr) return false;
  auto it = last_commit_insert_only_.find(t->id());
  return it != last_commit_insert_only_.end() && it->second;
}

size_t Catalog::TotalPersistentBytes() const {
  size_t bytes = 0;
  std::unordered_set<const StringHeap*> heaps;  // each heap charged once
  for (const auto& t : tables_) {
    if (!t) continue;
    for (size_t ci = 0; ci < t->num_columns(); ++ci) {
      const ColumnPtr& col = t->column(ci);
      if (col == nullptr) continue;
      bytes += col->MemoryBytes();
      if (col->heap() != nullptr && heaps.insert(col->heap().get()).second)
        bytes += col->heap()->MemoryBytes();
    }
  }
  for (const auto& idx : indices_) {
    if (idx.map) bytes += idx.map->MemoryBytes();
  }
  return bytes;
}

}  // namespace recycledb
