#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"

namespace recycledb::engine {

using detail::AnySideReader;
using detail::RawSideArray;

namespace {

/// Buckets a grouping table starts with. A few groups (Q1 has six) then
/// rarely share a bucket, as they often do in the small table an empty map
/// grows into, and a shared bucket costs a mispredicted chain walk per row.
/// Beyond that the table grows with the groups found, never with the rows.
constexpr size_t kInitialBuckets = 64;

}  // namespace

Result<BatPtr> Kunique(const BatPtr& b) {
  const BatSide& head = b->head();
  // Dense heads and declared-key columns are already duplicate-free.
  if (head.dense()) return b;
  if (head.col->key()) return b;
  TypeTag t = head.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    AnySideReader<T> reader(head);
    size_t n = b->size();
    // insert() looks up before it allocates, so a duplicate costs a probe
    // only. A string head has one heap, so its codes stand for its strings.
    std::unordered_set<T> seen(kInitialBuckets);
    SelVector sel;
    for (size_t i = 0; i < n; ++i) {
      if (seen.insert(reader[i]).second)
        sel.push_back(static_cast<uint32_t>(i));
    }
    if (sel.size() == n) return b;
    return Bat::Make(TakeSide(head, sel), TakeSide(b->tail(), sel), sel.size());
  });
}

namespace {

GroupResult MakeGroupResult(std::vector<Oid> map, std::vector<Oid> reps) {
  GroupResult out;
  out.map = Bat::DenseHead(Column::Make(TypeTag::kOid, std::move(map)));
  auto reps_col = Column::Make(TypeTag::kOid, std::move(reps));
  reps_col->set_key(true);
  out.reps = Bat::DenseHead(std::move(reps_col));
  return out;
}

/// Groups rows by a key from a small dense domain, `cell(i) < cells`,
/// indexing a direct array instead of hashing.
template <typename Cell>
GroupResult DirectGroupBy(const BatPtr& keys, size_t cells, Cell cell) {
  AnySideReader<Oid> heads(keys->head());
  size_t n = keys->size();
  constexpr Oid kUnseen = kNilOid;
  std::vector<Oid> gid_of(cells, kUnseen);
  std::vector<Oid> map(n);
  std::vector<Oid> reps;
  for (size_t i = 0; i < n; ++i) {
    Oid& g = gid_of[cell(i)];
    if (g == kUnseen) {
      g = reps.size();
      reps.push_back(heads[i]);
    }
    map[i] = g;
  }
  return MakeGroupResult(std::move(map), std::move(reps));
}

template <typename T>
GroupResult GroupByTyped(const BatPtr& keys) {
  AnySideReader<Oid> heads(keys->head());
  size_t n = keys->size();
  // Key reads hoisted to a raw array: materialised tails are read in place
  // instead of copied per row.
  std::vector<T> ktmp;
  const T* kv = RawSideArray<T>(keys->tail(), n, &ktmp);
  if constexpr (std::is_same_v<T, StrCode>) {
    // Equal strings have equal codes within the tail's one heap.
    const size_t heap = keys->tail().col->heap()->size();
    if (heap <= n)
      return DirectGroupBy(keys, heap, [&](size_t i) { return kv[i].v; });
  }
  // try_emplace builds a node only for a new group.
  std::unordered_map<T, Oid> groups(kInitialBuckets);
  std::vector<Oid> map(n);
  std::vector<Oid> reps;
  for (size_t i = 0; i < n; ++i) {
    auto [it, fresh] =
        groups.try_emplace(kv[i], static_cast<Oid>(groups.size()));
    if (fresh) reps.push_back(heads[i]);
    map[i] = it->second;
  }
  return MakeGroupResult(std::move(map), std::move(reps));
}

struct PairKey {
  Oid gid;
  uint64_t vhash;
  bool operator==(const PairKey& o) const {
    return gid == o.gid && vhash == o.vhash;
  }
};
struct PairKeyHash {
  size_t operator()(const PairKey& k) const {
    return k.gid * 0x9e3779b97f4a7c15ULL ^ k.vhash;
  }
};

template <typename T>
GroupResult SubGroupByTyped(const BatPtr& keys, const BatPtr& prev_map) {
  AnySideReader<Oid> heads(keys->head());
  size_t n = keys->size();
  std::vector<T> ktmp;
  const T* kv = RawSideArray<T>(keys->tail(), n, &ktmp);
  std::vector<Oid> ptmp;
  const Oid* prev = RawSideArray<Oid>(prev_map->tail(), n, &ptmp);
  if constexpr (std::is_same_v<T, StrCode>) {
    // (previous gid, code) pairs index a direct array of
    // groups x heap-size cells while it is no larger than the input.
    const size_t heap = keys->tail().col->heap()->size();
    Oid top = 0;  // a nil gid (never produced by grouping) rules it out
    for (size_t i = 0; i < n; ++i) top = std::max(top, prev[i]);
    if (top < n / heap) {
      return DirectGroupBy(keys, (top + 1) * heap,
                           [&](size_t i) { return prev[i] * heap + kv[i].v; });
    }
  }
  // Group on (previous gid, key value); to avoid per-type pair maps we key
  // on (gid, hash(value)) and verify values via a representative check.
  std::unordered_map<PairKey, Oid, PairKeyHash> groups(kInitialBuckets);
  std::vector<uint32_t> first_row;  // representative row per new gid
  std::vector<Oid> map(n);
  std::vector<Oid> reps;
  for (size_t i = 0; i < n; ++i) {
    PairKey k{prev[i], std::hash<T>()(kv[i])};
    auto it = groups.find(k);
    // Resolve (rare) hash collisions by probing alternative keys.
    while (it != groups.end() && !(kv[first_row[it->second]] == kv[i])) {
      k.vhash = k.vhash * 0x100000001b3ULL + 1;
      it = groups.find(k);
    }
    if (it == groups.end()) {
      Oid gid = static_cast<Oid>(first_row.size());
      groups.emplace(k, gid);
      first_row.push_back(static_cast<uint32_t>(i));
      reps.push_back(heads[i]);
      map[i] = gid;
    } else {
      map[i] = it->second;
    }
  }
  return MakeGroupResult(std::move(map), std::move(reps));
}

}  // namespace

Result<GroupResult> GroupBy(const BatPtr& keys) {
  TypeTag t = keys->tail().LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<GroupResult> {
    using T = typename decltype(tag)::type;
    return GroupByTyped<T>(keys);
  });
}

Result<GroupResult> SubGroupBy(const BatPtr& keys, const BatPtr& prev_map) {
  if (keys->size() != prev_map->size())
    return Status::InvalidArgument("subgroupby: misaligned inputs");
  TypeTag t = keys->tail().LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<GroupResult> {
    using T = typename decltype(tag)::type;
    return SubGroupByTyped<T>(keys, prev_map);
  });
}

}  // namespace recycledb::engine
