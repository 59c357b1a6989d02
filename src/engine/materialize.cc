#include "engine/materialize.h"

#include <memory>

#include "engine/detail.h"
#include "engine/vec/bitmap.h"
#include "util/check.h"

namespace recycledb::engine {

namespace {

bool IncreasingSel(const SelVector& sel) {
  for (size_t k = 1; k < sel.size(); ++k) {
    if (sel[k] <= sel[k - 1]) return false;
  }
  return true;
}

/// A side of exactly `n` values drawn from `side`: `write(out, value)`
/// stores `value(p)` for each of the n source positions p, in order, into
/// `out`. `increasing()` tells whether those positions strictly increase;
/// it is asked only when a result flag depends on it. A dense side
/// materialises to oids `seq + p`, sorted and key when increasing; a
/// materialised side keeps `sorted` and `key` when increasing, and shares
/// its heap.
template <typename Write, typename Increasing>
BatSide GatherSide(const BatSide& side, size_t n, Write write,
                   Increasing increasing) {
  if (side.dense()) {
    std::vector<Oid> out(n);
    const Oid seq = side.seq;
    write(out.data(), [seq](size_t p) -> Oid { return seq + p; });
    const bool inc = increasing();
    auto col = Column::Make(TypeTag::kOid, std::move(out));
    col->set_sorted(inc);
    col->set_key(inc);
    return BatSide::Materialized(std::move(col));
  }
  TypeTag t = side.type;
  return VisitPhysical(t, [&](auto tag) -> BatSide {
    using T = typename decltype(tag)::type;
    const T* src = side.col->Data<T>().data() + side.offset;
    std::vector<T> out(n);
    write(out.data(), [src](size_t p) -> T { return src[p]; });
    auto col = Column::Make(t, std::move(out), side.col->heap());
    const bool sorted = side.col->sorted(), key = side.col->key();
    if (sorted || key) {
      const bool inc = increasing();
      col->set_sorted(sorted && inc);
      col->set_key(key && inc);
    }
    return BatSide::Materialized(std::move(col));
  });
}

}  // namespace

BatSide TakeSide(const BatSide& side, const SelVector& sel) {
  auto write = [&](auto* out, auto value) {
    for (size_t i = 0; i < sel.size(); ++i) out[i] = value(sel[i]);
  };
  auto increasing = [&] { return IncreasingSel(sel); };
  return GatherSide(side, sel.size(), write, increasing);
}

BatSide FetchSide(const BatSide& side, const Oid* oids, size_t n, Oid seq,
                  bool increasing) {
  auto write = [&](auto* out, auto value) {
    for (size_t i = 0; i < n; ++i) out[i] = value(oids[i] - seq);
  };
  return GatherSide(side, n, write, [=] { return increasing; });
}

BatPtr CompactBat(const BatPtr& b, const std::vector<uint64_t>& bits) {
  const size_t n = b->size();
  const size_t count = vec::CountBits(bits.data(), n);
  auto write = [&](auto* out, auto value) {
    vec::CompactBits(bits.data(), n, out, value);
  };
  auto increasing = [] { return true; };
  return Bat::Make(GatherSide(b->head(), count, write, increasing),
                   GatherSide(b->tail(), count, write, increasing), count);
}

BatSide SliceSide(const BatSide& side, size_t offset, size_t len) {
  if (side.dense()) return BatSide::Dense(side.seq + offset);
  BatSide out = side;
  out.offset = side.offset + offset;
  (void)len;
  return out;
}

namespace {

/// Concatenated string codes of several sides, in one heap: the largest
/// input heap, extended by a copy only when another input holds a string
/// that heap lacks. Concatenating sides of different heaps is rare (a
/// §6.3 delta after a commit that added strings), so those rows are looked
/// up one by one.
BatSide ConcatStrSides(const std::vector<const BatSide*>& sides,
                       const std::vector<size_t>& counts) {
  StringHeapPtr heap = sides[0]->col->heap();
  for (const BatSide* s : sides) {
    if (s->col->heap()->size() > heap->size()) heap = s->col->heap();
  }
  std::unique_ptr<StringHeapBuilder> extended;
  std::vector<StrCode> out;
  for (size_t k = 0; k < sides.size(); ++k) {
    const StrCode* src =
        sides[k]->col->Data<StrCode>().data() + sides[k]->offset;
    const StringHeap& from = *sides[k]->col->heap();
    if (&from == heap.get()) {
      out.insert(out.end(), src, src + counts[k]);
      continue;
    }
    for (size_t i = 0; i < counts[k]; ++i) {
      std::string_view str = from.Get(src[i]);
      StrCode c;
      if (extended == nullptr && !heap->Find(str, &c))
        extended = std::make_unique<StringHeapBuilder>(*heap);
      out.push_back(extended != nullptr ? extended->Intern(str) : c);
    }
  }
  if (extended != nullptr) heap = extended->Finish();
  return BatSide::Materialized(
      Column::Make(TypeTag::kStr, std::move(out), std::move(heap)));
}

}  // namespace

BatSide ConcatSides(const std::vector<const Bat*>& bats, bool head_side) {
  RDB_CHECK(!bats.empty());
  const BatSide& first = head_side ? bats[0]->head() : bats[0]->tail();
  TypeTag t = first.LogicalType();
  if (t == TypeTag::kStr) {
    std::vector<const BatSide*> sides;
    std::vector<size_t> counts;
    for (const Bat* b : bats) {
      sides.push_back(head_side ? &b->head() : &b->tail());
      counts.push_back(b->size());
    }
    return ConcatStrSides(sides, counts);
  }
  return detail::VisitFixedWidth(t, [&](auto tag) -> BatSide {
    using T = typename decltype(tag)::type;
    std::vector<T> out;
    size_t total = 0;
    for (const Bat* b : bats) total += b->size();
    out.reserve(total);
    for (const Bat* b : bats) {
      const BatSide& s = head_side ? b->head() : b->tail();
      size_t n = b->size();
      if (s.dense()) {
        if constexpr (std::is_same_v<T, Oid>) {
          for (size_t i = 0; i < n; ++i) out.push_back(s.seq + i);
        } else {
          RDB_UNREACHABLE();
        }
      } else {
        const T* src = s.col->Data<T>().data() + s.offset;
        out.insert(out.end(), src, src + n);
      }
    }
    return BatSide::Materialized(Column::Make(t, std::move(out)));
  });
}

}  // namespace recycledb::engine
