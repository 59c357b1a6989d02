#include <algorithm>
#include <numeric>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"

namespace recycledb::engine {

using detail::AnySideReader;

namespace {

/// Stable row order of a string tail by content.
SelVector StrOrder(const BatSide& tail, size_t n, bool desc) {
  const StringHeap& heap = *tail.col->heap();
  const StrCode* codes = tail.col->Data<StrCode>().data() + tail.offset;
  SelVector sel(n);
  std::iota(sel.begin(), sel.end(), 0u);
  std::stable_sort(sel.begin(), sel.end(), [&](uint32_t a, uint32_t c) {
    std::string_view x = heap.Get(codes[a]), y = heap.Get(codes[c]);
    return desc ? y < x : x < y;
  });
  return sel;
}

/// Stable row order of `tail`, ascending or descending. Descending keeps
/// ties in their input order rather than reversing them, which is what SQL
/// implementations conventionally produce for ORDER BY ... DESC.
SelVector Order(const BatSide& tail, size_t n, bool desc) {
  if (tail.LogicalType() == TypeTag::kStr) return StrOrder(tail, n, desc);
  return detail::VisitFixedWidth(tail.LogicalType(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    AnySideReader<T> reader(tail);
    SelVector sel(n);
    std::iota(sel.begin(), sel.end(), 0u);
    std::stable_sort(sel.begin(), sel.end(), [&](uint32_t a, uint32_t c) {
      return desc ? reader[c] < reader[a] : reader[a] < reader[c];
    });
    return sel;
  });
}

}  // namespace

Result<BatPtr> SortTail(const BatPtr& b) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  if (tail.dense() || (!tail.dense() && tail.col->sorted() &&
                       tail.offset == 0 && n == tail.col->size())) {
    return b;  // already ordered
  }
  SelVector sel = Order(tail, n, /*desc=*/false);
  BatSide new_tail = TakeSide(tail, sel);
  const_cast<Column*>(new_tail.col.get())->set_sorted(true);
  return Bat::Make(TakeSide(b->head(), sel), std::move(new_tail), n);
}

Result<BatPtr> SortTailRev(const BatPtr& b) {
  const BatSide& tail = b->tail();
  size_t n = b->size();
  SelVector sel = Order(tail, n, /*desc=*/true);
  return Bat::Make(TakeSide(b->head(), sel), TakeSide(tail, sel), n);
}

Result<BatPtr> Concat(const std::vector<BatPtr>& bats) {
  if (bats.empty()) return Status::InvalidArgument("concat of zero bats");
  if (bats.size() == 1) return bats[0];
  std::vector<const Bat*> raw;
  raw.reserve(bats.size());
  size_t total = 0;
  for (const auto& b : bats) {
    raw.push_back(b.get());
    total += b->size();
  }
  BatSide head = ConcatSides(raw, /*head_side=*/true);
  BatSide tail = ConcatSides(raw, /*head_side=*/false);
  return Bat::Make(std::move(head), std::move(tail), total);
}

}  // namespace recycledb::engine
