#include "engine/materialize.h"

#include "util/check.h"

namespace recycledb::engine {

namespace {

/// Set by EncodedGatherScope for the thread's current program run.
thread_local bool t_encode_dense_gathers = false;

bool IncreasingSel(const SelVector& sel) {
  for (size_t k = 1; k < sel.size(); ++k) {
    if (sel[k] <= sel[k - 1]) return false;
  }
  return true;
}

}  // namespace

EncodedGatherScope::EncodedGatherScope(bool on)
    : prev_(t_encode_dense_gathers) {
  t_encode_dense_gathers = on;
}

EncodedGatherScope::~EncodedGatherScope() { t_encode_dense_gathers = prev_; }

BatSide TakeSide(const BatSide& side, size_t count, const SelVector& sel) {
  (void)count;
  if (side.dense()) {
    std::vector<Oid> out;
    out.reserve(sel.size());
    for (uint32_t i : sel) out.push_back(side.seq + i);
    // A gather from a dense sequence at increasing positions stays sorted.
    bool increasing = IncreasingSel(sel);
    if (t_encode_dense_gathers) {
      // Compress the fresh oid run: dense-derived gathers are the dominant
      // intermediate shape, and FOR usually narrows them to u16/u32 codes.
      if (EncodingPtr enc = ColumnEncoding::TryFor<Oid>(out)) {
        auto col = Column::MakeEncoded(TypeTag::kOid, std::move(enc));
        col->set_sorted(increasing);
        col->set_key(increasing);
        return BatSide::Materialized(std::move(col));
      }
    }
    auto col = Column::Make(TypeTag::kOid, std::move(out));
    col->set_sorted(increasing);
    col->set_key(increasing);
    return BatSide::Materialized(std::move(col));
  }
  TypeTag t = side.type;
  // An encoded source gathers in code space: the result column carries the
  // (shared-dict or same-base) encoding and is charged to the recycler at
  // encoded size; downstream kernels consume the codes without decompressing.
  if (EncodingPtr enc = side.col->shared_encoding()) {
    if (EncodingPtr g = ColumnEncoding::Gather(*enc, side.offset, sel)) {
      auto col = Column::MakeEncoded(t, std::move(g));
      if (side.col->sorted() && IncreasingSel(sel)) col->set_sorted(true);
      return BatSide::Materialized(std::move(col));
    }
  }
  return VisitPhysical(t, [&](auto tag) -> BatSide {
    using T = typename decltype(tag)::type;
    const T* src = side.col->Data<T>().data() + side.offset;
    std::vector<T> out;
    out.reserve(sel.size());
    for (uint32_t i : sel) out.push_back(src[i]);
    auto col = Column::Make(t, std::move(out));
    if (side.col->sorted()) {
      bool increasing = true;
      for (size_t k = 1; k < sel.size(); ++k) {
        if (sel[k] <= sel[k - 1]) {
          increasing = false;
          break;
        }
      }
      col->set_sorted(increasing);
    }
    return BatSide::Materialized(std::move(col));
  });
}

BatSide SliceSide(const BatSide& side, size_t offset, size_t len) {
  if (side.dense()) return BatSide::Dense(side.seq + offset);
  BatSide out = side;
  out.offset = side.offset + offset;
  (void)len;
  return out;
}

BatSide ConcatSides(const std::vector<const Bat*>& bats, bool head_side) {
  RDB_CHECK(!bats.empty());
  const BatSide& first =
      head_side ? bats[0]->head() : bats[0]->tail();
  TypeTag t = first.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> BatSide {
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
