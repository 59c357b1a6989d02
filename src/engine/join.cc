#include "bat/hash_index.h"
#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"
#include "engine/vec/bitmap.h"
#include "engine/vec/hashprobe.h"

namespace recycledb::engine {

using detail::PhysCompatible;
using detail::RawSideArray;

namespace {

/// Positional fetch join: r.head is a dense oid sequence, so the match for
/// l.tail value v sits at position v - r.seq. This is the projection join
/// that dominates MAL plans after markT/reverse candidate construction.
Result<BatPtr> PositionalJoin(const BatPtr& l, const BatPtr& r) {
  const BatSide& ltail = l->tail();
  Oid seq = r->head().seq;
  size_t rn = r->size();
  size_t ln = l->size();
  if (ltail.dense()) {
    // Both sides dense: the join is an offset window over r.
    Oid lo = ltail.seq, hi = ltail.seq + ln;  // values [lo, hi)
    Oid rlo = seq, rhi = seq + rn;
    Oid from = lo > rlo ? lo : rlo;
    Oid to = hi < rhi ? hi : rhi;
    if (to < from) to = from;
    size_t loff = from - lo, roff = from - rlo, len = to - from;
    return Bat::Make(SliceSide(l->head(), loff, len),
                     SliceSide(r->tail(), roff, len), len);
  }

  // Does every oid lie inside r's dense head, and do they strictly
  // increase? Every fetch after Rebase is in range. With d = v - seq, the
  // top bit of d | ~(d - rn) is set iff d >= rn (a nil lies past any dense
  // head). A tail flagged sorted and key strictly increases, so its two
  // endpoints decide. Otherwise one branch-free pass: `rising` keeps its
  // top bit while each oid exceeds the one before, which the differences
  // show once every offset is below rn < 2^63.
  const Oid* lv = ltail.col->Data<Oid>().data() + ltail.offset;
  auto outside = [seq, rn](Oid v) {
    const Oid d = v - seq;
    return d | ~(d - rn);
  };
  uint64_t out_bits = ln == 0 ? 0 : outside(lv[0]);
  bool increasing = true;
  if (ltail.col->sorted() && ltail.col->key()) {
    if (ln > 1) out_bits |= outside(lv[ln - 1]);
  } else {
    uint64_t rising = ~uint64_t{0};
    for (size_t i = 1; i < ln; ++i) {
      out_bits |= outside(lv[i]);
      rising &= lv[i - 1] - lv[i];
    }
    increasing = (rising >> 63) != 0;
  }
  const bool inside = (out_bits >> 63) == 0;
  if (inside) {
    // l's head carries over as it is, so a dense head stays dense and a
    // materialised one is shared; r's tail is gathered directly.
    return Bat::Make(l->head(), FetchSide(r->tail(), lv, ln, seq, increasing),
                     ln);
  }

  // A nil or out-of-range oid: branch-free compaction, where every pair is
  // written and only a non-nil value inside r's dense head advances the
  // output cursor.
  SelVector sel_l(ln), pos_r(ln);
  size_t k = 0;
  for (size_t i = 0; i < ln; ++i) {
    Oid v = lv[i];
    sel_l[k] = static_cast<uint32_t>(i);
    pos_r[k] = static_cast<uint32_t>(v - seq);
    k += v != kNilOid && v >= seq && v - seq < rn;
  }
  sel_l.resize(k);
  pos_r.resize(k);
  return Bat::Make(TakeSide(l->head(), sel_l), TakeSide(r->tail(), pos_r), k);
}

/// Direct-addressed join over the `span` oids r.head's values lie in,
/// from its first: a position array over that range finds each probe's
/// match with one subtract, one compare and one load, and the output is
/// BatchProbeUnique's, row for row.
Result<BatPtr> DirectJoin(const BatPtr& l, const BatPtr& r, size_t span) {
  const BatSide& rhead = r->head();
  const Oid* rv = rhead.col->Data<Oid>().data() + rhead.offset;
  const size_t rn = r->size(), ln = l->size();
  const Oid lo = rv[0];
  constexpr uint32_t kAbsent = ~uint32_t{0};
  std::vector<uint32_t> row_of(span, kAbsent);
  for (size_t j = 0; j < rn; ++j) row_of[rv[j] - lo] = static_cast<uint32_t>(j);
  std::vector<Oid> tmp;
  const Oid* keys = RawSideArray<Oid>(l->tail(), ln, &tmp);
  // Every pair is written and only a match advances the cursor; a nil or
  // out-of-range probe reads slot 0 instead.
  SelVector sel_l(ln), pos_r(ln);
  size_t o = 0;
  for (size_t i = 0; i < ln; ++i) {
    const Oid d = keys[i] - lo;
    const bool in = d < span;
    const uint32_t j = row_of[in ? d : 0];
    sel_l[o] = static_cast<uint32_t>(i);
    pos_r[o] = j;
    o += in & (j != kAbsent);
  }
  sel_l.resize(o);
  pos_r.resize(o);
  return Bat::Make(TakeSide(l->head(), sel_l), TakeSide(r->tail(), pos_r), o);
}

template <typename T>
Result<BatPtr> HashJoin(const BatPtr& l, const BatPtr& r) {
  const BatSide& rhead = r->head();
  const T* rdata = rhead.col->Data<T>().data() + rhead.offset;
  size_t rn = r->size();
  const BatSide& ltail = l->tail();
  size_t ln = l->size();
  std::vector<T> tmp;
  const T* keys = RawSideArray<T>(ltail, ln, &tmp);
  std::vector<StrCode> recoded;
  if constexpr (std::is_same_v<T, StrCode>)
    detail::ShareHeap(ltail, ln, &keys, rhead, rn, &rdata, &recoded);
  HashIndexT<T> index(rdata, rn);
  SelVector sel_l, pos_r;
  if (rhead.col->key() && rn > 0) {
    // Unique inner: at most one match per probe, so the branch-free
    // compaction probe applies and the output size is bounded by ln.
    sel_l.resize(ln);
    pos_r.resize(ln);
    size_t o =
        vec::BatchProbeUnique(index, keys, ln, sel_l.data(), pos_r.data());
    sel_l.resize(o);
    pos_r.resize(o);
  } else {
    vec::BatchProbe(index, keys, ln, [&](size_t i, uint32_t j) {
      sel_l.push_back(static_cast<uint32_t>(i));
      pos_r.push_back(j);
    });
  }
  return Bat::Make(TakeSide(l->head(), sel_l), TakeSide(r->tail(), pos_r),
                   sel_l.size());
}

}  // namespace

size_t DirectJoinSpan(const Bat& l, const Bat& r) {
  const BatSide& rhead = r.head();
  const size_t rn = r.size();
  if (rhead.dense() || rhead.type != TypeTag::kOid || !rhead.col->sorted() ||
      !rhead.col->key())
    return 0;
  return DirectSpan(rhead.col->Data<Oid>().data() + rhead.offset, rn,
                    l.size() + rn);
}

Result<BatPtr> Join(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->tail().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt))
    return Status::TypeMismatch("join key types are incompatible");

  if (r->head().dense()) return PositionalJoin(l, r);
  if (size_t span = DirectJoinSpan(*l, *r)) return DirectJoin(l, r, span);

  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    return HashJoin<T>(l, r);
  });
}

namespace {

template <typename T>
Result<BatPtr> HashSemijoin(const BatPtr& l, const BatPtr& r, bool anti) {
  const BatSide& rhead = r->head();
  size_t rn = r->size();
  // Build over r.head; dense r heads are handled by the caller's fast path
  // for the positive case, but anti-joins still land here.
  std::vector<T> rvals;
  const T* rdata = RawSideArray<T>(rhead, rn, &rvals);
  const BatSide& lhead = l->head();
  size_t ln = l->size();
  std::vector<T> tmp;
  const T* keys = RawSideArray<T>(lhead, ln, &tmp);
  std::vector<StrCode> recoded;
  if constexpr (std::is_same_v<T, StrCode>)
    detail::ShareHeap(lhead, ln, &keys, rhead, rn, &rdata, &recoded);
  HashIndexT<T> index(rdata, rn);
  std::vector<uint8_t> hits(ln);
  vec::BatchContains(index, keys, ln, hits.data());

  size_t nhits = 0;
  for (size_t i = 0; i < ln; ++i) nhits += hits[i];
  SelVector sel;
  sel.reserve(anti ? ln - nhits : nhits);
  for (size_t i = 0; i < ln; ++i) {
    if ((hits[i] != 0) != anti) sel.push_back(static_cast<uint32_t>(i));
  }
  return Bat::Make(TakeSide(l->head(), sel), TakeSide(l->tail(), sel),
                   sel.size());
}

/// Dense-headed semijoin: l's heads are the positions seq, seq+1, ..., so
/// r's heads mark l's rows in a bitmap directly. A duplicate sets its bit
/// twice, a nil or out-of-range head sets none, and the compaction yields
/// the ascending positions HashSemijoin would keep.
Result<BatPtr> DenseSemijoin(const BatPtr& l, const BatPtr& r) {
  const Oid seq = l->head().seq;
  const size_t ln = l->size(), rn = r->size();
  const Oid* rv = r->head().col->Data<Oid>().data() + r->head().offset;
  std::vector<uint64_t> bits(vec::BitmapWords(ln), 0);
  for (size_t j = 0; j < rn; ++j) {
    Oid p = rv[j] - seq;
    if (rv[j] != kNilOid && p < ln) bits[p >> 6] |= uint64_t{1} << (p & 63);
  }
  return CompactBat(l, bits);
}

}  // namespace

Result<BatPtr> Semijoin(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->head().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt))
    return Status::TypeMismatch("semijoin key types are incompatible");

  if (l->head().dense() && r->head().dense()) {
    // Range intersection: a zero-copy slice of l.
    Oid llo = l->head().seq, lhi = llo + l->size();
    Oid rlo = r->head().seq, rhi = rlo + r->size();
    Oid from = llo > rlo ? llo : rlo;
    Oid to = lhi < rhi ? lhi : rhi;
    if (to < from) to = from;
    size_t off = from - llo, len = to - from;
    return Bat::Make(SliceSide(l->head(), off, len),
                     SliceSide(l->tail(), off, len), len);
  }
  if (l->head().dense()) return DenseSemijoin(l, r);

  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    return HashSemijoin<T>(l, r, /*anti=*/false);
  });
}

Result<BatPtr> AntiSemijoin(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->head().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt))
    return Status::TypeMismatch("anti-semijoin key types are incompatible");
  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    return HashSemijoin<T>(l, r, /*anti=*/true);
  });
}

}  // namespace recycledb::engine
