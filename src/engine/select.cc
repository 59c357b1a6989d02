#include <algorithm>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"
#include "engine/vec/bitmap.h"
#include "engine/vec/select.h"
#include "util/str.h"

namespace recycledb::engine {

using detail::PhysCompatible;
using detail::VisitFixedWidth;

namespace {

/// True when the in-band nil marker of T sorts AFTER every real value
/// (the Oid nil is the max sentinel); every other physical nil is the
/// numeric minimum / empty string and sorts first.
template <typename T>
constexpr bool NilSortsHigh() {
  return std::is_same_v<T, Oid>;
}

/// Binary-search range selection over a sorted materialised tail. Returns
/// a zero-copy view of the qualifying run. `proj` maps a stored value to
/// the key it sorts by (a string code to its string).
template <typename T, typename K, typename Proj>
BatPtr SortedRangeSelect(const BatPtr& b, bool has_lo, const K& lov,
                         bool has_hi, const K& hiv, bool lo_inc, bool hi_inc,
                         Proj proj) {
  const BatSide& tail = b->tail();
  const T* data = tail.col->Data<T>().data() + tail.offset;
  size_t n = b->size();
  auto below = [&](const T& v, const K& k) { return proj(v) < k; };
  auto above = [&](const K& k, const T& v) { return k < proj(v); };
  const T* begin;
  if (has_lo) {
    begin = lo_inc ? std::lower_bound(data, data + n, lov, below)
                   : std::upper_bound(data, data + n, lov, above);
  } else if (NilSortsHigh<T>()) {
    begin = data;  // nils sort last here; the end side clips them
  } else {
    // Unbounded from below still excludes nils, which sort lowest.
    begin = std::upper_bound(data, data + n, K(proj(NilOf<T>())), above);
  }
  const T* end;
  if (has_hi) {
    end = hi_inc ? std::upper_bound(data, data + n, hiv, above)
                 : std::lower_bound(data, data + n, hiv, below);
    if constexpr (NilSortsHigh<T>()) {
      if (hiv == NilOf<T>())
        end = std::lower_bound(data, data + n, hiv);  // never admit nils
    }
  } else if (NilSortsHigh<T>()) {
    // Unbounded from above: the max-sentinel nils are the tail of the run.
    end = std::lower_bound(data, data + n, K(proj(NilOf<T>())), below);
  } else {
    end = data + n;
  }
  if (end < begin) end = begin;
  size_t off = static_cast<size_t>(begin - data);
  size_t len = static_cast<size_t>(end - begin);
  return Bat::Make(SliceSide(b->head(), off, len), SliceSide(tail, off, len),
                   len);
}

/// Vectorised scan select: predicate into a candidate bitmap, then one
/// compaction from the bitmap into each result side.
template <typename T>
BatPtr ScanRangeSelect(const BatPtr& b, bool has_lo, const T& lov, bool has_hi,
                       const T& hiv, bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  const T* data = tail.col->Data<T>().data() + tail.offset;
  size_t n = b->size();
  std::vector<uint64_t> bits(vec::BitmapWords(n));
  vec::RangeBits(data, n, has_lo, lov, has_hi, hiv, lo_inc, hi_inc,
                 bits.data());
  return CompactBat(b, bits);
}

/// Selects the rows of a string tail whose (non-nil) string passes `pred`.
template <typename Pred>
BatPtr StrPredSelect(const BatPtr& b, Pred pred) {
  const BatSide& tail = b->tail();
  const StringHeap& heap = *tail.col->heap();
  const StrCode* codes = tail.col->Data<StrCode>().data() + tail.offset;
  size_t n = b->size();
  std::vector<uint64_t> bits(vec::BitmapWords(n));
  vec::PredBits(codes, n, bits.data(), [&](StrCode c) -> bool {
    return !IsNil(c) && pred(heap.Get(c));
  });
  return CompactBat(b, bits);
}

/// Range select over a string tail, comparing each row's string.
BatPtr StrSelect(const BatPtr& b, const Scalar& lo, const Scalar& hi,
                 bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  const StringHeap& heap = *tail.col->heap();
  const bool has_lo = !lo.is_nil(), has_hi = !hi.is_nil();
  const std::string_view lov = has_lo ? lo.AsStr() : std::string_view();
  const std::string_view hiv = has_hi ? hi.AsStr() : std::string_view();
  if (tail.col->sorted()) {
    return SortedRangeSelect<StrCode, std::string_view>(
        b, has_lo, lov, has_hi, hiv, lo_inc, hi_inc,
        [&](StrCode c) { return heap.Get(c); });
  }
  return StrPredSelect(b, [&](std::string_view v) {
    bool oklo = !has_lo || (lo_inc ? !(v < lov) : lov < v);
    bool okhi = !has_hi || (hi_inc ? !(hiv < v) : v < hiv);
    return oklo && okhi;
  });
}

}  // namespace

Result<BatPtr> Select(const BatPtr& b, const Scalar& lo, const Scalar& hi,
                      bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  bool has_lo = !lo.is_nil();
  bool has_hi = !hi.is_nil();
  if (has_lo && !PhysCompatible(lo.tag(), t))
    return Status::TypeMismatch(StrFormat("select lower bound %s vs tail %s",
                                          TypeName(lo.tag()), TypeName(t)));
  if (has_hi && !PhysCompatible(hi.tag(), t))
    return Status::TypeMismatch(StrFormat("select upper bound %s vs tail %s",
                                          TypeName(hi.tag()), TypeName(t)));

  if (tail.dense()) {
    // Dense tails are sorted oid runs; clamp the range arithmetically.
    size_t n = b->size();
    Oid first = tail.seq, last = tail.seq + n;  // [first, last)
    Oid qlo = first, qhi = last;
    if (has_lo) {
      Oid v = lo.AsOid();
      qlo = lo_inc ? v : v + 1;
    }
    if (has_hi) {
      Oid v = hi.AsOid();
      qhi = hi_inc ? v + 1 : v;
    }
    if (qlo < first) qlo = first;
    if (qhi > last) qhi = last;
    if (qhi < qlo) qhi = qlo;
    size_t off = qlo - first, len = qhi - qlo;
    return Bat::Make(SliceSide(b->head(), off, len), SliceSide(tail, off, len),
                     len);
  }

  if (t == TypeTag::kStr) return StrSelect(b, lo, hi, lo_inc, hi_inc);
  return VisitFixedWidth(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    T lov = has_lo ? lo.Get<T>() : T{};
    T hiv = has_hi ? hi.Get<T>() : T{};
    if (tail.col->sorted()) {
      return SortedRangeSelect<T, T>(b, has_lo, lov, has_hi, hiv, lo_inc,
                                     hi_inc, [](const T& v) { return v; });
    }
    return ScanRangeSelect<T>(b, has_lo, lov, has_hi, hiv, lo_inc, hi_inc);
  });
}

Result<BatPtr> Uselect(const BatPtr& b, const Scalar& v) {
  if (v.is_nil()) return Status::InvalidArgument("uselect with nil value");
  return Select(b, v, v, /*lo_inc=*/true, /*hi_inc=*/true);
}

Result<BatPtr> AntiUselect(const BatPtr& b, const Scalar& v) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  if (!PhysCompatible(v.tag(), t))
    return Status::TypeMismatch("anti-uselect value type mismatch");
  const size_t n = b->size();
  std::vector<uint64_t> bits(vec::BitmapWords(n));
  if (tail.dense()) {
    // Every row of the oid run qualifies but the one holding the key (and
    // the nil oid, should the run reach it).
    std::fill(bits.begin(), bits.end(), ~uint64_t{0});
    if (n % 64 != 0) bits.back() = (uint64_t{1} << (n % 64)) - 1;
    for (Oid drop : {v.AsOid(), kNilOid}) {
      Oid p = drop - tail.seq;
      if (p < n) bits[p >> 6] &= ~(uint64_t{1} << (p & 63));
    }
  } else if (t == TypeTag::kStr) {
    // A string the heap lacks becomes the nil code, which NotEqBits never
    // lets through anyway: every non-nil row qualifies.
    StrCode key;
    if (!tail.col->heap()->Find(v.AsStr(), &key)) key = StrCode{};
    const StrCode* data = tail.col->Data<StrCode>().data() + tail.offset;
    vec::NotEqBits(data, n, key, bits.data());
  } else {
    VisitFixedWidth(t, [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* data = tail.col->Data<T>().data() + tail.offset;
      vec::NotEqBits(data, n, v.Get<T>(), bits.data());
    });
  }
  return CompactBat(b, bits);
}

Result<BatPtr> LikeSelect(const BatPtr& b, const std::string& pattern) {
  const BatSide& tail = b->tail();
  if (tail.LogicalType() != TypeTag::kStr)
    return Status::TypeMismatch("likeselect on non-string tail");
  // Satellite of the vectorised rewrite: the pattern is preprocessed ONCE
  // per call (shape classification + literal extraction), not per row.
  LikePattern pat(pattern);
  return StrPredSelect(b, [&](std::string_view s) { return pat.Match(s); });
}

Result<BatPtr> SelectNotNil(const BatPtr& b) {
  const BatSide& tail = b->tail();
  if (tail.dense()) return b;  // dense oids are never nil
  TypeTag t = tail.LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    size_t n = b->size();
    const T* data = tail.col->Data<T>().data() + tail.offset;
    std::vector<uint64_t> bits(vec::BitmapWords(n));
    vec::NotNilBits(data, n, bits.data());
    if (vec::CountBits(bits.data(), n) == n)
      return b;  // nothing dropped; share the viewpoint
    return CompactBat(b, bits);
  });
}

}  // namespace recycledb::engine
