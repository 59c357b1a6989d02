#include <algorithm>

#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"
#include "engine/vec/bitmap.h"
#include "engine/vec/select.h"
#include "util/str.h"

namespace recycledb::engine {

using detail::AnySideReader;
using detail::PhysCompatible;

namespace {

/// True when the in-band nil marker of T sorts AFTER every real value
/// (the Oid nil is the max sentinel); every other physical nil is the
/// numeric minimum / empty string and sorts first.
template <typename T>
constexpr bool NilSortsHigh() {
  return std::is_same_v<T, Oid>;
}

/// Binary-search range selection over a sorted materialised tail. Returns
/// a zero-copy view of the qualifying run.
template <typename T>
BatPtr SortedRangeSelect(const BatPtr& b, bool has_lo, const T& lov,
                         bool has_hi, const T& hiv, bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  const T* data = tail.col->Data<T>().data() + tail.offset;
  size_t n = b->size();
  const T* begin;
  if (has_lo) {
    begin = lo_inc ? std::lower_bound(data, data + n, lov)
                   : std::upper_bound(data, data + n, lov);
  } else if (NilSortsHigh<T>()) {
    begin = data;  // nils sort last here; the end side clips them
  } else {
    // Unbounded from below still excludes nils, which sort lowest.
    begin = std::upper_bound(data, data + n, NilOf<T>());
  }
  const T* end;
  if (has_hi) {
    end = hi_inc ? std::upper_bound(data, data + n, hiv)
                 : std::lower_bound(data, data + n, hiv);
    if (NilSortsHigh<T>() && hiv == NilOf<T>())
      end = std::lower_bound(data, data + n, hiv);  // never admit nils
  } else if (NilSortsHigh<T>()) {
    // Unbounded from above: the max-sentinel nils are the tail of the run.
    end = std::lower_bound(data, data + n, NilOf<T>());
  } else {
    end = data + n;
  }
  if (end < begin) end = begin;
  size_t off = static_cast<size_t>(begin - data);
  size_t len = static_cast<size_t>(end - begin);
  return Bat::Make(SliceSide(b->head(), off, len),
                   SliceSide(tail, off, len), len);
}

/// Builds the select result from a candidate bitmap over the tail.
BatPtr GatherBits(const BatPtr& b, const std::vector<uint64_t>& bits) {
  size_t n = b->size();
  SelVector sel;
  vec::BitsToSel(bits.data(), n, &sel);
  return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(b->tail(), n, sel),
                   sel.size());
}

/// Vectorised scan select: predicate into a candidate bitmap, one
/// compaction pass into a reserved SelVector, then the gathers.
template <typename T>
BatPtr ScanRangeSelect(const BatPtr& b, bool has_lo, const T& lov, bool has_hi,
                       const T& hiv, bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  const T* data = tail.col->Data<T>().data() + tail.offset;
  size_t n = b->size();
  std::vector<uint64_t> bits(vec::BitmapWords(n));
  vec::RangeBits(data, n, has_lo, lov, has_hi, hiv, lo_inc, hi_inc,
                 bits.data());
  return GatherBits(b, bits);
}

}  // namespace

Result<BatPtr> Select(const BatPtr& b, const Scalar& lo, const Scalar& hi,
                      bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  bool has_lo = !lo.is_nil();
  bool has_hi = !hi.is_nil();
  if (has_lo && !PhysCompatible(lo.tag(), t))
    return Status::TypeMismatch(
        StrFormat("select lower bound %s vs tail %s",
                  TypeName(lo.tag()), TypeName(t)));
  if (has_hi && !PhysCompatible(hi.tag(), t))
    return Status::TypeMismatch(
        StrFormat("select upper bound %s vs tail %s",
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
    return Bat::Make(SliceSide(b->head(), off, len),
                     SliceSide(tail, off, len), len);
  }

  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    T lov = has_lo ? lo.Get<T>() : T{};
    T hiv = has_hi ? hi.Get<T>() : T{};
    if (tail.col->sorted()) {
      return SortedRangeSelect<T>(b, has_lo, lov, has_hi, hiv, lo_inc, hi_inc);
    }
    return ScanRangeSelect<T>(b, has_lo, lov, has_hi, hiv, lo_inc, hi_inc);
  });
}

Result<BatPtr> Uselect(const BatPtr& b, const Scalar& v) {
  if (v.is_nil())
    return Status::InvalidArgument("uselect with nil value");
  return Select(b, v, v, /*lo_inc=*/true, /*hi_inc=*/true);
}

Result<BatPtr> AntiUselect(const BatPtr& b, const Scalar& v) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  if (!PhysCompatible(v.tag(), t))
    return Status::TypeMismatch("anti-uselect value type mismatch");
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    const T& key = v.Get<T>();
    size_t n = b->size();
    if (tail.dense()) {
      AnySideReader<T> reader(tail);
      SelVector sel;
      sel.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const T& x = reader[i];
        if (IsNil(x) || x == key) continue;
        sel.push_back(static_cast<uint32_t>(i));
      }
      return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                       sel.size());
    }
    const T* data = tail.col->Data<T>().data() + tail.offset;
    std::vector<uint64_t> bits(vec::BitmapWords(n));
    vec::NotEqBits(data, n, key, bits.data());
    SelVector sel;
    vec::BitsToSel(bits.data(), n, &sel);
    return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                     sel.size());
  });
}

Result<BatPtr> LikeSelect(const BatPtr& b, const std::string& pattern) {
  const BatSide& tail = b->tail();
  if (tail.LogicalType() != TypeTag::kStr)
    return Status::TypeMismatch("likeselect on non-string tail");
  size_t n = b->size();
  // Satellite of the vectorised rewrite: the pattern is preprocessed ONCE
  // per call (shape classification + literal extraction), not per row.
  LikePattern pat(pattern);
  const std::string* data = tail.col->Data<std::string>().data() + tail.offset;
  std::vector<uint64_t> bits(vec::BitmapWords(n));
  vec::PredBits(data, n, bits.data(), [&](const std::string& s) -> bool {
    return !s.empty() && pat.Match(s);
  });
  SelVector sel;
  vec::BitsToSel(bits.data(), n, &sel);
  return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                   sel.size());
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
    SelVector sel;
    vec::BitsToSel(bits.data(), n, &sel);
    return Bat::Make(TakeSide(b->head(), n, sel), TakeSide(tail, n, sel),
                     sel.size());
  });
}

}  // namespace recycledb::engine
