#include "testing/scalar_ref.h"

#include <unordered_set>

#include "bat/hash_index.h"
#include "engine/detail.h"
#include "engine/materialize.h"
#include "util/str.h"

namespace recycledb::engine::scalar_ref {

using detail::AnySideReader;
using detail::PhysCompatible;

namespace {

/// The plain value type of physical type T: strings leave their heap, so
/// the reference loops compare string content, never codes.
template <typename T>
using RefT = std::conditional_t<std::is_same_v<T, StrCode>, std::string, T>;

template <typename T>
std::vector<RefT<T>> RefValues(const BatSide& s, size_t n) {
  AnySideReader<T> reader(s);
  std::vector<RefT<T>> out(n);
  for (size_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<T, StrCode>) {
      out[i] = std::string(s.col->heap()->Get(reader[i]));
    } else {
      out[i] = reader[i];
    }
  }
  return out;
}

}  // namespace

Result<BatPtr> ScanRangeSelect(const BatPtr& b, const Scalar& lo,
                               const Scalar& hi, bool lo_inc, bool hi_inc) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  bool has_lo = !lo.is_nil();
  bool has_hi = !hi.is_nil();
  if (has_lo && !PhysCompatible(lo.tag(), t))
    return Status::TypeMismatch("scalar_ref select bound type mismatch");
  if (has_hi && !PhysCompatible(hi.tag(), t))
    return Status::TypeMismatch("scalar_ref select bound type mismatch");
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    using V = RefT<T>;
    V lov = has_lo ? lo.Get<V>() : V{};
    V hiv = has_hi ? hi.Get<V>() : V{};
    size_t n = b->size();
    const std::vector<V> vals = RefValues<T>(tail, n);
    SelVector sel;
    for (size_t i = 0; i < n; ++i) {
      const V& v = vals[i];
      if (IsNil(v)) continue;
      if (has_lo) {
        if (lo_inc ? v < lov : !(lov < v)) continue;
      }
      if (has_hi) {
        if (hi_inc ? hiv < v : !(v < hiv)) continue;
      }
      sel.push_back(static_cast<uint32_t>(i));
    }
    return Bat::Make(TakeSide(b->head(), sel), TakeSide(tail, sel), sel.size());
  });
}

Result<BatPtr> HashJoin(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->tail().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt) || r->head().dense())
    return Status::TypeMismatch("scalar_ref hash join inputs");
  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    using V = RefT<T>;
    size_t rn = r->size();
    const std::vector<V> rvals = RefValues<T>(r->head(), rn);
    HashIndexT<V> index(rvals.data(), rn);
    size_t ln = l->size();
    const std::vector<V> lvals = RefValues<T>(l->tail(), ln);
    SelVector sel_l, pos_r;
    for (size_t i = 0; i < ln; ++i) {
      const V& v = lvals[i];
      index.ForEachMatch(v, [&](uint32_t j) {
        sel_l.push_back(static_cast<uint32_t>(i));
        pos_r.push_back(j);
      });
    }
    return Bat::Make(TakeSide(l->head(), sel_l), TakeSide(r->tail(), pos_r),
                     sel_l.size());
  });
}

Result<BatPtr> GroupedAggr(AggFn fn, const BatPtr& vals, const BatPtr& map,
                           size_t ngroups) {
  if (vals->size() != map->size())
    return Status::InvalidArgument("scalar_ref grouped aggregate inputs");
  TypeTag t = vals->tail().LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    AnySideReader<T> vreader(vals->tail());
    AnySideReader<Oid> greader(map->tail());
    size_t n = vals->size();
    if (fn == AggFn::kCount) {
      std::vector<int64_t> cnt(ngroups, 0);
      for (size_t i = 0; i < n; ++i) ++cnt[greader[i]];
      return Bat::DenseHead(Column::Make(TypeTag::kLng, std::move(cnt)));
    }
    if constexpr (std::is_same_v<T, StrCode>) {
      return Status::TypeMismatch("grouped numeric aggregate over strings");
    } else {
      switch (fn) {
        case AggFn::kSum: {
          if (t == TypeTag::kDbl) {
            std::vector<double> acc(ngroups, 0);
            for (size_t i = 0; i < n; ++i) {
              T v = vreader[i];
              if (!IsNil(v)) acc[greader[i]] += static_cast<double>(v);
            }
            return Bat::DenseHead(Column::Make(TypeTag::kDbl, std::move(acc)));
          }
          std::vector<int64_t> acc(ngroups, 0);
          for (size_t i = 0; i < n; ++i) {
            T v = vreader[i];
            if (!IsNil(v)) acc[greader[i]] += static_cast<int64_t>(v);
          }
          return Bat::DenseHead(Column::Make(TypeTag::kLng, std::move(acc)));
        }
        case AggFn::kAvg: {
          std::vector<double> acc(ngroups, 0);
          std::vector<int64_t> cnt(ngroups, 0);
          for (size_t i = 0; i < n; ++i) {
            T v = vreader[i];
            if (IsNil(v)) continue;
            acc[greader[i]] += static_cast<double>(v);
            ++cnt[greader[i]];
          }
          for (size_t g = 0; g < ngroups; ++g)
            acc[g] =
                cnt[g] ? acc[g] / static_cast<double>(cnt[g]) : NilOf<double>();
          return Bat::DenseHead(Column::Make(TypeTag::kDbl, std::move(acc)));
        }
        case AggFn::kMin:
        case AggFn::kMax: {
          std::vector<T> acc(ngroups, NilOf<T>());
          for (size_t i = 0; i < n; ++i) {
            T v = vreader[i];
            if (IsNil(v)) continue;
            T& slot = acc[greader[i]];
            if (IsNil(slot) || (fn == AggFn::kMin ? v < slot : slot < v))
              slot = v;
          }
          return Bat::DenseHead(Column::Make(t, std::move(acc)));
        }
        case AggFn::kCount:
          break;
      }
      RDB_UNREACHABLE();
    }
  });
}

Result<BatPtr> LikeSelect(const BatPtr& b, const std::string& pattern) {
  const BatSide& tail = b->tail();
  if (tail.LogicalType() != TypeTag::kStr)
    return Status::TypeMismatch("likeselect on non-string tail");
  size_t n = b->size();
  const std::vector<std::string> data = RefValues<StrCode>(tail, n);
  SelVector sel;
  for (size_t i = 0; i < n; ++i) {
    if (!data[i].empty() && LikeMatch(data[i], pattern))
      sel.push_back(static_cast<uint32_t>(i));
  }
  return Bat::Make(TakeSide(b->head(), sel), TakeSide(tail, sel), sel.size());
}

Result<BatPtr> AntiUselect(const BatPtr& b, const Scalar& v) {
  const BatSide& tail = b->tail();
  TypeTag t = tail.LogicalType();
  if (!PhysCompatible(v.tag(), t))
    return Status::TypeMismatch("scalar_ref anti-uselect value type");
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    using V = RefT<T>;
    const V key = v.Get<V>();
    size_t n = b->size();
    const std::vector<V> vals = RefValues<T>(tail, n);
    SelVector sel;
    for (size_t i = 0; i < n; ++i) {
      if (!IsNil(vals[i]) && !(vals[i] == key))
        sel.push_back(static_cast<uint32_t>(i));
    }
    return Bat::Make(TakeSide(b->head(), sel), TakeSide(tail, sel), sel.size());
  });
}

Result<BatPtr> SelectNotNil(const BatPtr& b) {
  const BatSide& tail = b->tail();
  return VisitPhysical(tail.LogicalType(), [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    size_t n = b->size();
    const std::vector<RefT<T>> vals = RefValues<T>(tail, n);
    SelVector sel;
    for (size_t i = 0; i < n; ++i) {
      if (!IsNil(vals[i])) sel.push_back(static_cast<uint32_t>(i));
    }
    if (sel.size() == n) return b;
    return Bat::Make(TakeSide(b->head(), sel), TakeSide(tail, sel), sel.size());
  });
}

Result<BatPtr> Semijoin(const BatPtr& l, const BatPtr& r) {
  TypeTag lt = l->head().LogicalType();
  TypeTag rt = r->head().LogicalType();
  if (!PhysCompatible(lt, rt))
    return Status::TypeMismatch("scalar_ref semijoin inputs");
  return VisitPhysical(rt, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    using V = RefT<T>;
    const std::vector<V> rvals = RefValues<T>(r->head(), r->size());
    const std::unordered_set<V> present(rvals.begin(), rvals.end());
    size_t ln = l->size();
    const std::vector<V> lvals = RefValues<T>(l->head(), ln);
    SelVector sel;
    for (size_t i = 0; i < ln; ++i) {
      if (!IsNil(lvals[i]) && present.count(lvals[i]) != 0)
        sel.push_back(static_cast<uint32_t>(i));
    }
    return Bat::Make(TakeSide(l->head(), sel), TakeSide(l->tail(), sel),
                     sel.size());
  });
}

}  // namespace recycledb::engine::scalar_ref
