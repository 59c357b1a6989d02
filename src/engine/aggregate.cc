#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"
#include "engine/vec/groupagg.h"

namespace recycledb::engine {

using detail::AnySideReader;
using detail::RawSideArray;

namespace {

template <typename T>
Result<Scalar> AggrTyped(AggFn fn, const BatPtr& b) {
  AnySideReader<T> reader(b->tail());
  size_t n = b->size();
  if (fn == AggFn::kCount) return Scalar::Lng(static_cast<int64_t>(n));

  if constexpr (std::is_same_v<T, StrCode>) {
    if (fn == AggFn::kMin || fn == AggFn::kMax) {
      // Within one heap a repeated code is a repeated string: only a code
      // change costs a string comparison.
      const StringHeap& heap = *b->tail().col->heap();
      StrCode best;  // nil until the first non-nil row
      for (size_t i = 0; i < n; ++i) {
        StrCode v = reader[i];
        if (IsNil(v) || v == best) continue;
        if (IsNil(best) || (fn == AggFn::kMin ? heap.Get(v) < heap.Get(best)
                                              : heap.Get(best) < heap.Get(v)))
          best = v;
      }
      return IsNil(best) ? Scalar::Nil(TypeTag::kStr)
                         : Scalar::Str(std::string(heap.Get(best)));
    }
    return Status::TypeMismatch("numeric aggregate over strings");
  } else {
    double dsum = 0;
    int64_t isum = 0;
    size_t cnt = 0;
    T best{};
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      T v = reader[i];
      if (IsNil(v)) continue;
      ++cnt;
      dsum += static_cast<double>(v);
      isum += static_cast<int64_t>(v);
      if (!any || (fn == AggFn::kMin ? v < best : best < v)) best = v;
      any = true;
    }
    TypeTag t = b->tail().LogicalType();
    switch (fn) {
      case AggFn::kSum:
        if (!any) return Scalar::Nil(t == TypeTag::kDbl ? TypeTag::kDbl
                                                        : TypeTag::kLng);
        return t == TypeTag::kDbl ? Scalar::Dbl(dsum) : Scalar::Lng(isum);
      case AggFn::kAvg:
        if (!any) return Scalar::Nil(TypeTag::kDbl);
        return Scalar::Dbl(dsum / static_cast<double>(cnt));
      case AggFn::kMin:
      case AggFn::kMax: {
        if (!any) return Scalar::Nil(t);
        if (t == TypeTag::kDbl) return Scalar::Dbl(static_cast<double>(best));
        if (t == TypeTag::kDate)
          return Scalar::DateVal(static_cast<int32_t>(best));
        if (t == TypeTag::kInt) return Scalar::Int(static_cast<int32_t>(best));
        if (t == TypeTag::kOid) return Scalar::OidVal(static_cast<Oid>(best));
        return Scalar::Lng(static_cast<int64_t>(best));
      }
      case AggFn::kCount:
        break;
    }
    RDB_UNREACHABLE();
  }
}

/// Grouped aggregation on the vectorised accumulators: group ids and values
/// stream as raw arrays through engine/vec/groupagg.h. Accumulation is in
/// row order, so every result — including float sums — is byte-identical
/// to the former element-at-a-time loops.
template <typename T>
Result<BatPtr> GroupedAggrTyped(AggFn fn, const BatPtr& vals,
                                const BatPtr& map, size_t ngroups) {
  size_t n = vals->size();
  std::vector<Oid> gtmp;
  const Oid* gids = RawSideArray<Oid>(map->tail(), n, &gtmp);

  if (fn == AggFn::kCount) {
    std::vector<int64_t> cnt(ngroups, 0);
    vec::CountInto(gids, n, cnt.data());
    return Bat::DenseHead(Column::Make(TypeTag::kLng, std::move(cnt)));
  }

  if constexpr (std::is_same_v<T, StrCode>) {
    return Status::TypeMismatch("grouped numeric aggregate over strings");
  } else {
    TypeTag t = vals->tail().LogicalType();
    std::vector<T> vtmp;
    const T* v = RawSideArray<T>(vals->tail(), n, &vtmp);
    switch (fn) {
      case AggFn::kSum: {
        if (t == TypeTag::kDbl) {
          std::vector<double> acc(ngroups, 0);
          vec::SumIntoDbl(gids, v, n, acc.data());
          return Bat::DenseHead(Column::Make(TypeTag::kDbl, std::move(acc)));
        }
        std::vector<int64_t> acc(ngroups, 0);
        vec::SumIntoI64(gids, v, n, acc.data());
        return Bat::DenseHead(Column::Make(TypeTag::kLng, std::move(acc)));
      }
      case AggFn::kAvg: {
        std::vector<double> acc(ngroups, 0);
        std::vector<int64_t> cnt(ngroups, 0);
        vec::AvgInto(gids, v, n, acc.data(), cnt.data());
        for (size_t g = 0; g < ngroups; ++g)
          acc[g] = cnt[g] ? acc[g] / static_cast<double>(cnt[g])
                          : NilOf<double>();
        return Bat::DenseHead(Column::Make(TypeTag::kDbl, std::move(acc)));
      }
      case AggFn::kMin:
      case AggFn::kMax: {
        std::vector<T> acc(ngroups, NilOf<T>());
        vec::MinMaxInto(gids, v, n, fn == AggFn::kMin, acc.data());
        return Bat::DenseHead(Column::Make(t, std::move(acc)));
      }
      case AggFn::kCount:
        break;
    }
    RDB_UNREACHABLE();
  }
}

}  // namespace

Result<Scalar> Aggr(AggFn fn, const BatPtr& b) {
  TypeTag t = b->tail().LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<Scalar> {
    using T = typename decltype(tag)::type;
    return AggrTyped<T>(fn, b);
  });
}

Result<BatPtr> GroupedAggr(AggFn fn, const BatPtr& vals, const BatPtr& map,
                           size_t ngroups) {
  if (vals->size() != map->size())
    return Status::InvalidArgument("grouped aggregate: misaligned inputs");
  TypeTag t = vals->tail().LogicalType();
  return VisitPhysical(t, [&](auto tag) -> Result<BatPtr> {
    using T = typename decltype(tag)::type;
    return GroupedAggrTyped<T>(fn, vals, map, ngroups);
  });
}

}  // namespace recycledb::engine
