#include "engine/detail.h"
#include "engine/materialize.h"
#include "engine/operators.h"

namespace recycledb::engine {

using detail::AnySideReader;
using detail::IsNumeric;

namespace {

double ApplyBin(BinOp op, double a, double b) {
  switch (op) {
    case BinOp::kAdd:
      return a + b;
    case BinOp::kSub:
      return a - b;
    case BinOp::kMul:
      return a * b;
    case BinOp::kDiv:
      return b == 0 ? NilOf<double>() : a / b;
  }
  return 0;
}

int64_t ApplyBinI(BinOp op, int64_t a, int64_t b) {
  switch (op) {
    case BinOp::kAdd:
      return a + b;
    case BinOp::kSub:
      return a - b;
    case BinOp::kMul:
      return a * b;
    case BinOp::kDiv:
      return b == 0 ? NilOf<int64_t>() : a / b;
  }
  return 0;
}

template <typename CmpT>
bool ApplyCmp(CmpOp op, const CmpT& a, const CmpT& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return !(a == b);
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return !(b < a);
    case CmpOp::kGt:
      return b < a;
    case CmpOp::kGe:
      return !(a < b);
  }
  return false;
}

/// Abstracts "bat side" vs "scalar" numeric operands so binary calc code is
/// written once.
template <typename T>
struct NumericOperand {
  bool is_scalar = false;
  double scalar_d = 0;
  int64_t scalar_i = 0;
  bool scalar_nil = false;
  AnySideReader<T>* reader = nullptr;
};

}  // namespace

template <typename GetL, typename GetR, typename NilL, typename NilR>
static BatPtr CalcLoop(BinOp op, bool dbl_result, size_t n,
                       const BatSide& head, GetL get_l, GetR get_r, NilL nil_l,
                       NilR nil_r) {
  if (dbl_result) {
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i) {
      if (nil_l(i) || nil_r(i)) {
        out[i] = NilOf<double>();
      } else {
        out[i] = ApplyBin(op, get_l(i), get_r(i));
      }
    }
    return Bat::Make(head, BatSide::Materialized(Column::Make(
                               TypeTag::kDbl, std::move(out))),
                     n);
  }
  std::vector<int64_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    if (nil_l(i) || nil_r(i)) {
      out[i] = NilOf<int64_t>();
    } else {
      out[i] = ApplyBinI(op, static_cast<int64_t>(get_l(i)),
                         static_cast<int64_t>(get_r(i)));
    }
  }
  return Bat::Make(
      head, BatSide::Materialized(Column::Make(TypeTag::kLng, std::move(out))),
      n);
}

Result<BatPtr> CalcBin(BinOp op, const BatPtr& l, const BatPtr& r) {
  if (l->size() != r->size())
    return Status::InvalidArgument("calc: misaligned inputs");
  TypeTag lt = l->tail().LogicalType(), rt = r->tail().LogicalType();
  if (!IsNumeric(lt) || !IsNumeric(rt))
    return Status::TypeMismatch("calc over non-numeric bats");
  bool dbl = lt == TypeTag::kDbl || rt == TypeTag::kDbl || op == BinOp::kDiv;
  size_t n = l->size();
  return VisitPhysical(lt, [&](auto ltag) -> Result<BatPtr> {
    using LT = typename decltype(ltag)::type;
    if constexpr (std::is_same_v<LT, StrCode>) {
      return Status::TypeMismatch("calc over strings");
    } else {
      AnySideReader<LT> lr(l->tail());
      return VisitPhysical(rt, [&](auto rtag) -> Result<BatPtr> {
        using RT = typename decltype(rtag)::type;
        if constexpr (std::is_same_v<RT, StrCode>) {
          return Status::TypeMismatch("calc over strings");
        } else {
          AnySideReader<RT> rr(r->tail());
          return CalcLoop(
              op, dbl, n, l->head(),
              [&](size_t i) { return static_cast<double>(lr[i]); },
              [&](size_t i) { return static_cast<double>(rr[i]); },
              [&](size_t i) { return IsNil(lr[i]); },
              [&](size_t i) { return IsNil(rr[i]); });
        }
      });
    }
  });
}

Result<BatPtr> CalcBinConst(BinOp op, const BatPtr& l, const Scalar& r) {
  TypeTag lt = l->tail().LogicalType();
  if (!IsNumeric(lt)) return Status::TypeMismatch("calc over non-numeric bat");
  bool dbl =
      lt == TypeTag::kDbl || r.tag() == TypeTag::kDbl || op == BinOp::kDiv;
  size_t n = l->size();
  bool rnil = r.is_nil();
  double rv = rnil ? 0 : r.ToDouble();
  return VisitPhysical(lt, [&](auto ltag) -> Result<BatPtr> {
    using LT = typename decltype(ltag)::type;
    if constexpr (std::is_same_v<LT, StrCode>) {
      return Status::TypeMismatch("calc over strings");
    } else {
      AnySideReader<LT> lr(l->tail());
      return CalcLoop(
          op, dbl, n, l->head(),
          [&](size_t i) { return static_cast<double>(lr[i]); },
          [&](size_t) { return rv; },
          [&](size_t i) { return IsNil(lr[i]); },
          [&](size_t) { return rnil; });
    }
  });
}

Result<BatPtr> CalcConstBin(BinOp op, const Scalar& l, const BatPtr& r) {
  TypeTag rt = r->tail().LogicalType();
  if (!IsNumeric(rt)) return Status::TypeMismatch("calc over non-numeric bat");
  bool dbl =
      rt == TypeTag::kDbl || l.tag() == TypeTag::kDbl || op == BinOp::kDiv;
  size_t n = r->size();
  bool lnil = l.is_nil();
  double lv = lnil ? 0 : l.ToDouble();
  return VisitPhysical(rt, [&](auto rtag) -> Result<BatPtr> {
    using RT = typename decltype(rtag)::type;
    if constexpr (std::is_same_v<RT, StrCode>) {
      return Status::TypeMismatch("calc over strings");
    } else {
      AnySideReader<RT> rr(r->tail());
      return CalcLoop(
          op, dbl, n, r->head(), [&](size_t) { return lv; },
          [&](size_t i) { return static_cast<double>(rr[i]); },
          [&](size_t) { return lnil; },
          [&](size_t i) { return IsNil(rr[i]); });
    }
  });
}

Result<BatPtr> CalcYear(const BatPtr& b) {
  const BatSide& tail = b->tail();
  if (tail.LogicalType() != TypeTag::kDate)
    return Status::TypeMismatch("year() over non-date bat");
  AnySideReader<int32_t> reader(tail);
  size_t n = b->size();
  std::vector<int32_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    int32_t d = reader[i];
    if (IsNil(d)) {
      out[i] = NilOf<int32_t>();
      continue;
    }
    int y, m, dd;
    YmdFromDate(d, &y, &m, &dd);
    out[i] = y;
  }
  return Bat::Make(b->head(),
                   BatSide::Materialized(
                       Column::Make(TypeTag::kInt, std::move(out))),
                   n);
}

Result<BatPtr> CalcCmp(CmpOp op, const BatPtr& l, const BatPtr& r) {
  if (l->size() != r->size())
    return Status::InvalidArgument("cmp: misaligned inputs");
  TypeTag lt = l->tail().LogicalType(), rt = r->tail().LogicalType();
  if (!detail::PhysCompatible(lt, rt))
    return Status::TypeMismatch("cmp type mismatch");
  size_t n = l->size();
  std::vector<int8_t> out(n);
  if (lt == TypeTag::kStr) {
    const StrCode* a = l->tail().col->Data<StrCode>().data() + l->tail().offset;
    const StrCode* b = r->tail().col->Data<StrCode>().data() + r->tail().offset;
    const StringHeap& ha = *l->tail().col->heap();
    const StringHeap& hb = *r->tail().col->heap();
    for (size_t i = 0; i < n; ++i) {
      bool nil = IsNil(a[i]) || IsNil(b[i]);
      out[i] = !nil && ApplyCmp(op, ha.Get(a[i]), hb.Get(b[i]));
    }
  } else {
    detail::VisitFixedWidth(lt, [&](auto tag) {
      using T = typename decltype(tag)::type;
      AnySideReader<T> lr(l->tail());
      AnySideReader<T> rr(r->tail());
      for (size_t i = 0; i < n; ++i) {
        const T& a = lr[i];
        const T& b = rr[i];
        out[i] = (!IsNil(a) && !IsNil(b) && ApplyCmp<T>(op, a, b)) ? 1 : 0;
      }
    });
  }
  return Bat::Make(
      l->head(),
      BatSide::Materialized(Column::Make(TypeTag::kBit, std::move(out))), n);
}

}  // namespace recycledb::engine
