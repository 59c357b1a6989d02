#ifndef RECYCLEDB_ENGINE_DETAIL_H_
#define RECYCLEDB_ENGINE_DETAIL_H_

#include <type_traits>

#include "bat/bat.h"
#include "util/check.h"

namespace recycledb::engine::detail {

/// Reads a side that may be dense (oid sequence) or materialised. For
/// non-oid physical types the side must be materialised.
template <typename T>
class AnySideReader {
 public:
  explicit AnySideReader(const BatSide& s) {
    if (s.dense()) {
      dense_ = true;
      seq_ = s.seq;
    } else {
      data_ = s.col->Data<T>().data() + s.offset;
    }
  }

  T operator[](size_t i) const {
    if constexpr (std::is_same_v<T, Oid>) {
      if (dense_) return seq_ + i;
    }
    return data_[i];
  }

  bool dense() const { return dense_; }

 private:
  bool dense_ = false;
  Oid seq_ = 0;
  const T* data_ = nullptr;
};

/// Contiguous view of a side's values for the vectorised kernels,
/// materialising a dense oid run into `*tmp` when necessary so callers
/// always see a raw array. For materialised sides this is a zero-copy
/// pointer — in particular string sides are read in place instead of
/// copied element-wise through AnySideReader.
template <typename T>
const T* RawSideArray(const BatSide& s, size_t n, std::vector<T>* tmp) {
  if (!s.dense()) return s.col->Data<T>().data() + s.offset;
  AnySideReader<T> reader(s);
  tmp->resize(n);
  for (size_t i = 0; i < n; ++i) (*tmp)[i] = reader[i];
  return tmp->data();
}

/// VisitPhysical for the fixed-width types, for callers that handle
/// strings (codes into a heap) on a path of their own.
template <typename F>
decltype(auto) VisitFixedWidth(TypeTag tag, F&& f) {
  return VisitPhysical(tag, [&](auto t) -> decltype(f(PhysTag<Oid>{})) {
    if constexpr (std::is_same_v<typename decltype(t)::type, StrCode>) {
      RDB_UNREACHABLE();
    } else {
      return f(t);
    }
  });
}

/// Brings two string code arrays into one heap so that equal strings have
/// equal codes: when the sides' heaps differ, the side with the smaller
/// heap is re-coded into the other's (a string the other heap lacks turns
/// nil and matches nothing), and its pointer is redirected to `*tmp`.
inline void ShareHeap(const BatSide& a, size_t an, const StrCode** acodes,
                      const BatSide& b, size_t bn, const StrCode** bcodes,
                      std::vector<StrCode>* tmp) {
  const StringHeap& ha = *a.col->heap();
  const StringHeap& hb = *b.col->heap();
  if (&ha == &hb) return;
  if (ha.size() <= hb.size()) {
    *tmp = Recode(*acodes, an, ha, hb);
    *acodes = tmp->data();
  } else {
    *tmp = Recode(*bcodes, bn, hb, ha);
    *bcodes = tmp->data();
  }
}

/// True iff the two logical types share a physical representation, so that
/// typed operator code can treat them interchangeably.
inline bool PhysCompatible(TypeTag a, TypeTag b) {
  auto phys = [](TypeTag t) -> int {
    switch (t) {
      case TypeTag::kBit:
        return 1;
      case TypeTag::kInt:
      case TypeTag::kDate:
        return 2;
      case TypeTag::kLng:
        return 3;
      case TypeTag::kDbl:
        return 4;
      case TypeTag::kOid:
      case TypeTag::kVoid:
        return 5;
      case TypeTag::kStr:
        return 6;
    }
    return 0;
  };
  return phys(a) == phys(b);
}

inline bool IsNumeric(TypeTag t) {
  return t == TypeTag::kInt || t == TypeTag::kLng || t == TypeTag::kDbl ||
         t == TypeTag::kDate || t == TypeTag::kOid || t == TypeTag::kBit;
}

}  // namespace recycledb::engine::detail

#endif  // RECYCLEDB_ENGINE_DETAIL_H_
