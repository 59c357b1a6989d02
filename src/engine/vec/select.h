#ifndef RECYCLEDB_ENGINE_VEC_SELECT_H_
#define RECYCLEDB_ENGINE_VEC_SELECT_H_

#include "bat/types.h"
#include "engine/vec/bitmap.h"

namespace recycledb::engine::vec {

/// Range/equality/nil predicates evaluated into candidate bitmaps. The
/// inclusivity combination is a template parameter so each instantiation's
/// inner loop carries no per-row branches; the unbounded sides fold into
/// constant `true` terms the compiler hoists.

template <bool LoInc, bool HiInc, typename T>
inline void RangeBitsImpl(const T* d, size_t n, bool has_lo, const T& lo,
                          bool has_hi, const T& hi, uint64_t* bits) {
  PredBits(d, n, bits, [&](const T& v) -> bool {
    bool ok = !IsNil(v);
    bool oklo = !has_lo | (LoInc ? !(v < lo) : (lo < v));
    bool okhi = !has_hi | (HiInc ? !(hi < v) : (v < hi));
    return ok & oklo & okhi;
  });
}

/// Candidate bitmap for `lo <(=) v <(=) hi` with nil rows excluded; an
/// unbounded side (has_lo/has_hi false) always passes. Semantics match the
/// scalar ScanRangeSelect loop exactly, using only operator< on T.
template <typename T>
inline void RangeBits(const T* d, size_t n, bool has_lo, const T& lo,
                      bool has_hi, const T& hi, bool lo_inc, bool hi_inc,
                      uint64_t* bits) {
  if (lo_inc) {
    if (hi_inc)
      RangeBitsImpl<true, true>(d, n, has_lo, lo, has_hi, hi, bits);
    else
      RangeBitsImpl<true, false>(d, n, has_lo, lo, has_hi, hi, bits);
  } else {
    if (hi_inc)
      RangeBitsImpl<false, true>(d, n, has_lo, lo, has_hi, hi, bits);
    else
      RangeBitsImpl<false, false>(d, n, has_lo, lo, has_hi, hi, bits);
  }
}

/// Rows not equal to `key` and not nil (the AntiUselect predicate).
template <typename T>
inline void NotEqBits(const T* d, size_t n, const T& key, uint64_t* bits) {
  PredBits(d, n, bits,
           [&](const T& v) -> bool { return !IsNil(v) & !(v == key); });
}

/// Rows that are not nil (the SelectNotNil predicate).
template <typename T>
inline void NotNilBits(const T* d, size_t n, uint64_t* bits) {
  PredBits(d, n, bits, [](const T& v) -> bool { return !IsNil(v); });
}

}  // namespace recycledb::engine::vec

#endif  // RECYCLEDB_ENGINE_VEC_SELECT_H_
