#ifndef RECYCLEDB_BAT_TYPES_H_
#define RECYCLEDB_BAT_TYPES_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "util/date.h"

namespace recycledb {

/// Object identifiers. BAT heads are typically dense oid sequences; join
/// results carry materialised oid columns.
using Oid = uint64_t;
inline constexpr Oid kNilOid = std::numeric_limits<Oid>::max();

/// A string value in a column: the position of its characters in the
/// column's StringHeap (bat/string_heap.h). Code 0 is always the empty
/// string, the string nil. Codes compare for equality only; their order is
/// not the strings' order.
struct StrCode {
  uint32_t v = 0;
  bool operator==(StrCode o) const { return v == o.v; }
  bool operator!=(StrCode o) const { return v != o.v; }
};

/// Logical column types, mirroring the MonetDB base types used in the paper
/// (`:oid`, `:int`, `:lng`, `:dbl`, `:date`, `:str`, `:bit`).
enum class TypeTag : uint8_t {
  kVoid,  // dense oid sequence, no materialised storage
  kBit,   // boolean stored as int8
  kInt,   // int32
  kLng,   // int64
  kDbl,   // double
  kOid,   // uint64 object id
  kDate,  // int32 days since epoch
  kStr,   // variable-length string
};

const char* TypeName(TypeTag t);

/// Logical -> physical storage mapping. kDate shares int32 storage with
/// kInt; kBit is stored as int8; kVoid has no storage at all.
template <TypeTag>
struct Physical;

template <> struct Physical<TypeTag::kBit> { using type = int8_t; };
template <> struct Physical<TypeTag::kInt> { using type = int32_t; };
template <> struct Physical<TypeTag::kLng> { using type = int64_t; };
template <> struct Physical<TypeTag::kDbl> { using type = double; };
template <> struct Physical<TypeTag::kOid> { using type = Oid; };
template <> struct Physical<TypeTag::kDate> { using type = int32_t; };
template <> struct Physical<TypeTag::kStr> { using type = StrCode; };

/// Per-physical-type nil markers (MonetDB-style in-band nils).
template <typename T>
constexpr T NilOf();

template <> constexpr int8_t NilOf<int8_t>() {
  return std::numeric_limits<int8_t>::min();
}
template <> constexpr int32_t NilOf<int32_t>() {
  return std::numeric_limits<int32_t>::min();
}
template <> constexpr int64_t NilOf<int64_t>() {
  return std::numeric_limits<int64_t>::min();
}
template <> constexpr double NilOf<double>() {
  return -std::numeric_limits<double>::max();
}
template <> constexpr Oid NilOf<Oid>() { return kNilOid; }
template <> constexpr StrCode NilOf<StrCode>() { return StrCode{}; }
template <> inline std::string NilOf<std::string>() { return std::string(); }

template <typename T>
inline bool IsNil(const T& v) {
  return v == NilOf<T>();
}
inline bool IsNil(const std::string& v) { return v.empty(); }

/// Token used to dispatch generic code over physical types.
template <typename T>
struct PhysTag {
  using type = T;
};

/// Invokes `f(PhysTag<T>{})` for the physical type of `tag`.
/// kVoid is not dispatchable (dense sides are handled by callers).
template <typename F>
decltype(auto) VisitPhysical(TypeTag tag, F&& f) {
  switch (tag) {
    case TypeTag::kBit:
      return f(PhysTag<int8_t>{});
    case TypeTag::kInt:
    case TypeTag::kDate:
      return f(PhysTag<int32_t>{});
    case TypeTag::kLng:
      return f(PhysTag<int64_t>{});
    case TypeTag::kDbl:
      return f(PhysTag<double>{});
    case TypeTag::kOid:
    case TypeTag::kVoid:
      return f(PhysTag<Oid>{});
    case TypeTag::kStr:
      return f(PhysTag<StrCode>{});
  }
  return f(PhysTag<Oid>{});  // unreachable; silences -Wreturn-type
}

}  // namespace recycledb

template <>
struct std::hash<recycledb::StrCode> {
  size_t operator()(recycledb::StrCode c) const { return c.v; }
};

#endif  // RECYCLEDB_BAT_TYPES_H_
