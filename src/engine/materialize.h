#ifndef RECYCLEDB_ENGINE_MATERIALIZE_H_
#define RECYCLEDB_ENGINE_MATERIALIZE_H_

#include <cstdint>
#include <vector>

#include "bat/bat.h"

namespace recycledb::engine {

/// Position list produced by selection/join candidate computation.
using SelVector = std::vector<uint32_t>;

/// Gathers `side` values at positions `sel` into a freshly materialised
/// side. Dense sides materialise to oid columns. If the gathered positions
/// are a strictly increasing run and the source is sorted, the sortedness
/// property is preserved.
BatSide TakeSide(const BatSide& side, size_t count, const SelVector& sel);

/// Zero-copy view of `side` restricted to [offset, offset+len).
BatSide SliceSide(const BatSide& side, size_t offset, size_t len);

/// Concatenates the same-typed side of several bats into one materialised
/// side (used by combined subsumption's piecewise execution).
BatSide ConcatSides(const std::vector<const Bat*>& bats, bool head_side);

}  // namespace recycledb::engine

#endif  // RECYCLEDB_ENGINE_MATERIALIZE_H_
