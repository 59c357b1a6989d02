#ifndef RECYCLEDB_ENGINE_MATERIALIZE_H_
#define RECYCLEDB_ENGINE_MATERIALIZE_H_

#include <cstdint>
#include <vector>

#include "bat/bat.h"

namespace recycledb::engine {

/// Row positions in output order: what the hash joins, the general fetch,
/// Kunique and sort keep.
using SelVector = std::vector<uint32_t>;

/// Gathers `side` values at positions `sel` into a freshly materialised
/// side of exactly `sel.size()` values. Dense sides materialise to oid
/// columns. If the gathered positions are a strictly increasing run, the
/// source's sorted and key properties are preserved.
BatSide TakeSide(const BatSide& side, const SelVector& sel);

/// Gathers `side` at positions `oids[i] - seq` for i in [0, n): the
/// in-range fetch, whose caller has checked that every position lies in
/// the side and whether they strictly increase (`increasing`). Sets the
/// same sorted/key flags TakeSide would.
BatSide FetchSide(const BatSide& side, const Oid* oids, size_t n, Oid seq,
                  bool increasing);

/// The pairs of `b` whose bit is set in `bits` (one bit per pair, little
/// endian, the bits past b->size() clear), in order. Each side is written
/// straight from the bitmap into a column of the exact size, a dense side
/// as `seq + position`; flags as TakeSide sets them for increasing
/// positions.
BatPtr CompactBat(const BatPtr& b, const std::vector<uint64_t>& bits);

/// Zero-copy view of `side` restricted to [offset, offset+len).
BatSide SliceSide(const BatSide& side, size_t offset, size_t len);

/// Concatenates the same-typed side of several bats into one materialised
/// side (used by combined subsumption's piecewise execution).
BatSide ConcatSides(const std::vector<const Bat*>& bats, bool head_side);

}  // namespace recycledb::engine

#endif  // RECYCLEDB_ENGINE_MATERIALIZE_H_
