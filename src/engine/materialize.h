#ifndef RECYCLEDB_ENGINE_MATERIALIZE_H_
#define RECYCLEDB_ENGINE_MATERIALIZE_H_

#include <cstdint>
#include <vector>

#include "bat/bat.h"

namespace recycledb::engine {

/// Position list produced by selection/join candidate computation.
using SelVector = std::vector<uint32_t>;

/// Gathers `side` values at positions `sel` into a freshly materialised
/// side. Dense sides materialise to oid columns. A source column that
/// carries an encoding gathers in code space, so the result is an
/// encoded-native column. If the gathered positions are a strictly
/// increasing run and the source is sorted, the sortedness property is
/// preserved.
BatSide TakeSide(const BatSide& side, size_t count, const SelVector& sel);

/// Marks the calling thread as executing over a database whose columns
/// carry encodings (Interpreter::Run opens one from
/// Catalog::has_encodings). While a scope with `on` is live, TakeSide also
/// FOR-encodes the oid columns it gathers out of dense sides, so the
/// candidate lists of an encoded database are recycled at encoded size too.
/// Scopes nest; the previous state is restored on exit.
class EncodedGatherScope {
 public:
  explicit EncodedGatherScope(bool on);
  ~EncodedGatherScope();
  EncodedGatherScope(const EncodedGatherScope&) = delete;
  EncodedGatherScope& operator=(const EncodedGatherScope&) = delete;

 private:
  bool prev_;
};

/// Zero-copy view of `side` restricted to [offset, offset+len).
BatSide SliceSide(const BatSide& side, size_t offset, size_t len);

/// Concatenates the same-typed side of several bats into one materialised
/// side (used by combined subsumption's piecewise execution).
BatSide ConcatSides(const std::vector<const Bat*>& bats, bool head_side);

}  // namespace recycledb::engine

#endif  // RECYCLEDB_ENGINE_MATERIALIZE_H_
