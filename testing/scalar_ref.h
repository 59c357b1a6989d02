#ifndef RECYCLEDB_TESTING_SCALAR_REF_H_
#define RECYCLEDB_TESTING_SCALAR_REF_H_

#include "engine/operators.h"

namespace recycledb::engine::scalar_ref {

/// Element-at-a-time reference implementations of the kernels the
/// vectorised layer (engine/vec/) and the bitmap compaction replaced: the
/// former production loops, and per-row loops for the other bitmap
/// consumers. They have two consumers:
///
///  - parity tests (tests/vec_kernel_test.cc) pin the vectorised entry
///    points to byte-identical outputs against these;
///  - the `kernel_*` bench phases report within-run rel_qps of the
///    vectorised path against these, which is what CI gates on.
///
/// They are NOT wired into any production path.

/// Per-row scan range select (no sorted fast path, no reserve).
Result<BatPtr> ScanRangeSelect(const BatPtr& b, const Scalar& lo,
                               const Scalar& hi, bool lo_inc, bool hi_inc);

/// Per-row hash-join probe over r.head (r.head must be materialised).
Result<BatPtr> HashJoin(const BatPtr& l, const BatPtr& r);

/// Per-row grouped aggregation.
Result<BatPtr> GroupedAggr(AggFn fn, const BatPtr& vals, const BatPtr& map,
                           size_t ngroups);

/// Per-row LIKE select re-interpreting the raw pattern for every row.
Result<BatPtr> LikeSelect(const BatPtr& b, const std::string& pattern);

/// Per-row anti-uselect: the pairs whose tail is neither nil nor `v`.
Result<BatPtr> AntiUselect(const BatPtr& b, const Scalar& v);

/// Per-row nil filter; returns `b` itself when no tail is nil.
Result<BatPtr> SelectNotNil(const BatPtr& b);

/// Per-row semijoin: the pairs of `l` whose head occurs among `r`'s heads
/// (a nil head never matches).
Result<BatPtr> Semijoin(const BatPtr& l, const BatPtr& r);

}  // namespace recycledb::engine::scalar_ref

#endif  // RECYCLEDB_TESTING_SCALAR_REF_H_
