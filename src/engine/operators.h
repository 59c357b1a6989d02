#ifndef RECYCLEDB_ENGINE_OPERATORS_H_
#define RECYCLEDB_ENGINE_OPERATORS_H_

#include <string>
#include <vector>

#include "bat/bat.h"
#include "util/status.h"

namespace recycledb::engine {

// ---------------------------------------------------------------------------
// Selection operators. All select variants filter on the *tail* values and
// return the qualifying (head, tail) pairs in input order.
// ---------------------------------------------------------------------------

/// Range selection: tail in [lo, hi] with per-bound inclusiveness. A nil
/// bound means unbounded on that end; nil tail values never qualify.
/// If the tail is sorted the result is a zero-copy view slice.
Result<BatPtr> Select(const BatPtr& b, const Scalar& lo, const Scalar& hi,
                      bool lo_inc, bool hi_inc);

/// Equality selection (MonetDB's `uselect`).
Result<BatPtr> Uselect(const BatPtr& b, const Scalar& v);

/// Inverse equality selection: tail != v (and not nil).
Result<BatPtr> AntiUselect(const BatPtr& b, const Scalar& v);

/// SQL LIKE selection over string tails.
Result<BatPtr> LikeSelect(const BatPtr& b, const std::string& pattern);

/// Drops pairs with nil tails.
Result<BatPtr> SelectNotNil(const BatPtr& b);

// ---------------------------------------------------------------------------
// Join operators.
// ---------------------------------------------------------------------------

/// Equi-join `l.tail == r.head`, emitting (l.head, r.tail) in left order.
/// The kernel follows r.head's flags: a dense head is a positional fetch
/// (projection join); a head within DirectJoinSpan is probed through a
/// position array; a key head takes the unique-inner hash probe, any other
/// the general one (docs/ENGINE.md, "Joins choose on flags").
Result<BatPtr> Join(const BatPtr& l, const BatPtr& r);

/// The number of oids a direct-addressed Join of `l` with `r` indexes, or
/// 0 when it hashes instead: r.head must be an oid column flagged sorted
/// and key, without nils, whose values span fewer than |l| + |r| oids, so
/// the position array is no larger than the inputs.
size_t DirectJoinSpan(const Bat& l, const Bat& r);

/// Semijoin: pairs of `l` whose *head* value appears among `r`'s heads
/// (MonetDB semantics; implements relational projection of candidates).
Result<BatPtr> Semijoin(const BatPtr& l, const BatPtr& r);

/// Anti-semijoin: pairs of `l` whose head does NOT appear among `r`'s heads.
Result<BatPtr> AntiSemijoin(const BatPtr& l, const BatPtr& r);

// ---------------------------------------------------------------------------
// Zero-cost viewpoint operators (paper §2.2): no data copying.
// ---------------------------------------------------------------------------

/// [head -> dense(base)]: fresh dense oids in the tail.
BatPtr MarkT(const BatPtr& b, Oid base);

/// Swaps head and tail.
BatPtr Reverse(const BatPtr& b);

/// [head -> head].
BatPtr Mirror(const BatPtr& b);

/// View of pair positions [lo, hi) — implements LIMIT/OFFSET.
Result<BatPtr> Slice(const BatPtr& b, size_t lo, size_t hi);

// ---------------------------------------------------------------------------
// Distinct & grouping.
// ---------------------------------------------------------------------------

/// Keeps the first pair for every distinct head value.
Result<BatPtr> Kunique(const BatPtr& b);

struct GroupResult {
  BatPtr map;   ///< [dense -> gid oid], positionally aligned with the input
  BatPtr reps;  ///< [dense gid -> head oid of the group's first row]
};

/// Groups by tail value.
Result<GroupResult> GroupBy(const BatPtr& keys);

/// Refines an existing grouping with an additional key column.
Result<GroupResult> SubGroupBy(const BatPtr& keys, const BatPtr& prev_map);

// ---------------------------------------------------------------------------
// Aggregates.
// ---------------------------------------------------------------------------

enum class AggFn { kSum, kCount, kMin, kMax, kAvg };

/// Scalar aggregate over tail values. Count counts pairs. Sum of integral
/// types yields lng; sum/avg of dbl yields dbl. Empty input: count = 0,
/// others = nil.
Result<Scalar> Aggr(AggFn fn, const BatPtr& b);

/// Per-group aggregate: `vals` and `map` are positionally aligned; `ngroups`
/// is the group-domain size. Returns [dense gid -> agg value].
Result<BatPtr> GroupedAggr(AggFn fn, const BatPtr& vals, const BatPtr& map,
                           size_t ngroups);

// ---------------------------------------------------------------------------
// Element-wise arithmetic / comparison (batcalc).
// ---------------------------------------------------------------------------

enum class BinOp { kAdd, kSub, kMul, kDiv };
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Element-wise arithmetic of two positionally aligned numeric bats.
/// Result is dbl if either input is dbl (div always dbl), else lng.
Result<BatPtr> CalcBin(BinOp op, const BatPtr& l, const BatPtr& r);

/// Element-wise arithmetic with a scalar right operand.
Result<BatPtr> CalcBinConst(BinOp op, const BatPtr& l, const Scalar& r);

/// Scalar-left variant (e.g., `1 - l_discount`).
Result<BatPtr> CalcConstBin(BinOp op, const Scalar& l, const BatPtr& r);

/// Element-wise comparison -> [head -> bit].
Result<BatPtr> CalcCmp(CmpOp op, const BatPtr& l, const BatPtr& r);

/// Extracts the calendar year of a date bat -> [head -> int].
Result<BatPtr> CalcYear(const BatPtr& b);

// ---------------------------------------------------------------------------
// Ordering & concatenation.
// ---------------------------------------------------------------------------

/// Stable ascending sort by tail; the result's tail column carries the
/// sorted property (making later range selects over it zero-copy views).
Result<BatPtr> SortTail(const BatPtr& b);

/// Stable descending sort by tail (ORDER BY ... DESC). The result does NOT
/// carry the sorted property — that property means ascending everywhere.
Result<BatPtr> SortTailRev(const BatPtr& b);

/// Concatenates bats with identical logical types, in argument order.
Result<BatPtr> Concat(const std::vector<BatPtr>& bats);

}  // namespace recycledb::engine

#endif  // RECYCLEDB_ENGINE_OPERATORS_H_
