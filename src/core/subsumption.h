#ifndef RECYCLEDB_CORE_SUBSUMPTION_H_
#define RECYCLEDB_CORE_SUBSUMPTION_H_

// Run-time instruction subsumption (paper §5): answering a missed
// instruction from cached intermediates that contain its result.
//
// Combined subsumption (§5.2, Algorithm 2) answers a range select from
// several cached selects over the same column whose ranges jointly cover
// the target. Algorithm 2 grows connected subsets of the overlapping
// candidates R level by level. Here the same optimum comes from a chain DP
// over R sorted by lower bound, in O(|R|²) time and O(|R|) space:
//
//  - Costs are non-negative, so some cheapest connected cover has no
//    redundant member. Sorted by lower bound, the members of such a cover
//    form a chain: the first covers the target's lower bound, each next one
//    shares a point with the previous one (as RangeOverlaps) and reaches
//    past the previous one's upper bound, and the last covers the target's
//    upper bound. Every chain is also connected, so the cheapest chain
//    costs what Algorithm 2's cheapest subset costs.
//  - best[k], the fewest rows of a chain that covers the target's lower
//    bound and ends with candidate k, is the minimum of k's own rows (when k
//    covers the lower bound) and best[j] + rows(k) over the earlier
//    candidates j that k overlaps and extends.
//
// The §5.2 cost rule decides: a cover of C rows is taken only when
// C + overhead_rows is below the size of the column operand, C(S) < C(A).
// Among covers of equal cost, the DP may pick other sources than a subset
// search would.

#include <optional>
#include <vector>

#include "core/recycle_pool.h"

namespace recycledb {

/// A (possibly unbounded) typed selection endpoint.
struct RangeBound {
  Scalar v;
  bool inclusive = true;
  bool unbounded = false;
};

/// A typed selection interval over an ordered domain.
struct ValRange {
  RangeBound lo, hi;
};

/// Builds the range of a `algebra.select(b, lo, hi, li, hi)` argument list.
ValRange RangeOfSelect(const std::vector<MalValue>& args);

/// outer ⊇ inner.
bool RangeCovers(const ValRange& outer, const ValRange& inner);

/// Non-empty intersection: touching endpoints overlap only when both sides
/// are inclusive. Conservative for discrete domains: adjacency without a
/// shared point does not chain in the combined-subsumption algorithm.
bool RangeOverlaps(const ValRange& a, const ValRange& b);

/// One candidate of combined subsumption: a cached select's range and the
/// rows of its result.
struct CoverCandidate {
  ValRange range;
  size_t rows = 0;
};

/// The cheapest chain of candidates that covers `target` (the DP above):
/// positions into `r`, in chain order. Empty when no chain's rows plus
/// `overhead_rows` are below `base_rows`. Every candidate must overlap
/// `target` and none may cover it alone, so a chain has two or more members.
std::vector<size_t> CheapestChainCover(const ValRange& target,
                                       const std::vector<CoverCandidate>& r,
                                       size_t overhead_rows, size_t base_rows);

/// Result of a successful subsumption: the computed results and the pool
/// entries used as sources.
struct SubsumeOutcome {
  std::vector<MalValue> results;
  std::vector<PoolEntry*> sources;
  bool combined = false;
};

/// Stateless over a pool; all methods return nullopt when no profitable
/// subsumption exists, in which case the caller executes the instruction
/// normally.
class SubsumptionEngine {
 public:
  struct Options {
    bool allow_combined = true;
    /// Cap on |R|: the candidates with the fewest rows are kept. It bounds
    /// the work done under the stripe's exclusive lock when many cached
    /// selects overlap the target.
    size_t max_candidates = 16;
    size_t overhead_rows = 16;  ///< `ov` of the §5.2 cost model, in rows
  };

  explicit SubsumptionEngine(RecyclePool* pool)
      : pool_(pool), opts_(Options()) {}
  SubsumptionEngine(RecyclePool* pool, Options opts)
      : pool_(pool), opts_(opts) {}

  /// Range-select subsumption: singleton (§5.1) first, then combined
  /// (Algorithm 2). `op` may be kSelect or kUselect (an equality select is
  /// the degenerate range [v, v]). `visible_epoch` restricts candidates to
  /// pool entries visible to the probing query's snapshot. When
  /// `combined_ms` is set, it receives the time spent choosing a combined
  /// cover, whether or not one is found, and 0 when none was tried.
  std::optional<SubsumeOutcome> TrySelect(Opcode op,
                                          const std::vector<MalValue>& args,
                                          uint64_t visible_epoch = kEpochLatest,
                                          double* combined_ms = nullptr);

  /// LIKE-pattern subsumption: a cached `%s%` scan covers any pattern whose
  /// guaranteed literal content contains `s`.
  std::optional<SubsumeOutcome> TryLike(const std::vector<MalValue>& args,
                                        uint64_t visible_epoch = kEpochLatest);

  /// Semijoin subsumption: semijoin(X, W) from a cached semijoin(X, V) with
  /// W ⊂ V, established via the pool's subset lattice.
  std::optional<SubsumeOutcome> TrySemijoin(
      const std::vector<MalValue>& args, uint64_t visible_epoch = kEpochLatest);

 private:
  std::optional<SubsumeOutcome> TryCombined(const ValRange& target,
                                            const std::vector<MalValue>& args,
                                            std::vector<PoolEntry*> cands,
                                            double* combined_ms);

  RecyclePool* pool_;
  Options opts_;
};

}  // namespace recycledb

#endif  // RECYCLEDB_CORE_SUBSUMPTION_H_
