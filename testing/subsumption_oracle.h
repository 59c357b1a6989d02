#ifndef RECYCLEDB_TESTING_SUBSUMPTION_ORACLE_H_
#define RECYCLEDB_TESTING_SUBSUMPTION_ORACLE_H_

#include <optional>
#include <vector>

#include "core/subsumption.h"

namespace recycledb::oracle {

/// Brute-force reference for combined subsumption (§5.2, Algorithm 2). It
/// tries every subset of two or more candidates of `r`. A subset qualifies
/// when its ranges are connected, grown one overlapping member at a time
/// as Algorithm 2 grows its combinations, and their union covers `target`.
/// Returns the fewest rows of a qualifying subset plus `overhead_rows`, or
/// nullopt when that is not below `base_rows`.
///
/// Exponential in |r|: tests compare CheapestChainCover against it. It is
/// NOT wired into any production path.
std::optional<size_t> BruteForceCoverCost(const ValRange& target,
                                          const std::vector<CoverCandidate>& r,
                                          size_t overhead_rows,
                                          size_t base_rows);

}  // namespace recycledb::oracle

#endif  // RECYCLEDB_TESTING_SUBSUMPTION_ORACLE_H_
