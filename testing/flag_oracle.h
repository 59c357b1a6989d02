#ifndef RECYCLEDB_TESTING_FLAG_ORACLE_H_
#define RECYCLEDB_TESTING_FLAG_ORACLE_H_

#include <string>

#include "bat/bat.h"

namespace recycledb::oracle {

/// Checks a side's `sorted` and `key` flags against its `count` values in
/// the view window: sorted means no value is below the one before it (raw
/// order, strings by content), key means no value repeats. Returns an
/// empty string when every set flag holds, otherwise which flag is wrong
/// and the rows that show it. A dense side has no flags and always passes.
///
/// Operators choose kernels on these flags, so tests run it over operator
/// outputs and pool contents. It is NOT wired into any production path.
std::string SideFlagError(const BatSide& side, size_t count);

/// SideFlagError over both sides of `b`, prefixed with "head" or "tail".
std::string BatFlagError(const Bat& b);

}  // namespace recycledb::oracle

#endif  // RECYCLEDB_TESTING_FLAG_ORACLE_H_
