#include "testing/subsumption_oracle.h"

#include <cstddef>
#include <cstdint>

namespace recycledb::oracle {

namespace {

/// The lower of two lower bounds.
RangeBound LowerLo(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded) return a;
  if (b.unbounded) return b;
  int c = a.v.Compare(b.v);
  if (c != 0) return c < 0 ? a : b;
  return a.inclusive ? a : b;
}

/// The higher of two upper bounds.
RangeBound HigherHi(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded) return a;
  if (b.unbounded) return b;
  int c = a.v.Compare(b.v);
  if (c != 0) return c > 0 ? a : b;
  return a.inclusive ? a : b;
}

/// The union of the members of `mask` when they are connected.
std::optional<ValRange> ConnectedUnion(const std::vector<CoverCandidate>& r,
                                       uint32_t mask) {
  std::vector<size_t> rest;
  for (size_t i = 0; i < r.size(); ++i) {
    if (mask & (1u << i)) rest.push_back(i);
  }
  ValRange hull = r[rest.back()].range;
  rest.pop_back();
  bool grew = true;
  while (grew && !rest.empty()) {
    grew = false;
    for (size_t k = 0; k < rest.size(); ++k) {
      const ValRange& m = r[rest[k]].range;
      if (!RangeOverlaps(hull, m)) continue;
      hull.lo = LowerLo(hull.lo, m.lo);
      hull.hi = HigherHi(hull.hi, m.hi);
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(k));
      grew = true;
      break;
    }
  }
  if (!rest.empty()) return std::nullopt;
  return hull;
}

}  // namespace

std::optional<size_t> BruteForceCoverCost(const ValRange& target,
                                          const std::vector<CoverCandidate>& r,
                                          size_t overhead_rows,
                                          size_t base_rows) {
  std::optional<size_t> best;
  const uint32_t subsets = 1u << r.size();
  for (uint32_t mask = 1; mask < subsets; ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    size_t cost = overhead_rows;
    for (size_t i = 0; i < r.size(); ++i) {
      if (mask & (1u << i)) cost += r[i].rows;
    }
    if (cost >= base_rows || (best.has_value() && cost >= *best)) continue;
    std::optional<ValRange> hull = ConnectedUnion(r, mask);
    if (hull.has_value() && RangeCovers(*hull, target)) best = cost;
  }
  return best;
}

}  // namespace recycledb::oracle
