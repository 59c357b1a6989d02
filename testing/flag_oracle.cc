#include "testing/flag_oracle.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

namespace recycledb::oracle {

std::string SideFlagError(const BatSide& side, size_t count) {
  if (side.dense()) return "";
  const Column& col = *side.col;
  if (side.offset + count > col.size()) return "view window past the column";
  return VisitPhysical(side.type, [&](auto tag) -> std::string {
    using T = typename decltype(tag)::type;
    const T* v = col.Data<T>().data() + side.offset;
    auto less = [&](size_t a, size_t b) {
      if constexpr (std::is_same_v<T, StrCode>) {
        return col.heap()->Get(v[a]) < col.heap()->Get(v[b]);
      } else {
        return v[a] < v[b];
      }
    };
    auto rows = [&](size_t a, size_t b) {
      return " (row " + std::to_string(a) + " = " +
             col.GetScalar(side.offset + a).ToString() + ", row " +
             std::to_string(b) + " = " +
             col.GetScalar(side.offset + b).ToString() + ")";
    };
    if (col.sorted()) {
      for (size_t i = 1; i < count; ++i) {
        if (less(i, i - 1)) return "sorted flag is wrong" + rows(i - 1, i);
      }
    }
    if (col.key()) {
      // Sorted values (checked above) repeat only next to each other.
      std::vector<size_t> order(count);
      std::iota(order.begin(), order.end(), size_t{0});
      if (!col.sorted()) std::sort(order.begin(), order.end(), less);
      for (size_t k = 1; k < count; ++k) {
        if (!less(order[k - 1], order[k]))
          return "key flag is wrong" + rows(order[k - 1], order[k]);
      }
    }
    return "";
  });
}

std::string BatFlagError(const Bat& b) {
  std::string head = SideFlagError(b.head(), b.size());
  if (!head.empty()) return "head: " + head;
  std::string tail = SideFlagError(b.tail(), b.size());
  if (!tail.empty()) return "tail: " + tail;
  return "";
}

}  // namespace recycledb::oracle
