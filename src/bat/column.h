#ifndef RECYCLEDB_BAT_COLUMN_H_
#define RECYCLEDB_BAT_COLUMN_H_

#include <memory>
#include <variant>
#include <vector>

#include "bat/scalar.h"
#include "bat/string_heap.h"
#include "bat/types.h"

namespace recycledb {

class Column;
using ColumnPtr = std::shared_ptr<const Column>;

/// A typed, immutable column of values: the physical storage unit behind a
/// BAT side. Columns are shared freely between BATs via shared_ptr, which is
/// how the kernel implements its "data structure sharing to minimise the
/// need for taking a complete copy" (paper §2.3).
///
/// Properties (`sorted`, `key`) steer operator implementation choices: a
/// range select over a sorted column returns a zero-copy view, a join whose
/// inner is a key column skips duplicate handling. They also choose the
/// join kernel: an inner head of sorted, key oids is probed through a
/// direct position array, and a fetch through a sorted, key oid list
/// checks only its endpoints (docs/ENGINE.md, "Joins choose on flags").
/// Operators trust the flags, so a wrong flag is a wrong answer.
///
/// A string column is one code per row into a shared, deduplicated
/// StringHeap; `sorted` then means sorted by string content.
class Column {
 public:
  using Storage =
      std::variant<std::vector<int8_t>, std::vector<int32_t>,
                   std::vector<int64_t>, std::vector<Oid>, std::vector<double>,
                   std::vector<StrCode>>;

  /// `heap` is required for kStr and must be null otherwise.
  Column(TypeTag type, Storage storage, StringHeapPtr heap = nullptr);

  /// Builds a column from a typed vector. T must be the physical type of
  /// `type` (e.g., int32_t for kDate); string codes come with their heap.
  /// `Make<std::string>` interns the strings into a fresh heap.
  template <typename T>
  static std::shared_ptr<Column> Make(TypeTag type, std::vector<T> v,
                                      StringHeapPtr heap = nullptr) {
    return std::make_shared<Column>(type, Storage(std::move(v)),
                                    std::move(heap));
  }

  TypeTag type() const { return type_; }
  size_t size() const;

  template <typename T>
  const std::vector<T>& Data() const {
    return std::get<std::vector<T>>(storage_);
  }

  /// Ascending-sorted property, in the values' raw order (strings by
  /// content). Nils therefore lead, except an oid nil: it is the maximum
  /// oid and sorts last.
  bool sorted() const { return sorted_; }
  void set_sorted(bool s) { sorted_ = s; }

  /// All values distinct.
  bool key() const { return key_; }
  void set_key(bool k) { key_ = k; }

  /// Persistent columns belong to the catalog; they are not accounted as
  /// recycled intermediate memory (paper Table III reports Bind memory 0).
  bool persistent() const { return persistent_; }
  void set_persistent(bool p) { persistent_ = p; }

  /// The string heap of a kStr column (null for other types). Fetches and
  /// selects share it, so two string sides with the same heap compare by
  /// code.
  const StringHeapPtr& heap() const { return heap_; }

  /// Bytes of the value vector. A string column counts its codes only: its
  /// heap is shared, and is charged once, to its catalog column.
  size_t MemoryBytes() const { return mem_bytes_; }

  /// Boxed element access (slow path: printing, tests, tiny results).
  Scalar GetScalar(size_t i) const;

  /// Detects and sets the sorted and key properties by one scan: key when
  /// the values strictly increase (an unsorted column is not scanned for
  /// duplicates and is not flagged key).
  void ComputeSorted();

 private:
  TypeTag type_;
  Storage storage_;
  bool sorted_ = false;
  bool key_ = false;
  bool persistent_ = false;
  size_t mem_bytes_ = 0;
  StringHeapPtr heap_;
};

template <>
std::shared_ptr<Column> Column::Make<std::string>(TypeTag type,
                                                 std::vector<std::string> v,
                                                 StringHeapPtr heap);

/// The number of oids from the first to the last of `n` ascending,
/// distinct oids `v`, or 0 when they hold a nil (an oid nil is the
/// maximum, so it would be last) or span `limit` oids or more. A position
/// array over that span finds a value's position with one subtract, one
/// compare and one load; `limit` keeps the array no larger than the inputs.
inline size_t DirectSpan(const Oid* v, size_t n, size_t limit) {
  if (n == 0 || v[n - 1] == kNilOid || v[n - 1] - v[0] >= limit) return 0;
  return v[n - 1] - v[0] + 1;
}

}  // namespace recycledb

#endif  // RECYCLEDB_BAT_COLUMN_H_
