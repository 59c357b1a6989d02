#ifndef RECYCLEDB_BAT_STRING_HEAP_H_
#define RECYCLEDB_BAT_STRING_HEAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bat/types.h"

namespace recycledb {

class StringHeap;
using StringHeapPtr = std::shared_ptr<const StringHeap>;

/// The distinct strings of one or more string columns, each stored once
/// (MonetDB's string heap with duplicate elimination). A heap is immutable
/// once built, so within one heap equal strings have equal codes and
/// columns, fetches and intermediates share it by pointer.
class StringHeap {
 public:
  /// Number of distinct strings, the empty string included.
  size_t size() const { return offsets_.size() - 1; }

  std::string_view Get(StrCode c) const {
    return {chars_.data() + offsets_[c.v], offsets_[c.v + 1] - offsets_[c.v]};
  }

  /// The code of `s`, or false if the heap does not hold it.
  bool Find(std::string_view s, StrCode* code) const;

  /// Bytes of characters, offsets and the dedup table.
  size_t MemoryBytes() const;

 private:
  friend class StringHeapBuilder;
  StringHeap() = default;

  /// Dedup-table slot of `s`: the slot holding its code, or the empty slot
  /// where it would go.
  size_t Slot(std::string_view s, size_t hash) const;

  std::string chars_;
  std::vector<uint32_t> offsets_{0};  // size() + 1 entries
  std::vector<uint32_t> slots_;       // code + 1 per slot; 0 = empty
};

/// Builds a heap. Started from an existing heap it extends a copy: every
/// code of the base keeps its string, so columns over the base can be
/// merged with the new strings without re-coding. The dedup table holds
/// codes (the strings hash by content), so that copy is three memcpys.
class StringHeapBuilder {
 public:
  StringHeapBuilder();
  explicit StringHeapBuilder(const StringHeap& base);

  StrCode Intern(std::string_view s);
  StringHeapPtr Finish();

 private:
  void Grow();

  std::shared_ptr<StringHeap> heap_;
};

/// Codes of `n` strings of heap `from`, re-coded into heap `to`. A string
/// `to` lacks becomes nil, which matches nothing.
std::vector<StrCode> Recode(const StrCode* codes, size_t n,
                            const StringHeap& from, const StringHeap& to);

}  // namespace recycledb

#endif  // RECYCLEDB_BAT_STRING_HEAP_H_
