#include "bat/string_heap.h"

#include "util/check.h"

namespace recycledb {

namespace {

size_t HashOf(std::string_view s) { return std::hash<std::string_view>()(s); }

}  // namespace

size_t StringHeap::Slot(std::string_view s, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint32_t c = slots_[i];
    if (c == 0 || Get(StrCode{c - 1}) == s) return i;
  }
}

bool StringHeap::Find(std::string_view s, StrCode* code) const {
  uint32_t c = slots_[Slot(s, HashOf(s))];
  if (c == 0) return false;
  *code = StrCode{c - 1};
  return true;
}

size_t StringHeap::MemoryBytes() const {
  return chars_.capacity() + offsets_.capacity() * sizeof(uint32_t) +
         slots_.capacity() * sizeof(uint32_t);
}

StringHeapBuilder::StringHeapBuilder()
    : heap_(std::shared_ptr<StringHeap>(new StringHeap())) {
  heap_->slots_.assign(16, 0);
  Intern(std::string_view());  // code 0: the nil
}

StringHeapBuilder::StringHeapBuilder(const StringHeap& base)
    : heap_(std::shared_ptr<StringHeap>(new StringHeap(base))) {}

StrCode StringHeapBuilder::Intern(std::string_view s) {
  StringHeap& h = *heap_;
  size_t slot = h.Slot(s, HashOf(s));
  if (h.slots_[slot] != 0) return StrCode{h.slots_[slot] - 1};
  RDB_CHECK(h.chars_.size() + s.size() <= UINT32_MAX);
  const auto code = static_cast<uint32_t>(h.size());
  h.chars_.append(s.data(), s.size());
  h.offsets_.push_back(static_cast<uint32_t>(h.chars_.size()));
  h.slots_[slot] = code + 1;
  if (2 * h.size() > h.slots_.size()) Grow();
  return StrCode{code};
}

void StringHeapBuilder::Grow() {
  StringHeap& h = *heap_;
  h.slots_.assign(h.slots_.size() * 2, 0);
  for (uint32_t c = 0; c < h.size(); ++c) {
    std::string_view s = h.Get(StrCode{c});
    h.slots_[h.Slot(s, HashOf(s))] = c + 1;
  }
}

StringHeapPtr StringHeapBuilder::Finish() { return std::move(heap_); }

std::vector<StrCode> Recode(const StrCode* codes, size_t n,
                            const StringHeap& from, const StringHeap& to) {
  std::vector<StrCode> out(n);
  for (size_t i = 0; i < n; ++i) {
    if (!to.Find(from.Get(codes[i]), &out[i])) out[i] = StrCode{};
  }
  return out;
}

}  // namespace recycledb
