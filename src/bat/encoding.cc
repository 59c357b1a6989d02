#include "bat/encoding.h"

#include <unordered_map>

#include "util/check.h"

namespace recycledb {

namespace {

struct CodeSizeVisitor {
  template <typename C>
  size_t operator()(const std::vector<C>& v) const {
    return v.size();
  }
};

struct CodeBytesVisitor {
  template <typename C>
  size_t operator()(const std::vector<C>& v) const {
    return v.capacity() * sizeof(C);
  }
};

size_t DictBytes(const std::vector<std::string>& dict) {
  size_t bytes = dict.capacity() * sizeof(std::string);
  for (const auto& s : dict) bytes += s.capacity();
  return bytes;
}

/// Encodes `vals` as `v - base` codes of width C; nil values take the
/// reserved max code.
template <typename C, typename T>
std::vector<C> ForCodes(const std::vector<T>& vals, uint64_t base) {
  std::vector<C> codes;
  codes.reserve(vals.size());
  for (const T& v : vals) {
    if (IsNil(v)) {
      codes.push_back(ColumnEncoding::NilCode<C>());
    } else {
      codes.push_back(static_cast<C>(static_cast<uint64_t>(v) - base));
    }
  }
  return codes;
}

}  // namespace

ColumnEncoding::ColumnEncoding(
    Kind kind, Codes codes, int64_t base,
    std::shared_ptr<const std::vector<std::string>> dict, bool owns_dict,
    size_t raw_bytes)
    : kind_(kind),
      codes_(std::move(codes)),
      base_(base),
      dict_(std::move(dict)),
      owns_dict_(owns_dict),
      raw_bytes_(raw_bytes) {}

size_t ColumnEncoding::size() const {
  return std::visit(CodeSizeVisitor{}, codes_);
}

size_t ColumnEncoding::MemoryBytes() const {
  size_t bytes = std::visit(CodeBytesVisitor{}, codes_);
  if (owns_dict_ && dict_) bytes += DictBytes(*dict_);
  return bytes;
}

template <typename T>
EncodingPtr ColumnEncoding::TryFor(const std::vector<T>& vals) {
  static_assert(std::is_integral_v<T>, "FOR encodes integer types only");
  uint64_t min = 0, max = 0;
  bool any = false;
  for (const T& v : vals) {
    if (IsNil(v)) continue;
    // Two's-complement bit pattern keeps ordering within one signedness;
    // signed ranges are handled through the unsigned difference below.
    uint64_t u = static_cast<uint64_t>(v);
    if constexpr (!std::is_signed_v<T>) {
      // Reserve the top half of the unsigned domain so base + code never
      // wraps when decoded through the signed base.
      if (u >= (1ull << 63)) return nullptr;
    }
    if (!any || static_cast<T>(u) < static_cast<T>(min)) min = u;
    if (!any || static_cast<T>(max) < static_cast<T>(u)) max = u;
    any = true;
  }
  uint64_t range = any ? max - min : 0;  // unsigned diff is exact for T
  size_t n = vals.size();
  auto build = [&](auto code_tag) -> EncodingPtr {
    using C = typename decltype(code_tag)::type;
    if (sizeof(C) >= sizeof(T)) return nullptr;
    if (range > static_cast<uint64_t>(NilCode<C>()) - 1) return nullptr;
    return std::make_shared<ColumnEncoding>(
        Kind::kFor, Codes(ForCodes<C>(vals, min)), static_cast<int64_t>(min),
        nullptr, false, n * sizeof(T));
  };
  if (auto e = build(PhysTag<uint8_t>{})) return e;
  if (auto e = build(PhysTag<uint16_t>{})) return e;
  if (auto e = build(PhysTag<uint32_t>{})) return e;
  return nullptr;
}

template EncodingPtr ColumnEncoding::TryFor<int32_t>(
    const std::vector<int32_t>&);
template EncodingPtr ColumnEncoding::TryFor<int64_t>(
    const std::vector<int64_t>&);
template EncodingPtr ColumnEncoding::TryFor<Oid>(const std::vector<Oid>&);

EncodingPtr ColumnEncoding::TryDict(const std::vector<std::string>& vals,
                                    size_t max_distinct) {
  auto dict = std::make_shared<std::vector<std::string>>();
  std::unordered_map<std::string, uint32_t> index;
  std::vector<uint32_t> wide;
  wide.reserve(vals.size());
  for (const std::string& s : vals) {
    auto [it, fresh] =
        index.emplace(s, static_cast<uint32_t>(dict->size()));
    if (fresh) {
      if (dict->size() >= max_distinct) return nullptr;
      dict->push_back(s);
    }
    wide.push_back(it->second);
  }
  size_t raw = vals.size() * sizeof(std::string);
  for (const std::string& s : vals) raw += s.capacity();
  size_t nd = dict->size();
  auto narrow = [&](auto code_tag) -> Codes {
    using C = typename decltype(code_tag)::type;
    std::vector<C> codes;
    codes.reserve(wide.size());
    for (uint32_t c : wide) codes.push_back(static_cast<C>(c));
    return Codes(std::move(codes));
  };
  Codes codes;
  if (nd <= NilCode<uint8_t>()) {
    codes = narrow(PhysTag<uint8_t>{});
  } else if (nd <= NilCode<uint16_t>()) {
    codes = narrow(PhysTag<uint16_t>{});
  } else {
    codes = Codes(std::move(wide));
  }
  return std::make_shared<ColumnEncoding>(Kind::kDict, std::move(codes), 0,
                                          std::move(dict), /*owns_dict=*/true,
                                          raw);
}

EncodingPtr ColumnEncoding::Gather(const ColumnEncoding& src, size_t offset,
                                   const std::vector<uint32_t>& sel) {
  return src.VisitCodes([&](const auto& codes) -> EncodingPtr {
    using C = typename std::decay_t<decltype(codes)>::value_type;
    std::vector<C> out;
    out.reserve(sel.size());
    const C* base = codes.data() + offset;
    for (uint32_t i : sel) out.push_back(base[i]);
    size_t raw;
    if (src.kind_ == Kind::kDict) {
      raw = sel.size() * sizeof(std::string);
      const auto& d = *src.dict_;
      for (C c : out) raw += d[c].size();
    } else {
      raw = sel.size() * (src.raw_bytes_ / std::max<size_t>(src.size(), 1));
    }
    return std::make_shared<ColumnEncoding>(src.kind_, Codes(std::move(out)),
                                            src.base_, src.dict_,
                                            /*owns_dict=*/false, raw);
  });
}

template <typename T>
void ColumnEncoding::DecodeTo(std::vector<T>* out) const {
  RDB_CHECK(kind_ == Kind::kFor);
  VisitCodes([&](const auto& codes) {
    using C = typename std::decay_t<decltype(codes)>::value_type;
    out->clear();
    out->reserve(codes.size());
    for (C c : codes) {
      if (c == NilCode<C>()) {
        out->push_back(NilOf<T>());
      } else {
        out->push_back(static_cast<T>(static_cast<uint64_t>(base_) +
                                      static_cast<uint64_t>(c)));
      }
    }
  });
}

template void ColumnEncoding::DecodeTo<int32_t>(std::vector<int32_t>*) const;
template void ColumnEncoding::DecodeTo<int64_t>(std::vector<int64_t>*) const;
template void ColumnEncoding::DecodeTo<Oid>(std::vector<Oid>*) const;

void ColumnEncoding::DecodeStrings(std::vector<std::string>* out) const {
  RDB_CHECK(kind_ == Kind::kDict);
  VisitCodes([&](const auto& codes) {
    out->clear();
    out->reserve(codes.size());
    for (auto c : codes) out->push_back((*dict_)[c]);
  });
}

}  // namespace recycledb
