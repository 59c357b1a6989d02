#ifndef RECYCLEDB_BAT_ENCODING_H_
#define RECYCLEDB_BAT_ENCODING_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bat/types.h"

namespace recycledb {

class ColumnEncoding;
using EncodingPtr = std::shared_ptr<const ColumnEncoding>;

/// Lightweight column encodings the execution kernels can process without
/// decompressing (MorphStore-style on-the-fly compressed processing):
///
///  - kFor: frame-of-reference for integer physical types (int32/int64/oid,
///    including the logical date type). Values are stored as unsigned codes
///    `v - base` in the narrowest of u8/u16/u32 that fits the value range;
///    the maximum code of the width is reserved as the in-band nil marker.
///    Range selects translate their bounds into code space once and scan
///    the codes directly.
///  - kDict: dictionary for strings. The distinct values live in a (shared)
///    dictionary in first-occurrence order; rows store fixed-width codes.
///    LIKE/equality/range predicates are evaluated once per distinct
///    dictionary value and then mapped over the codes.
///
/// An encoding is immutable and hangs off a Column either as a sidecar next
/// to raw storage (persistent columns, see Catalog::BuildEncodings) or as
/// the column's only representation (encoded-native intermediates, which
/// engine::TakeSide produces whenever it gathers out of an encoded column
/// and which decode lazily on first raw access — Column::Data).
class ColumnEncoding {
 public:
  enum class Kind { kFor, kDict };

  using Codes = std::variant<std::vector<uint8_t>, std::vector<uint16_t>,
                             std::vector<uint32_t>>;

  /// Reserved nil code for width CodeT (codes above kMaxCode never occur
  /// for real values).
  template <typename CodeT>
  static constexpr CodeT NilCode() {
    return std::numeric_limits<CodeT>::max();
  }

  Kind kind() const { return kind_; }
  size_t size() const;

  /// Heap bytes owned by this encoding: the code array, plus the dictionary
  /// when this encoding introduced it (TryDict). Gathered dictionary
  /// encodings share the source dictionary and charge only their codes —
  /// the viewpoint stance the pool already takes for column views.
  size_t MemoryBytes() const;

  /// Heap bytes the decoded raw representation would occupy; the spread
  /// between this and MemoryBytes() is the pool's encoding saving.
  size_t RawBytes() const { return raw_bytes_; }

  // --- kFor ------------------------------------------------------------
  /// Frame of reference; value = base + code. For oid columns the base is
  /// the bit-cast minimum (encoding is refused for oids >= 2^63).
  int64_t base() const { return base_; }

  // --- kDict -----------------------------------------------------------
  const std::vector<std::string>& dict() const { return *dict_; }
  const std::shared_ptr<const std::vector<std::string>>& shared_dict() const {
    return dict_;
  }

  template <typename F>
  decltype(auto) VisitCodes(F&& f) const {
    return std::visit(std::forward<F>(f), codes_);
  }

  /// Builds a FOR encoding over an integer vector, or null when no code
  /// width narrower than sizeof(T) fits the non-nil value range. T is one
  /// of int32_t, int64_t, Oid.
  template <typename T>
  static EncodingPtr TryFor(const std::vector<T>& vals);

  /// Builds a dictionary encoding over a string vector, or null when the
  /// distinct count exceeds `max_distinct` or the codes would not be
  /// narrower than the raw strings.
  static EncodingPtr TryDict(const std::vector<std::string>& vals,
                             size_t max_distinct = 1u << 16);

  /// Gathers `sel` positions (relative to `offset`) out of `src` into a new
  /// encoding with the same base/width/dictionary. The dictionary is shared,
  /// not copied.
  static EncodingPtr Gather(const ColumnEncoding& src, size_t offset,
                            const std::vector<uint32_t>& sel);

  /// Decodes into raw physical storage for `type` (the lazy-decode path of
  /// encoded-native columns).
  template <typename T>
  void DecodeTo(std::vector<T>* out) const;
  void DecodeStrings(std::vector<std::string>* out) const;

  ColumnEncoding(Kind kind, Codes codes, int64_t base,
                 std::shared_ptr<const std::vector<std::string>> dict,
                 bool owns_dict, size_t raw_bytes);

 private:
  Kind kind_;
  Codes codes_;
  int64_t base_ = 0;
  std::shared_ptr<const std::vector<std::string>> dict_;
  bool owns_dict_ = false;
  size_t raw_bytes_ = 0;
};

}  // namespace recycledb

#endif  // RECYCLEDB_BAT_ENCODING_H_
