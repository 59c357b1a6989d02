#ifndef RECYCLEDB_ENGINE_VEC_BITMAP_H_
#define RECYCLEDB_ENGINE_VEC_BITMAP_H_

#include <cstdint>
#include <cstring>

namespace recycledb::engine::vec {

/// Candidate bitmap utilities shared by every vectorised kernel: predicates
/// evaluate into 64-bit words (one bit per row, branch-free inner loops),
/// and one compaction pass per result side turns the words into a column
/// (CompactBits below; engine/materialize.h applies it to bat sides).

inline size_t BitmapWords(size_t n) { return (n + 63) / 64; }

/// Packs 64 bytes, each 0 or 1, into one word: byte j becomes bit j. Each
/// group of 8 bytes is read as one little-endian word; the multiply moves
/// byte b's low bit to bit 56 + b, and no other partial product reaches
/// bits 56..63.
inline uint64_t PackBytes(const uint8_t* m) {
  uint64_t word = 0;
  for (int g = 0; g < 8; ++g) {
    uint64_t x;
    std::memcpy(&x, m + 8 * g, sizeof x);
    word |= ((x * 0x0102040810204080ULL) >> 56) << (8 * g);
  }
  return word;
}

/// Evaluates `pred(d[i])` for i in [0, n) into `bits` (little-endian bit
/// order within each word; the bits past n in the last word are 0). Each
/// 64-row block is evaluated into 0/1 bytes, a loop the compiler
/// vectorises, and then packed. `pred` must be branch-free for arithmetic
/// types — compose it from `&`/`|` over bools, not `&&`.
template <typename T, typename Pred>
inline void PredBits(const T* d, size_t n, uint64_t* bits, Pred pred) {
  uint8_t m[64];
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (size_t j = 0; j < 64; ++j) m[j] = pred(d[i + j]);
    bits[i >> 6] = PackBytes(m);
  }
  if (i < n) {
    std::memset(m, 0, sizeof m);
    for (size_t j = 0; i + j < n; ++j) m[j] = pred(d[i + j]);
    bits[i >> 6] = PackBytes(m);
  }
}

inline size_t CountBits(const uint64_t* bits, size_t n) {
  size_t count = 0;
  for (size_t w = 0; w < BitmapWords(n); ++w)
    count += static_cast<size_t>(__builtin_popcountll(bits[w]));
  return count;
}

/// Writes `value(p)` for every set bit p of `bits` (n rows), ascending, to
/// `out`, which holds exactly the set bits' count. A full word writes its
/// 64 values without bit extraction; any other word writes one value per
/// set bit, so the only data-dependent branches are per word.
template <typename T, typename Value>
inline void CompactBits(const uint64_t* bits, size_t n, T* out, Value value) {
  for (size_t w = 0; w < BitmapWords(n); ++w) {
    uint64_t word = bits[w];
    const size_t base = w << 6;
    if (word == ~uint64_t{0}) {
      for (size_t j = 0; j < 64; ++j) out[j] = value(base + j);
      out += 64;
      continue;
    }
    for (; word != 0; word &= word - 1)
      *out++ = value(base + static_cast<size_t>(__builtin_ctzll(word)));
  }
}

}  // namespace recycledb::engine::vec

#endif  // RECYCLEDB_ENGINE_VEC_BITMAP_H_
