// Column-encoding round-trips (bat/encoding.h): FOR and dictionary codecs
// must decode back to exactly the input — including in-band nil sentinels —
// choose the narrowest code width that fits, and refuse when no narrower
// representation exists. Dense-side gathers encode only inside an
// engine::EncodedGatherScope. Plus the encoded-native Column contract: lazy
// decode is value-correct, thread-safe, and never shifts MemoryBytes().

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bat/column.h"
#include "bat/encoding.h"
#include "engine/materialize.h"
#include "util/rng.h"

namespace recycledb {
namespace {

template <typename C>
bool HoldsWidth(const ColumnEncoding& enc) {
  return enc.VisitCodes([](const auto& codes) {
    using T = typename std::decay_t<decltype(codes)>::value_type;
    return std::is_same_v<T, C>;
  });
}

template <typename T>
void ExpectForRoundTrip(const std::vector<T>& vals) {
  EncodingPtr enc = ColumnEncoding::TryFor<T>(vals);
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->kind(), ColumnEncoding::Kind::kFor);
  EXPECT_EQ(enc->size(), vals.size());
  std::vector<T> back;
  enc->DecodeTo(&back);
  EXPECT_EQ(back, vals);
}

TEST(ForEncodingTest, RoundTripWithNils) {
  Rng rng(101);
  std::vector<int32_t> vals;
  for (int i = 0; i < 5000; ++i) {
    vals.push_back(rng.Uniform(16) == 0
                       ? NilOf<int32_t>()
                       : static_cast<int32_t>(rng.Uniform(200)) + 1000000);
  }
  ExpectForRoundTrip(vals);
}

TEST(ForEncodingTest, NegativeRangeRoundTrip) {
  std::vector<int32_t> vals{-500, -499, NilOf<int32_t>(), -300, -450};
  ExpectForRoundTrip(vals);
  // Range spanning zero.
  ExpectForRoundTrip(std::vector<int32_t>{-100, 0, 100, NilOf<int32_t>()});
}

TEST(ForEncodingTest, EmptyAndAllNilInputs) {
  ExpectForRoundTrip(std::vector<int32_t>{});
  ExpectForRoundTrip(std::vector<int32_t>(7, NilOf<int32_t>()));
  ExpectForRoundTrip(std::vector<int64_t>{42});  // single value, range 0
}

TEST(ForEncodingTest, WidthAdaptsToValueRange) {
  // Range 0..200 fits u8; 254 is the largest non-nil u8 code.
  auto u8 = ColumnEncoding::TryFor<int32_t>({1000, 1200, 1254});
  ASSERT_NE(u8, nullptr);
  EXPECT_TRUE(HoldsWidth<uint8_t>(*u8));
  // Range 255 exceeds the u8 code space (max is reserved for nil) -> u16.
  auto u16 = ColumnEncoding::TryFor<int32_t>({0, 255});
  ASSERT_NE(u16, nullptr);
  EXPECT_TRUE(HoldsWidth<uint16_t>(*u16));
  // Range 65535 -> u32, but only for 64-bit values; an int32 gains nothing.
  auto u32 = ColumnEncoding::TryFor<int64_t>({0, 65535 + 1});
  ASSERT_NE(u32, nullptr);
  EXPECT_TRUE(HoldsWidth<uint32_t>(*u32));
}

TEST(ForEncodingTest, RefusesWhenNoNarrowerWidthFits) {
  // int32 range needing 32-bit codes: u8/u16 don't fit and u32 is not
  // narrower than the raw storage.
  EXPECT_EQ(ColumnEncoding::TryFor<int32_t>({0, 1 << 20}), nullptr);
  // int64 range needing full 64 bits.
  EXPECT_EQ(ColumnEncoding::TryFor<int64_t>({0, 1ll << 40}), nullptr);
}

TEST(ForEncodingTest, RefusesOidsInReservedTopHalf) {
  // Oids >= 2^63 would wrap through the signed base.
  std::vector<Oid> vals{1, 2, 1ull << 63};
  EXPECT_EQ(ColumnEncoding::TryFor<Oid>(vals), nullptr);
  // Just below the boundary is fine if the range is narrow.
  std::vector<Oid> ok{(1ull << 63) - 10, (1ull << 63) - 1 - 1};
  auto enc = ColumnEncoding::TryFor<Oid>(ok);
  ASSERT_NE(enc, nullptr);
  std::vector<Oid> back;
  enc->DecodeTo(&back);
  EXPECT_EQ(back, ok);
}

TEST(ForEncodingTest, SavingsAccounting) {
  std::vector<int64_t> vals(1000, 7);
  auto enc = ColumnEncoding::TryFor<int64_t>(vals);
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->RawBytes(), 1000 * sizeof(int64_t));
  EXPECT_LT(enc->MemoryBytes(), enc->RawBytes());
}

TEST(DictEncodingTest, RoundTrip) {
  Rng rng(102);
  std::vector<std::string> dict_vals{"MAIL", "SHIP", "TRUCK", "RAIL", ""};
  std::vector<std::string> vals;
  for (int i = 0; i < 3000; ++i) vals.push_back(dict_vals[rng.Uniform(5)]);
  auto enc = ColumnEncoding::TryDict(vals);
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->kind(), ColumnEncoding::Kind::kDict);
  EXPECT_TRUE(HoldsWidth<uint8_t>(*enc));
  EXPECT_EQ(enc->dict().size(), 5u);
  std::vector<std::string> back;
  enc->DecodeStrings(&back);
  EXPECT_EQ(back, vals);
}

TEST(DictEncodingTest, DictionaryKeepsFirstOccurrenceOrder) {
  auto enc = ColumnEncoding::TryDict({"b", "a", "b", "c", "a"});
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->dict(), (std::vector<std::string>{"b", "a", "c"}));
}

TEST(DictEncodingTest, RefusesHighCardinality) {
  std::vector<std::string> vals;
  for (int i = 0; i < 100; ++i) vals.push_back("v" + std::to_string(i));
  EXPECT_EQ(ColumnEncoding::TryDict(vals, /*max_distinct=*/50), nullptr);
  EXPECT_NE(ColumnEncoding::TryDict(vals, /*max_distinct=*/100), nullptr);
}

TEST(DictEncodingTest, WidePathUsesU16) {
  std::vector<std::string> vals;
  for (int i = 0; i < 300; ++i) vals.push_back("v" + std::to_string(i));
  auto enc = ColumnEncoding::TryDict(vals);
  ASSERT_NE(enc, nullptr);
  EXPECT_TRUE(HoldsWidth<uint16_t>(*enc));
  std::vector<std::string> back;
  enc->DecodeStrings(&back);
  EXPECT_EQ(back, vals);
}

TEST(GatherTest, ForGatherDecodesSelectedPositions) {
  std::vector<int32_t> vals{10, 20, NilOf<int32_t>(), 40, 50};
  auto enc = ColumnEncoding::TryFor<int32_t>(vals);
  ASSERT_NE(enc, nullptr);
  auto sub = ColumnEncoding::Gather(*enc, /*offset=*/1, {0, 1, 3});
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->base(), enc->base());
  std::vector<int32_t> back;
  sub->DecodeTo(&back);
  EXPECT_EQ(back, (std::vector<int32_t>{20, NilOf<int32_t>(), 50}));
}

TEST(GatherTest, DictGatherSharesDictionaryAndChargesCodesOnly) {
  std::vector<std::string> vals{"aa", "bb", "aa", "cc"};
  auto enc = ColumnEncoding::TryDict(vals);
  ASSERT_NE(enc, nullptr);
  auto sub = ColumnEncoding::Gather(*enc, 0, {3, 0});
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->shared_dict().get(), enc->shared_dict().get())
      << "gather must share, not copy, the source dictionary";
  // The shared dictionary is charged once, to the encoding that owns it.
  EXPECT_LT(sub->MemoryBytes(), enc->MemoryBytes());
  std::vector<std::string> back;
  sub->DecodeStrings(&back);
  EXPECT_EQ(back, (std::vector<std::string>{"cc", "aa"}));
}

TEST(GatherTest, DenseGathersEncodeOnlyInsideAScope) {
  const BatSide dense = BatSide::Dense(1000);
  const engine::SelVector sel{1, 5, 9, 200};
  const std::vector<Oid> want{1001, 1005, 1009, 1200};
  EXPECT_FALSE(engine::TakeSide(dense, 0, sel).col->encoded_native());
  {
    engine::EncodedGatherScope encoded(true);
    BatSide s = engine::TakeSide(dense, 0, sel);
    ASSERT_TRUE(s.col->encoded_native());
    EXPECT_EQ(s.col->Data<Oid>(), want);
    {
      engine::EncodedGatherScope raw(false);
      EXPECT_FALSE(engine::TakeSide(dense, 0, sel).col->encoded_native());
    }
    EXPECT_TRUE(engine::TakeSide(dense, 0, sel).col->encoded_native())
        << "an inner scope must restore the outer state on exit";
  }
  EXPECT_FALSE(engine::TakeSide(dense, 0, sel).col->encoded_native());
}

// --- encoded-native columns (lazy decode) -----------------------------------

TEST(EncodedColumnTest, LazyDecodeIsValueCorrectAndBytesStable) {
  std::vector<int32_t> vals{100, NilOf<int32_t>(), 103, 101};
  auto enc = ColumnEncoding::TryFor<int32_t>(vals);
  ASSERT_NE(enc, nullptr);
  auto col = Column::MakeEncoded(TypeTag::kInt, enc);
  EXPECT_TRUE(col->encoded_native());
  EXPECT_EQ(col->size(), vals.size());
  size_t bytes_before = col->MemoryBytes();
  EXPECT_EQ(bytes_before, enc->MemoryBytes());

  // GetScalar and Data both observe decoded values.
  EXPECT_EQ(col->GetScalar(0).AsInt(), 100);
  EXPECT_TRUE(col->GetScalar(1).is_nil());
  EXPECT_EQ(col->Data<int32_t>(), vals);

  // Pool byte attribution must not shift when an entry decodes under a
  // live recycler: MemoryBytes() stays the encoded size.
  EXPECT_EQ(col->MemoryBytes(), bytes_before);
}

TEST(EncodedColumnTest, ConcurrentDecodeIsSafe) {
  Rng rng(103);
  std::vector<int64_t> vals;
  for (int i = 0; i < 20000; ++i)
    vals.push_back(static_cast<int64_t>(rng.Uniform(1000)));
  auto enc = ColumnEncoding::TryFor<int64_t>(vals);
  ASSERT_NE(enc, nullptr);
  auto col = Column::MakeEncoded(TypeTag::kLng, enc);

  std::vector<std::thread> threads;
  std::vector<int64_t> sums(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<int64_t>& data = col->Data<int64_t>();
      for (int64_t v : data) sums[t] += v;
    });
  }
  for (auto& th : threads) th.join();
  int64_t expect = 0;
  for (int64_t v : vals) expect += v;
  for (int t = 0; t < 8; ++t) EXPECT_EQ(sums[t], expect);
}

TEST(EncodedColumnTest, SortedDetectionDecodesTransparently) {
  std::vector<int32_t> vals{1, 2, 3, 9};
  auto col = Column::MakeEncoded(TypeTag::kInt,
                                 ColumnEncoding::TryFor<int32_t>(vals));
  ASSERT_NE(col, nullptr);
  col->ComputeSorted();
  EXPECT_TRUE(col->sorted());
}

}  // namespace
}  // namespace recycledb
