#include <gtest/gtest.h>

#include "bat/bat.h"
#include "bat/hash_index.h"
#include "bat/scalar.h"

namespace recycledb {
namespace {

TEST(ScalarTest, TagsAndAccessors) {
  EXPECT_EQ(Scalar::Int(5).AsInt(), 5);
  EXPECT_EQ(Scalar::Lng(5).AsLng(), 5);
  EXPECT_DOUBLE_EQ(Scalar::Dbl(1.5).AsDbl(), 1.5);
  EXPECT_EQ(Scalar::Str("x").AsStr(), "x");
  EXPECT_EQ(Scalar::OidVal(9).AsOid(), 9u);
  EXPECT_TRUE(Scalar::Bit(true).AsBit());
}

TEST(ScalarTest, NilDetection) {
  EXPECT_TRUE(Scalar::Nil(TypeTag::kInt).is_nil());
  EXPECT_TRUE(Scalar::Nil(TypeTag::kDbl).is_nil());
  EXPECT_TRUE(Scalar::Nil(TypeTag::kStr).is_nil());
  EXPECT_FALSE(Scalar::Int(0).is_nil());
  EXPECT_FALSE(Scalar::Dbl(0).is_nil());
}

TEST(ScalarTest, EqualityDistinguishesTags) {
  EXPECT_EQ(Scalar::Int(5), Scalar::Int(5));
  EXPECT_NE(Scalar::Int(5), Scalar::Lng(5));
  EXPECT_NE(Scalar::Int(5), Scalar::Int(6));
  // Date and Int share physical storage but differ logically.
  EXPECT_NE(Scalar::Int(100), Scalar::DateVal(100));
}

TEST(ScalarTest, Compare) {
  EXPECT_LT(Scalar::Int(3).Compare(Scalar::Int(5)), 0);
  EXPECT_GT(Scalar::Str("b").Compare(Scalar::Str("a")), 0);
  EXPECT_EQ(Scalar::Dbl(2.0).Compare(Scalar::Dbl(2.0)), 0);
  // Nil sorts lowest.
  EXPECT_LT(Scalar::Nil(TypeTag::kInt).Compare(Scalar::Int(-1000)), 0);
}

TEST(ScalarTest, HashConsistentWithEquality) {
  EXPECT_EQ(Scalar::Int(5).Hash(), Scalar::Int(5).Hash());
  EXPECT_EQ(Scalar::Str("abc").Hash(), Scalar::Str("abc").Hash());
  EXPECT_NE(Scalar::Int(5).Hash(), Scalar::DateVal(5).Hash());
}

TEST(ScalarTest, ToString) {
  EXPECT_EQ(Scalar::Int(5).ToString(), "5");
  EXPECT_EQ(Scalar::Str("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Scalar::DateVal(DateFromYmd(1996, 7, 1)).ToString(), "1996-07-01");
  EXPECT_EQ(Scalar::Nil(TypeTag::kInt).ToString(), "nil");
}

TEST(ColumnTest, BasicProperties) {
  auto col = Column::Make(TypeTag::kInt, std::vector<int32_t>{3, 1, 2});
  EXPECT_EQ(col->type(), TypeTag::kInt);
  EXPECT_EQ(col->size(), 3u);
  EXPECT_FALSE(col->sorted());
  col->ComputeSorted();
  EXPECT_FALSE(col->sorted());
  auto sorted = Column::Make(TypeTag::kInt, std::vector<int32_t>{1, 2, 3});
  sorted->ComputeSorted();
  EXPECT_TRUE(sorted->sorted());
  EXPECT_TRUE(sorted->key()) << "strictly increasing values are distinct";
  auto ties = Column::Make(TypeTag::kInt, std::vector<int32_t>{1, 2, 2});
  ties->set_key(true);
  ties->ComputeSorted();
  EXPECT_TRUE(ties->sorted());
  EXPECT_FALSE(ties->key());
}

TEST(ColumnTest, MemoryBytes) {
  auto col = Column::Make(TypeTag::kLng, std::vector<int64_t>(100, 1));
  EXPECT_GE(col->MemoryBytes(), 100 * sizeof(int64_t));
  auto scol = Column::Make(TypeTag::kStr,
                           std::vector<std::string>{"aaaa", "bbbb", "aaaa"});
  // A string column charges its codes only; its deduplicated heap ("",
  // "aaaa", "bbbb") is shared and charged once, to its catalog column.
  EXPECT_EQ(scol->MemoryBytes(), 3 * sizeof(StrCode));
  EXPECT_EQ(scol->heap()->size(), 3u);
  EXPECT_GE(scol->heap()->MemoryBytes(), 8u);
}

TEST(ColumnTest, GetScalar) {
  auto col = Column::Make(TypeTag::kDate,
                          std::vector<int32_t>{DateFromYmd(1995, 1, 1)});
  EXPECT_EQ(col->GetScalar(0), Scalar::DateVal(DateFromYmd(1995, 1, 1)));
}

TEST(BatTest, DenseHeadLayout) {
  auto b = Bat::DenseHead(
      Column::Make(TypeTag::kInt, std::vector<int32_t>{10, 20, 30}));
  EXPECT_EQ(b->size(), 3u);
  EXPECT_TRUE(b->head().dense());
  EXPECT_EQ(b->HeadAt(0), Scalar::OidVal(0));
  EXPECT_EQ(b->HeadAt(2), Scalar::OidVal(2));
  EXPECT_EQ(b->TailAt(1), Scalar::Int(20));
}

TEST(BatTest, DenseDense) {
  auto b = Bat::DenseDense(5, 100, 4);
  EXPECT_EQ(b->HeadAt(0), Scalar::OidVal(5));
  EXPECT_EQ(b->TailAt(3), Scalar::OidVal(103));
}

TEST(BatTest, UniqueIds) {
  auto a = Bat::DenseDense(0, 0, 1);
  auto b = Bat::DenseDense(0, 0, 1);
  EXPECT_NE(a->id(), b->id());
}

TEST(BatTest, MemoryAccounting) {
  auto col = Column::Make(TypeTag::kLng, std::vector<int64_t>(1000, 7));
  auto owned = Bat::DenseHead(col);
  EXPECT_GE(owned->MemoryBytes(), 1000 * sizeof(int64_t));

  // A view over part of the column borrows storage: zero cost.
  auto view = Bat::Make(BatSide::Dense(10),
                        [&] {
                          BatSide s = BatSide::Materialized(col);
                          s.offset = 10;
                          return s;
                        }(),
                        100);
  EXPECT_EQ(view->MemoryBytes(), 0u);

  // Persistent columns are never counted.
  auto pcol = Column::Make(TypeTag::kLng, std::vector<int64_t>(1000, 7));
  pcol->set_persistent(true);
  EXPECT_EQ(Bat::DenseHead(pcol)->MemoryBytes(), 0u);
}

TEST(BatTest, MirrorSharedColumnCountedOnce) {
  auto col = Column::Make(TypeTag::kOid, std::vector<Oid>(100, 1));
  auto b = Bat::Make(BatSide::Materialized(col), BatSide::Materialized(col),
                     100);
  EXPECT_EQ(b->MemoryBytes(), col->MemoryBytes());
}

TEST(HashIndexTest, FindsAllDuplicates) {
  std::vector<int32_t> vals{5, 3, 5, 8, 5, 3};
  HashIndexT<int32_t> idx(vals.data(), vals.size());
  int count = 0;
  idx.ForEachMatch(5, [&](uint32_t p) {
    EXPECT_EQ(vals[p], 5);
    ++count;
  });
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(idx.Contains(8));
  EXPECT_FALSE(idx.Contains(9));
  EXPECT_EQ(idx.FindFirst(3), 1u);
}

TEST(HashIndexTest, SkipsNils) {
  std::vector<int32_t> vals{NilOf<int32_t>(), 1};
  HashIndexT<int32_t> idx(vals.data(), vals.size());
  EXPECT_FALSE(idx.Contains(NilOf<int32_t>()));
  EXPECT_TRUE(idx.Contains(1));
}

TEST(HashIndexTest, Strings) {
  std::vector<std::string> vals{"a", "b", "a", ""};
  HashIndexT<std::string> idx(vals.data(), vals.size());
  EXPECT_TRUE(idx.Contains("a"));
  EXPECT_FALSE(idx.Contains(""));  // empty string is the nil marker
  EXPECT_EQ(idx.FindFirst("b"), 1u);
}

TEST(HashIndexTest, EmptyInput) {
  HashIndexT<int64_t> idx(nullptr, 0);
  EXPECT_FALSE(idx.Contains(1));
}

}  // namespace
}  // namespace recycledb
