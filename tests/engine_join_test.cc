#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "engine/operators.h"

namespace recycledb {
namespace {

using engine::AntiSemijoin;
using engine::Join;
using engine::Semijoin;

BatPtr OidBat(std::vector<Oid> v) {
  return Bat::DenseHead(Column::Make(TypeTag::kOid, std::move(v)));
}

BatPtr IntBat(std::vector<int32_t> v) {
  return Bat::DenseHead(Column::Make(TypeTag::kInt, std::move(v)));
}

// [oid-col -> int-col] bat with explicit heads.
BatPtr HeadedBat(std::vector<Oid> heads, std::vector<int32_t> tails) {
  auto h = Column::Make(TypeTag::kOid, std::move(heads));
  auto t = Column::Make(TypeTag::kInt, std::move(tails));
  size_t n = h->size();
  return Bat::Make(BatSide::Materialized(h), BatSide::Materialized(t), n);
}

TEST(JoinTest, PositionalFetchJoin) {
  // l: [oid -> row positions], r: persistent column [dense -> value].
  auto l = OidBat({2, 0, 3});
  auto r = IntBat({10, 20, 30, 40});
  auto j = Join(l, r).ValueOrDie();
  ASSERT_EQ(j->size(), 3u);
  EXPECT_EQ(j->TailAt(0), Scalar::Int(30));
  EXPECT_EQ(j->TailAt(1), Scalar::Int(10));
  EXPECT_EQ(j->TailAt(2), Scalar::Int(40));
  EXPECT_EQ(j->HeadAt(0), Scalar::OidVal(0));

  // A sorted r tail gathered at the non-increasing positions is unsorted.
  auto sorted_tail =
      Column::Make(TypeTag::kInt, std::vector<int32_t>{10, 20, 30, 40});
  sorted_tail->set_sorted(true);
  auto s = Join(l, Bat::DenseHead(sorted_tail)).ValueOrDie();
  ASSERT_EQ(s->size(), 3u);
  EXPECT_EQ(s->TailAt(0), Scalar::Int(30));
  EXPECT_EQ(s->TailAt(1), Scalar::Int(10));
  EXPECT_EQ(s->TailAt(2), Scalar::Int(40));
  EXPECT_FALSE(s->tail().col->sorted());

  // Over a dense r tail the same positions gather oids: neither sorted nor
  // flagged key.
  auto d = Join(l, Bat::DenseDense(0, 100, 4)).ValueOrDie();
  ASSERT_EQ(d->size(), 3u);
  EXPECT_EQ(d->TailAt(0), Scalar::OidVal(102));
  EXPECT_EQ(d->TailAt(1), Scalar::OidVal(100));
  EXPECT_EQ(d->TailAt(2), Scalar::OidVal(103));
  ASSERT_FALSE(d->tail().dense());
  EXPECT_FALSE(d->tail().col->sorted());
  EXPECT_FALSE(d->tail().col->key());
}

TEST(JoinTest, PositionalOutOfRangeDropped) {
  // One nil and one out-of-range oid: the general loop drops both pairs
  // and gathers the heads of the kept ones.
  auto l = OidBat({1, 9, kNilOid});
  auto r = IntBat({10, 20});
  auto j = Join(l, r).ValueOrDie();
  ASSERT_EQ(j->size(), 1u);
  EXPECT_EQ(j->TailAt(0), Scalar::Int(20));
  ASSERT_FALSE(j->head().dense());
  EXPECT_TRUE(j->head().col->key());
  EXPECT_EQ(j->HeadAt(0), Scalar::OidVal(0));
}

// [dense(hseq) -> oid-col] bat: the shape a fetch gets after Rebase.
BatPtr DenseOidBat(Oid hseq, std::vector<Oid> v) {
  return Bat::DenseHead(Column::Make(TypeTag::kOid, std::move(v)), hseq);
}

// Values, and the gathered tail's sorted/key flags, of two fetch results.
void ExpectSameFetch(const BatPtr& got, const BatPtr& want) {
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ(got->HeadAt(i), want->HeadAt(i)) << i;
    EXPECT_EQ(got->TailAt(i), want->TailAt(i)) << i;
  }
  EXPECT_EQ(got->tail().col->sorted(), want->tail().col->sorted());
  EXPECT_EQ(got->tail().col->key(), want->tail().col->key());
}

TEST(JoinTest, InRangeFetchKeepsDenseHead) {
  auto l = DenseOidBat(3, {2, 0, 3});
  auto r = IntBat({10, 20, 30, 40});
  auto j = Join(l, r).ValueOrDie();
  ASSERT_EQ(j->size(), 3u);
  ASSERT_TRUE(j->head().dense());
  EXPECT_EQ(j->HeadAt(0), Scalar::OidVal(3));
  EXPECT_EQ(j->HeadAt(2), Scalar::OidVal(5));
  EXPECT_EQ(j->TailAt(0), Scalar::Int(30));
  EXPECT_EQ(j->TailAt(1), Scalar::Int(10));
  EXPECT_EQ(j->TailAt(2), Scalar::Int(40));
  EXPECT_EQ(j->MemoryBytes(), j->tail().col->MemoryBytes())
      << "a dense head charges nothing";
}

TEST(JoinTest, InRangeFetchSharesHeadAndMatchesGeneralPath) {
  // r: a dense head at seq 10 over a sorted and an unsorted int tail.
  constexpr Oid kSeq = 10;
  auto sorted_col = Column::Make(
      TypeTag::kInt, std::vector<int32_t>{1, 2, 3, 5, 8, 13, 21, 34});
  sorted_col->set_sorted(true);
  auto unsorted_col =
      Column::Make(TypeTag::kInt, std::vector<int32_t>{9, 4, 7, 1, 8, 2, 6, 3});
  const Oid rn = sorted_col->size();
  const std::vector<std::vector<Oid>> inputs{
      {10, 11, 13, 14, 17},         // increasing
      {14, 10, 17, 13, 11},         // shuffled
      {10, 11, 11, 13, 17},         // equal neighbours
      {17, 14, 13, 11, 10},         // decreasing
      {10, 11, kNilOid, 14, 17},    // one nil
      {kSeq - 1, 11, 13, 14, 17},   // one just below r's head
      {10, 11, 13, 14, kSeq + rn},  // one just past it
  };
  for (const auto& rcol : {sorted_col, unsorted_col}) {
    auto r = Bat::DenseHead(rcol, kSeq);
    for (const std::vector<Oid>& vals : inputs) {
      const size_t n = vals.size();
      for (size_t off : {size_t{0}, size_t{2}}) {
        // Heads and tails live at [off, off+n) of their columns; the pair
        // at off+n holds an out-of-range oid, so the bat one row longer
        // takes the general loop, which drops exactly that pair.
        std::vector<Oid> heads(off, 0), tails(off, 0);
        for (size_t i = 0; i < n; ++i) {
          heads.push_back(500 + 3 * i);
          tails.push_back(vals[i]);
        }
        heads.push_back(999);
        tails.push_back(99);
        auto hcol = Column::Make(TypeTag::kOid, heads);
        hcol->set_sorted(true);
        auto tcol = Column::Make(TypeTag::kOid, tails);
        auto fast = Join(Bat::Make(BatSide::Materialized(hcol, off),
                                   BatSide::Materialized(tcol, off), n),
                         r)
                        .ValueOrDie();
        auto general = Join(Bat::Make(BatSide::Materialized(hcol, off),
                                      BatSide::Materialized(tcol, off), n + 1),
                            r)
                           .ValueOrDie();
        // The pairs a fetch keeps: those whose oid lies in [kSeq, kSeq+rn).
        std::vector<Oid> kept;
        for (size_t i = 0; i < n; ++i) {
          if (vals[i] != kNilOid && vals[i] >= kSeq && vals[i] < kSeq + rn) {
            EXPECT_EQ(fast->HeadAt(kept.size()), Scalar::OidVal(500 + 3 * i));
            EXPECT_EQ(fast->TailAt(kept.size()),
                      rcol->GetScalar(vals[i] - kSeq));
            kept.push_back(vals[i]);
          }
        }
        ASSERT_EQ(fast->size(), kept.size());
        if (kept.size() == n) {
          EXPECT_EQ(fast->head().col, hcol) << "head shared, not copied";
          EXPECT_EQ(fast->head().offset, off);
        } else {
          EXPECT_NE(fast->head().col, hcol);
        }
        EXPECT_NE(general->head().col, hcol);
        ExpectSameFetch(fast, general);
        const bool increasing =
            std::adjacent_find(kept.begin(), kept.end(),
                               std::greater_equal<Oid>()) == kept.end();
        EXPECT_EQ(fast->tail().col->sorted(), rcol == sorted_col && increasing);
      }
    }
  }
}

TEST(JoinTest, DenseDenseWindow) {
  // l tail values 5..14, r head 8..19: overlap 8..14.
  auto l = Bat::DenseDense(0, 5, 10);
  auto r = Bat::Make(BatSide::Dense(8),
                     BatSide::Materialized(Column::Make(
                         TypeTag::kInt, std::vector<int32_t>(12, 7))),
                     12);
  auto j = Join(l, r).ValueOrDie();
  EXPECT_EQ(j->size(), 7u);
  EXPECT_EQ(j->HeadAt(0), Scalar::OidVal(3));  // l pair whose tail is 8
  EXPECT_EQ(j->MemoryBytes(), 0u) << "dense-dense join is a view";
}

TEST(JoinTest, HashJoinWithDuplicates) {
  // r has a materialised non-dense head: hash path.
  auto r = HeadedBat({5, 7, 5}, {50, 70, 51});
  auto l = Bat::Make(BatSide::Dense(0),
                     BatSide::Materialized(Column::Make(
                         TypeTag::kOid, std::vector<Oid>{7, 5, 6})),
                     3);
  auto j = Join(l, r).ValueOrDie();
  // l[0]=7 matches one; l[1]=5 matches two; l[2]=6 none.
  ASSERT_EQ(j->size(), 3u);
  EXPECT_EQ(j->TailAt(0), Scalar::Int(70));
  // matches for 5 in reverse insertion order (hash chain), both present
  std::vector<int32_t> fives{j->TailAt(1).AsInt(), j->TailAt(2).AsInt()};
  std::sort(fives.begin(), fives.end());
  EXPECT_EQ(fives, (std::vector<int32_t>{50, 51}));
}

TEST(JoinTest, StringKeys) {
  auto r = Bat::Make(BatSide::Materialized(Column::Make(
                         TypeTag::kStr, std::vector<std::string>{"a", "b"})),
                     BatSide::Materialized(Column::Make(
                         TypeTag::kInt, std::vector<int32_t>{1, 2})),
                     2);
  auto l =
      Bat::Make(BatSide::Dense(0),
                BatSide::Materialized(Column::Make(
                    TypeTag::kStr, std::vector<std::string>{"b", "c", "a"})),
                3);
  auto j = Join(l, r).ValueOrDie();
  ASSERT_EQ(j->size(), 2u);
  EXPECT_EQ(j->TailAt(0), Scalar::Int(2));
  EXPECT_EQ(j->TailAt(1), Scalar::Int(1));
}

TEST(JoinTest, TypeMismatchRejected) {
  auto l = IntBat({1});
  auto r = Bat::Make(BatSide::Materialized(Column::Make(
                         TypeTag::kStr, std::vector<std::string>{"x"})),
                     BatSide::Dense(0), 1);
  EXPECT_FALSE(Join(l, r).ok());
}

TEST(SemijoinTest, HashPath) {
  auto l = HeadedBat({1, 2, 3, 4}, {10, 20, 30, 40});
  auto r = HeadedBat({2, 4, 9}, {0, 0, 0});
  auto s = Semijoin(l, r).ValueOrDie();
  ASSERT_EQ(s->size(), 2u);
  EXPECT_EQ(s->HeadAt(0), Scalar::OidVal(2));
  EXPECT_EQ(s->TailAt(0), Scalar::Int(20));
  EXPECT_EQ(s->HeadAt(1), Scalar::OidVal(4));
}

TEST(SemijoinTest, DenseLeftBitmapMatchesHashPath) {
  // l: heads seq, seq+1, ... (seq 0 and an offset seq 100); tails are a
  // view at offset 1 of a larger column.
  auto ltail = Column::Make(TypeTag::kInt,
                            std::vector<int32_t>{-1, 10, 11, 12, 13, 14, 15});
  const size_t ln = 6;
  const std::vector<std::vector<Oid>> rheads_cases = {
      {},                          // empty r
      {3, 1, 3, 5, 1},             // duplicates, unsorted
      {kNilOid, 2, kNilOid},       // nils
      {7, 99, 0, 4, kNilOid - 1},  // out of range above
      {0, 1, 2, 3, 4, 5},          // every row
  };
  for (Oid seq : {Oid{0}, Oid{100}}) {
    std::vector<Oid> heads;
    for (size_t i = 0; i < ln; ++i) heads.push_back(seq + i);
    auto dense_l =
        Bat::Make(BatSide::Dense(seq), BatSide::Materialized(ltail, 1), ln);
    // The same pairs with a materialised head take HashSemijoin.
    auto hash_l =
        Bat::Make(BatSide::Materialized(Column::Make(TypeTag::kOid, heads)),
                  BatSide::Materialized(ltail, 1), ln);
    for (std::vector<Oid> rheads : rheads_cases) {
      for (Oid& h : rheads) {
        if (h != kNilOid && h != kNilOid - 1) h += seq;
      }
      if (seq > 0) rheads.push_back(seq - 1);  // out of range below
      std::vector<int32_t> rtails(rheads.size(), 0);
      auto r = HeadedBat(rheads, rtails);
      auto got = Semijoin(dense_l, r).ValueOrDie();
      auto want = Semijoin(hash_l, r).ValueOrDie();
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ(got->HeadAt(i), want->HeadAt(i)) << i;
        EXPECT_EQ(got->TailAt(i), want->TailAt(i)) << i;
      }
      EXPECT_TRUE(got->head().col->sorted());
      EXPECT_TRUE(got->head().col->key());
    }
  }
}

TEST(SemijoinTest, DenseDenseSlice) {
  auto l = Bat::DenseDense(5, 100, 10);  // heads 5..14
  auto r = Bat::DenseDense(8, 0, 4);     // heads 8..11
  auto s = Semijoin(l, r).ValueOrDie();
  EXPECT_EQ(s->size(), 4u);
  EXPECT_EQ(s->HeadAt(0), Scalar::OidVal(8));
  EXPECT_EQ(s->TailAt(0), Scalar::OidVal(103));
  EXPECT_EQ(s->MemoryBytes(), 0u);
}

TEST(SemijoinTest, SubsetSemantics) {
  // Paper §5.1: semijoin(X, W) ⊆ semijoin(X, V) when W ⊂ V.
  auto x = HeadedBat({1, 2, 3, 4, 5}, {1, 2, 3, 4, 5});
  auto v = HeadedBat({1, 2, 3, 4}, {0, 0, 0, 0});
  auto w = HeadedBat({2, 3}, {0, 0});
  auto sv = Semijoin(x, v).ValueOrDie();
  auto sw = Semijoin(x, w).ValueOrDie();
  auto sw2 = Semijoin(sv, w).ValueOrDie();  // rewritten execution
  ASSERT_EQ(sw->size(), sw2->size());
  for (size_t i = 0; i < sw->size(); ++i) {
    EXPECT_EQ(sw->HeadAt(i), sw2->HeadAt(i));
    EXPECT_EQ(sw->TailAt(i), sw2->TailAt(i));
  }
}

TEST(AntiSemijoinTest, Complement) {
  auto l = HeadedBat({1, 2, 3, 4}, {10, 20, 30, 40});
  auto r = HeadedBat({2, 4}, {0, 0});
  auto a = AntiSemijoin(l, r).ValueOrDie();
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ(a->HeadAt(0), Scalar::OidVal(1));
  EXPECT_EQ(a->HeadAt(1), Scalar::OidVal(3));
}

TEST(AntiSemijoinTest, PartitionProperty) {
  auto l = HeadedBat({1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6});
  auto r = HeadedBat({2, 5}, {0, 0});
  auto in = Semijoin(l, r).ValueOrDie();
  auto out = AntiSemijoin(l, r).ValueOrDie();
  EXPECT_EQ(in->size() + out->size(), l->size());
}

}  // namespace
}  // namespace recycledb
