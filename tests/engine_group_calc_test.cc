#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "engine/operators.h"

namespace recycledb {
namespace {

using engine::AggFn;
using engine::Aggr;
using engine::BinOp;
using engine::CalcBin;
using engine::CalcBinConst;
using engine::CalcCmp;
using engine::CalcConstBin;
using engine::CmpOp;
using engine::Concat;
using engine::GroupBy;
using engine::GroupedAggr;
using engine::Kunique;
using engine::MarkT;
using engine::Mirror;
using engine::Reverse;
using engine::Slice;
using engine::SortTail;
using engine::SubGroupBy;

BatPtr IntBat(std::vector<int32_t> v) {
  return Bat::DenseHead(Column::Make(TypeTag::kInt, std::move(v)));
}
BatPtr DblBat(std::vector<double> v) {
  return Bat::DenseHead(Column::Make(TypeTag::kDbl, std::move(v)));
}
BatPtr StrBat(std::vector<std::string> v) {
  return Bat::DenseHead(Column::Make(TypeTag::kStr, std::move(v)));
}

TEST(ViewpointTest, MarkTReverseMirrorAreZeroCost) {
  // Over a persistent (catalog) column, as in real plans: viewpoints own
  // nothing. (Over fresh intermediates the shared column is attributed once
  // by the recycle pool's per-column tracking instead.)
  auto col = Column::Make(TypeTag::kInt, std::vector<int32_t>{10, 20, 30});
  col->set_persistent(true);
  auto b = Bat::DenseHead(col);
  auto m = MarkT(b, 100);
  EXPECT_EQ(m->TailAt(0), Scalar::OidVal(100));
  EXPECT_EQ(m->TailAt(2), Scalar::OidVal(102));
  EXPECT_EQ(m->HeadAt(0), Scalar::OidVal(0));

  auto r = Reverse(b);
  EXPECT_EQ(r->HeadAt(1), Scalar::Int(20));
  EXPECT_EQ(r->TailAt(1), Scalar::OidVal(1));

  auto mi = Mirror(b);
  EXPECT_EQ(mi->TailAt(2), Scalar::OidVal(2));

  EXPECT_EQ(m->MemoryBytes(), 0u);
  EXPECT_EQ(r->MemoryBytes(), 0u);
  EXPECT_EQ(mi->MemoryBytes(), 0u);
}

TEST(ViewpointTest, ReverseRoundTrip) {
  auto b = IntBat({1, 2});
  auto rr = Reverse(Reverse(b));
  EXPECT_EQ(rr->HeadAt(0), b->HeadAt(0));
  EXPECT_EQ(rr->TailAt(0), b->TailAt(0));
}

TEST(ViewpointTest, SliceLimit) {
  auto b = IntBat({10, 20, 30, 40, 50});
  auto s = Slice(b, 1, 3).ValueOrDie();
  ASSERT_EQ(s->size(), 2u);
  EXPECT_EQ(s->TailAt(0), Scalar::Int(20));
  EXPECT_EQ(s->HeadAt(0), Scalar::OidVal(1));
  EXPECT_EQ(Slice(b, 3, 99).ValueOrDie()->size(), 2u);
  EXPECT_EQ(Slice(b, 9, 12).ValueOrDie()->size(), 0u);
}

TEST(KuniqueTest, FirstOccurrenceKept) {
  auto h = Column::Make(TypeTag::kOid, std::vector<Oid>{5, 3, 5, 7, 3});
  auto t = Column::Make(TypeTag::kInt, std::vector<int32_t>{1, 2, 3, 4, 5});
  auto b = Bat::Make(BatSide::Materialized(h), BatSide::Materialized(t), 5);
  auto u = Kunique(b).ValueOrDie();
  ASSERT_EQ(u->size(), 3u);
  EXPECT_EQ(u->HeadAt(0), Scalar::OidVal(5));
  EXPECT_EQ(u->HeadAt(1), Scalar::OidVal(3));
  EXPECT_EQ(u->HeadAt(2), Scalar::OidVal(7));

  // Many duplicates: 2000 rows over 97 values, first occurrences in the
  // order (i * 37) % 97 first produces them.
  std::vector<Oid> heads;
  std::vector<int32_t> tails;
  for (int i = 0; i < 2000; ++i) {
    heads.push_back(static_cast<Oid>((i * 37) % 97));
    tails.push_back(i);
  }
  auto many = Bat::Make(
      BatSide::Materialized(Column::Make(TypeTag::kOid, heads)),
      BatSide::Materialized(Column::Make(TypeTag::kInt, tails)), heads.size());
  auto mu = Kunique(many).ValueOrDie();
  ASSERT_EQ(mu->size(), 97u);
  for (size_t i = 0; i < 97; ++i) {
    EXPECT_EQ(mu->HeadAt(i), Scalar::OidVal(heads[i])) << i;
    EXPECT_EQ(mu->TailAt(i), Scalar::Int(static_cast<int32_t>(i))) << i;
  }
}

TEST(KuniqueTest, DenseHeadIsNoop) {
  auto b = IntBat({1, 1, 1});
  auto u = Kunique(b).ValueOrDie();
  EXPECT_EQ(u->id(), b->id());
}

TEST(GroupByTest, SingleKey) {
  auto keys = StrBat({"R", "A", "R", "N", "A"});
  auto g = GroupBy(keys).ValueOrDie();
  ASSERT_EQ(g.map->size(), 5u);
  ASSERT_EQ(g.reps->size(), 3u);
  // gids in first-seen order: R=0, A=1, N=2
  EXPECT_EQ(g.map->TailAt(0), Scalar::OidVal(0));
  EXPECT_EQ(g.map->TailAt(1), Scalar::OidVal(1));
  EXPECT_EQ(g.map->TailAt(2), Scalar::OidVal(0));
  EXPECT_EQ(g.map->TailAt(3), Scalar::OidVal(2));
  EXPECT_EQ(g.map->TailAt(4), Scalar::OidVal(1));
  // representatives: first row of each group
  EXPECT_EQ(g.reps->TailAt(0), Scalar::OidVal(0));
  EXPECT_EQ(g.reps->TailAt(1), Scalar::OidVal(1));
  EXPECT_EQ(g.reps->TailAt(2), Scalar::OidVal(3));
}

TEST(GroupByTest, RefinementMatchesCompositeKey) {
  auto k1 = StrBat({"R", "R", "A", "A", "R"});
  auto k2 = IntBat({1, 2, 1, 1, 1});
  auto g1 = GroupBy(k1).ValueOrDie();
  auto g2 = SubGroupBy(k2, g1.map).ValueOrDie();
  // composite groups: (R,1), (R,2), (A,1), (A,1), (R,1) -> 3 groups
  EXPECT_EQ(g2.reps->size(), 3u);
  EXPECT_EQ(g2.map->TailAt(0), g2.map->TailAt(4));
  EXPECT_EQ(g2.map->TailAt(2), g2.map->TailAt(3));
  EXPECT_NE(g2.map->TailAt(0), g2.map->TailAt(1));
}

TEST(GroupByTest, ManyStringGroupsKeepFirstOccurrenceOrder) {
  // 150 distinct strings, first seen in a scrambled order, then repeated.
  std::vector<std::string> keys;
  for (int i = 0; i < 600; ++i)
    keys.push_back("k" + std::to_string((i * 53) % 150));
  std::vector<int32_t> outer;
  for (int i = 0; i < 600; ++i) outer.push_back(i % 4);

  auto g = GroupBy(StrBat(keys)).ValueOrDie();
  auto sub = SubGroupBy(StrBat(keys), GroupBy(IntBat(outer)).ValueOrDie().map)
                 .ValueOrDie();
  // Expected gids: the rank of each key's (composite) first occurrence.
  std::unordered_map<std::string, Oid> gid, sub_gid;
  std::vector<Oid> reps, sub_reps;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (gid.try_emplace(keys[i], gid.size()).second) reps.push_back(i);
    std::string composite = std::to_string(outer[i]) + "/" + keys[i];
    if (sub_gid.try_emplace(composite, sub_gid.size()).second)
      sub_reps.push_back(i);
    EXPECT_EQ(g.map->TailAt(i), Scalar::OidVal(gid[keys[i]])) << i;
    EXPECT_EQ(sub.map->TailAt(i), Scalar::OidVal(sub_gid[composite])) << i;
  }
  ASSERT_EQ(gid.size(), 150u);
  ASSERT_EQ(sub_gid.size(), 300u);
  ASSERT_EQ(g.reps->size(), reps.size());
  for (size_t k = 0; k < reps.size(); ++k)
    EXPECT_EQ(g.reps->TailAt(k), Scalar::OidVal(reps[k]));
  ASSERT_EQ(sub.reps->size(), sub_reps.size());
  for (size_t k = 0; k < sub_reps.size(); ++k)
    EXPECT_EQ(sub.reps->TailAt(k), Scalar::OidVal(sub_reps[k]));
}

TEST(GroupedAggrTest, SumCountMinMaxAvg) {
  auto vals = IntBat({1, 2, 3, 4, 5});
  auto keys = StrBat({"a", "b", "a", "b", "a"});
  auto g = GroupBy(keys).ValueOrDie();
  auto sum = GroupedAggr(AggFn::kSum, vals, g.map, 2).ValueOrDie();
  EXPECT_EQ(sum->TailAt(0), Scalar::Lng(9));   // 1+3+5
  EXPECT_EQ(sum->TailAt(1), Scalar::Lng(6));   // 2+4
  auto cnt = GroupedAggr(AggFn::kCount, vals, g.map, 2).ValueOrDie();
  EXPECT_EQ(cnt->TailAt(0), Scalar::Lng(3));
  auto mn = GroupedAggr(AggFn::kMin, vals, g.map, 2).ValueOrDie();
  EXPECT_EQ(mn->TailAt(0), Scalar::Int(1));
  auto mx = GroupedAggr(AggFn::kMax, vals, g.map, 2).ValueOrDie();
  EXPECT_EQ(mx->TailAt(1), Scalar::Int(4));
  auto avg = GroupedAggr(AggFn::kAvg, vals, g.map, 2).ValueOrDie();
  EXPECT_DOUBLE_EQ(avg->TailAt(0).AsDbl(), 3.0);
}

TEST(GroupedAggrTest, DoubleSums) {
  auto vals = DblBat({1.5, 2.5});
  auto keys = IntBat({7, 7});
  auto g = GroupBy(keys).ValueOrDie();
  auto sum = GroupedAggr(AggFn::kSum, vals, g.map, 1).ValueOrDie();
  EXPECT_DOUBLE_EQ(sum->TailAt(0).AsDbl(), 4.0);
}

TEST(AggrTest, Scalars) {
  auto b = IntBat({4, 2, 8});
  EXPECT_EQ(Aggr(AggFn::kCount, b).ValueOrDie(), Scalar::Lng(3));
  EXPECT_EQ(Aggr(AggFn::kSum, b).ValueOrDie(), Scalar::Lng(14));
  EXPECT_EQ(Aggr(AggFn::kMin, b).ValueOrDie(), Scalar::Int(2));
  EXPECT_EQ(Aggr(AggFn::kMax, b).ValueOrDie(), Scalar::Int(8));
  EXPECT_DOUBLE_EQ(Aggr(AggFn::kAvg, b).ValueOrDie().AsDbl(), 14.0 / 3.0);
}

TEST(AggrTest, EmptyAndNils) {
  auto empty = IntBat({});
  EXPECT_EQ(Aggr(AggFn::kCount, empty).ValueOrDie(), Scalar::Lng(0));
  EXPECT_TRUE(Aggr(AggFn::kMin, empty).ValueOrDie().is_nil());
  auto nils = IntBat({NilOf<int32_t>(), 5});
  EXPECT_EQ(Aggr(AggFn::kSum, nils).ValueOrDie(), Scalar::Lng(5));
}

TEST(AggrTest, StringMinMax) {
  auto b = StrBat({"pear", "apple", "plum"});
  EXPECT_EQ(Aggr(AggFn::kMin, b).ValueOrDie(), Scalar::Str("apple"));
  EXPECT_EQ(Aggr(AggFn::kMax, b).ValueOrDie(), Scalar::Str("plum"));
  EXPECT_FALSE(Aggr(AggFn::kSum, b).ok());
}

TEST(CalcTest, BatBatArithmetic) {
  auto l = DblBat({10, 20});
  auto r = DblBat({0.1, 0.2});
  auto m = CalcBin(BinOp::kMul, l, r).ValueOrDie();
  EXPECT_DOUBLE_EQ(m->TailAt(0).AsDbl(), 1.0);
  EXPECT_DOUBLE_EQ(m->TailAt(1).AsDbl(), 4.0);
}

TEST(CalcTest, IntStaysIntegral) {
  auto l = IntBat({7, 9});
  auto r = IntBat({2, 3});
  auto s = CalcBin(BinOp::kSub, l, r).ValueOrDie();
  EXPECT_EQ(s->TailAt(0), Scalar::Lng(5));
  // division always produces dbl
  auto d = CalcBin(BinOp::kDiv, l, r).ValueOrDie();
  EXPECT_DOUBLE_EQ(d->TailAt(0).AsDbl(), 3.5);
}

TEST(CalcTest, ConstOperands) {
  auto b = DblBat({0.05, 0.07});
  // 1 - l_discount, the classic TPC-H expression
  auto r = CalcConstBin(BinOp::kSub, Scalar::Dbl(1.0), b).ValueOrDie();
  EXPECT_DOUBLE_EQ(r->TailAt(0).AsDbl(), 0.95);
  auto r2 = CalcBinConst(BinOp::kMul, b, Scalar::Dbl(100)).ValueOrDie();
  EXPECT_DOUBLE_EQ(r2->TailAt(1).AsDbl(), 7.0);
}

TEST(CalcTest, NilPropagation) {
  auto l = IntBat({NilOf<int32_t>(), 5});
  auto r = IntBat({1, 1});
  auto s = CalcBin(BinOp::kAdd, l, r).ValueOrDie();
  EXPECT_TRUE(s->TailAt(0).is_nil());
  EXPECT_EQ(s->TailAt(1), Scalar::Lng(6));
}

TEST(CalcTest, MisalignedRejected) {
  EXPECT_FALSE(CalcBin(BinOp::kAdd, IntBat({1}), IntBat({1, 2})).ok());
}

TEST(CmpTest, AllOperators) {
  auto l = IntBat({1, 2, 3});
  auto r = IntBat({2, 2, 2});
  auto lt = CalcCmp(CmpOp::kLt, l, r).ValueOrDie();
  EXPECT_EQ(lt->TailAt(0), Scalar::Bit(true));
  EXPECT_EQ(lt->TailAt(1), Scalar::Bit(false));
  auto ge = CalcCmp(CmpOp::kGe, l, r).ValueOrDie();
  EXPECT_EQ(ge->TailAt(0), Scalar::Bit(false));
  EXPECT_EQ(ge->TailAt(2), Scalar::Bit(true));
  auto eq = CalcCmp(CmpOp::kEq, l, r).ValueOrDie();
  EXPECT_EQ(eq->TailAt(1), Scalar::Bit(true));
}

TEST(CmpTest, DateComparison) {
  auto commit = Bat::DenseHead(
      Column::Make(TypeTag::kDate, std::vector<int32_t>{100, 300}));
  auto receipt = Bat::DenseHead(
      Column::Make(TypeTag::kDate, std::vector<int32_t>{200, 250}));
  auto lt = CalcCmp(CmpOp::kLt, commit, receipt).ValueOrDie();
  EXPECT_EQ(lt->TailAt(0), Scalar::Bit(true));
  EXPECT_EQ(lt->TailAt(1), Scalar::Bit(false));
}

TEST(SortTest, SortsAndMarksSorted) {
  auto b = IntBat({5, 1, 9, 1});
  auto s = SortTail(b).ValueOrDie();
  EXPECT_EQ(s->TailAt(0), Scalar::Int(1));
  EXPECT_EQ(s->TailAt(3), Scalar::Int(9));
  EXPECT_TRUE(s->tail().col->sorted());
  // heads permuted along
  EXPECT_EQ(s->HeadAt(3), Scalar::OidVal(2));
}

TEST(SortTest, StableOnTies) {
  auto b = IntBat({2, 1, 2, 1});
  auto s = SortTail(b).ValueOrDie();
  EXPECT_EQ(s->HeadAt(0), Scalar::OidVal(1));
  EXPECT_EQ(s->HeadAt(1), Scalar::OidVal(3));
  EXPECT_EQ(s->HeadAt(2), Scalar::OidVal(0));
  EXPECT_EQ(s->HeadAt(3), Scalar::OidVal(2));
}

TEST(ConcatTest, AppendsInOrder) {
  auto a = IntBat({1, 2});
  auto b = IntBat({3});
  auto c = Concat({a, b}).ValueOrDie();
  ASSERT_EQ(c->size(), 3u);
  EXPECT_EQ(c->TailAt(2), Scalar::Int(3));
  EXPECT_EQ(c->HeadAt(2), Scalar::OidVal(0));  // heads concatenated too
}

TEST(ConcatTest, SingleInputShared) {
  auto a = IntBat({1});
  auto c = Concat({a}).ValueOrDie();
  EXPECT_EQ(c->id(), a->id());
}

}  // namespace
}  // namespace recycledb
