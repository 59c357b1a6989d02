#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/recycler.h"
#include "core/recycler_optimizer.h"
#include "core/subsumption.h"
#include "engine/operators.h"
#include "interp/interpreter.h"
#include "mal/plan_builder.h"
#include "testing/subsumption_oracle.h"
#include "util/rng.h"

namespace recycledb {
namespace {

// ---------------------------------------------------------------------------
// Range-algebra unit tests (the §5.1 subsumption conditions).
// ---------------------------------------------------------------------------

std::vector<MalValue> SelectArgs(int lo, int hi, bool li, bool hi_inc) {
  std::vector<MalValue> args;
  args.emplace_back(Scalar::Int(0));  // placeholder for the bat operand
  args.emplace_back(Scalar::Int(lo));
  args.emplace_back(Scalar::Int(hi));
  args.emplace_back(Scalar::Bit(li));
  args.emplace_back(Scalar::Bit(hi_inc));
  return args;
}

ValRange R(int lo, int hi, bool li = true, bool hi_inc = true) {
  return RangeOfSelect(SelectArgs(lo, hi, li, hi_inc));
}

ValRange Unbounded(bool lo_unbounded, int v, bool hi_unbounded) {
  std::vector<MalValue> args;
  args.emplace_back(Scalar::Int(0));
  args.emplace_back(lo_unbounded ? Scalar::Nil(TypeTag::kInt) : Scalar::Int(v));
  args.emplace_back(hi_unbounded ? Scalar::Nil(TypeTag::kInt) : Scalar::Int(v));
  args.emplace_back(Scalar::Bit(true));
  args.emplace_back(Scalar::Bit(true));
  return RangeOfSelect(args);
}

TEST(RangeTest, CoversBasics) {
  EXPECT_TRUE(RangeCovers(R(0, 10), R(2, 8)));
  EXPECT_TRUE(RangeCovers(R(0, 10), R(0, 10)));
  EXPECT_FALSE(RangeCovers(R(2, 8), R(0, 10)));
  EXPECT_FALSE(RangeCovers(R(0, 10), R(5, 15)));
}

TEST(RangeTest, CoversInclusivityEdges) {
  // [0,10) does not cover [0,10]
  EXPECT_FALSE(RangeCovers(R(0, 10, true, false), R(0, 10, true, true)));
  // [0,10] covers [0,10)
  EXPECT_TRUE(RangeCovers(R(0, 10, true, true), R(0, 10, true, false)));
  // (0,10] does not cover [0,10]
  EXPECT_FALSE(RangeCovers(R(0, 10, false, true), R(0, 10, true, true)));
}

TEST(RangeTest, UnboundedCoversEverything) {
  ValRange all = Unbounded(true, 0, true);
  EXPECT_TRUE(RangeCovers(all, R(-100, 100)));
  EXPECT_FALSE(RangeCovers(R(-100, 100), all));
}

TEST(RangeTest, OverlapBasics) {
  EXPECT_TRUE(RangeOverlaps(R(0, 10), R(5, 15)));
  EXPECT_TRUE(RangeOverlaps(R(5, 15), R(0, 10)));
  EXPECT_FALSE(RangeOverlaps(R(0, 10), R(11, 20)));
  // touching endpoints share a point only when both sides are inclusive
  EXPECT_TRUE(RangeOverlaps(R(0, 10, true, true), R(10, 20, true, true)));
  EXPECT_FALSE(RangeOverlaps(R(0, 10, true, false), R(10, 20, true, true)));
  EXPECT_FALSE(RangeOverlaps(R(0, 10, true, false), R(10, 20, false, true)));
}

// ---------------------------------------------------------------------------
// End-to-end subsumption properties over random workloads.
// ---------------------------------------------------------------------------

std::unique_ptr<Catalog> Db(int rows, uint64_t seed) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"v", TypeTag::kInt}, {"s", TypeTag::kStr}});
  Rng rng(seed);
  std::vector<int32_t> v(rows);
  std::vector<std::string> s(rows);
  const char* kWords[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int i = 0; i < rows; ++i) {
    v[i] = static_cast<int32_t>(rng.UniformRange(0, 9999));
    s[i] = std::string(kWords[rng.Uniform(5)]) + "-" + kWords[rng.Uniform(5)];
  }
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "v", std::move(v)).ok());
  EXPECT_TRUE(cat->LoadColumn<std::string>("t", "s", std::move(s)).ok());
  return cat;
}

Program RangeTemplate() {
  PlanBuilder b("rsel");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  int v = b.Bind("t", "v");
  int sel = b.Select(v, lo, hi, true, true);
  b.ExportValue(b.AggrCount(sel), "n");
  b.ExportValue(b.AggrSum(sel), "sum");
  Program p = b.Build();
  MarkForRecycling(&p);
  return p;
}

class SubsumptionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubsumptionProperty, RandomRangesAlwaysAgreeWithDirectExecution) {
  auto cat1 = Db(5000, 1);
  auto cat2 = Db(5000, 1);
  Recycler rec;
  Interpreter recycled(cat1.get(), &rec);
  Interpreter plain(cat2.get());
  Program p = RangeTemplate();

  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    int lo = static_cast<int>(rng.UniformRange(0, 9000));
    int hi = lo + static_cast<int>(rng.UniformRange(0, 3000));
    std::vector<Scalar> params{Scalar::Int(lo), Scalar::Int(hi)};
    auto a = recycled.Run(p, params).ValueOrDie();
    auto b = plain.Run(p, params).ValueOrDie();
    ASSERT_EQ(a.Find("n")->scalar(), b.Find("n")->scalar())
        << "range [" << lo << "," << hi << "]";
    ASSERT_EQ(a.Find("sum")->scalar(), b.Find("sum")->scalar());
  }
  // With 60 overlapping random ranges, subsumption must have fired.
  EXPECT_GT(rec.stats().subsumed_hits + rec.stats().combined_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsumptionProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(LikeSubsumptionTest, ContainsPatternCoversRefinement) {
  auto cat = Db(5000, 2);
  Recycler rec;
  Interpreter interp(cat.get(), &rec);

  PlanBuilder b("likes");
  int pat = b.Param("A0");
  int s = b.Bind("t", "s");
  int sel = b.LikeSelect(s, pat);
  b.ExportValue(b.AggrCount(sel), "n");
  Program p = b.Build();
  MarkForRecycling(&p);

  // Wide pattern first, then a refinement whose guaranteed literal content
  // contains the wide literal.
  auto wide = interp.Run(p, {Scalar::Str("%alpha%")}).ValueOrDie();
  uint64_t before = rec.stats().subsumed_hits;
  auto narrow = interp.Run(p, {Scalar::Str("%alpha-beta%")}).ValueOrDie();
  EXPECT_GT(rec.stats().subsumed_hits, before);

  auto cat2 = Db(5000, 2);
  Interpreter plain(cat2.get());
  auto expect = plain.Run(p, {Scalar::Str("%alpha-beta%")}).ValueOrDie();
  EXPECT_EQ(narrow.Find("n")->scalar(), expect.Find("n")->scalar());
  (void)wide;
}

TEST(SemijoinSubsumptionTest, RewritesFromSupersetSemijoin) {
  // Build a scenario per §5.1: semijoin(X, V) cached, then semijoin(X, W)
  // where W was computed by select subsumption from V's select.
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("x", {{"k", TypeTag::kOid}, {"p", TypeTag::kInt}});
  cat->CreateTable("y", {{"k", TypeTag::kOid}, {"d", TypeTag::kInt}});
  Rng rng(3);
  std::vector<Oid> xk(4000), yk(2000);
  std::vector<int32_t> xp(4000), yd(2000);
  for (int i = 0; i < 4000; ++i) {
    xk[i] = rng.Uniform(3000);
    xp[i] = static_cast<int32_t>(rng.UniformRange(0, 100));
  }
  for (int i = 0; i < 2000; ++i) {
    yk[i] = i;
    yd[i] = static_cast<int32_t>(rng.UniformRange(0, 1000));
  }
  ASSERT_TRUE(cat->LoadColumn<Oid>("x", "k", std::move(xk)).ok());
  ASSERT_TRUE(cat->LoadColumn<int32_t>("x", "p", std::move(xp)).ok());
  ASSERT_TRUE(cat->LoadColumn<Oid>("y", "k", std::move(yk), true, true).ok());
  ASSERT_TRUE(cat->LoadColumn<int32_t>("y", "d", std::move(yd)).ok());

  PlanBuilder b("semi");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  int d = b.Bind("y", "d");
  int dsel = b.Select(d, lo, hi, true, true);  // [y row -> d]
  int xs = b.Reverse(b.Bind("x", "k"));        // [k -> x row]
  int semi = b.Semijoin(xs, dsel);             // x pairs whose k in sel
  b.ExportValue(b.AggrCount(semi), "n");
  Program p = b.Build();
  MarkForRecycling(&p);

  Recycler rec;
  Interpreter interp(cat.get(), &rec);
  // Wide range: caches select + semijoin.
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(100), Scalar::Int(900)}).ok());
  uint64_t sub0 = rec.stats().subsumed_hits;
  // Narrow range: the select is subsumed (W := subset of V), and then the
  // semijoin must be rewritten from the cached superset semijoin.
  auto got = interp.Run(p, {Scalar::Int(300), Scalar::Int(600)}).ValueOrDie();
  EXPECT_GE(rec.stats().subsumed_hits, sub0 + 2)
      << "both the select and the semijoin should subsume";

  Interpreter plain(cat.get());
  auto expect = plain.Run(p, {Scalar::Int(300), Scalar::Int(600)}).ValueOrDie();
  EXPECT_EQ(got.Find("n")->scalar(), expect.Find("n")->scalar());
}

TEST(CombinedSubsumptionTest, ThreeWayCover) {
  auto cat1 = Db(8000, 4);
  auto cat2 = Db(8000, 4);
  Recycler rec;
  Interpreter interp(cat1.get(), &rec);
  Interpreter plain(cat2.get());
  Program p = RangeTemplate();

  // Three partial ranges that only jointly cover [1000, 4000].
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(900), Scalar::Int(2100)}).ok());
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(2000), Scalar::Int(3100)}).ok());
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(3000), Scalar::Int(4100)}).ok());
  uint64_t ch0 = rec.stats().combined_hits;
  auto got = interp.Run(p, {Scalar::Int(1000), Scalar::Int(4000)}).ValueOrDie();
  EXPECT_GT(rec.stats().combined_hits, ch0);
  auto expect =
      plain.Run(p, {Scalar::Int(1000), Scalar::Int(4000)}).ValueOrDie();
  EXPECT_EQ(got.Find("n")->scalar(), expect.Find("n")->scalar());
  EXPECT_EQ(got.Find("sum")->scalar(), expect.Find("sum")->scalar());
}

TEST(CombinedSubsumptionTest, SemijoinOverCombinedResultKeepsEveryPiece) {
  // A combined select result is a subset of the union of its pieces, not
  // of each piece: a later semijoin over it must not be answered from the
  // cached semijoin over one piece.
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("x", {{"k", TypeTag::kOid}});
  cat->CreateTable("y", {{"k", TypeTag::kOid}, {"d", TypeTag::kInt}});
  Rng rng(17);
  std::vector<Oid> xk(4000), yk(2000);
  std::vector<int32_t> yd(2000);
  for (auto& k : xk) k = rng.Uniform(2000);
  for (int i = 0; i < 2000; ++i) {
    yk[i] = i;
    yd[i] = static_cast<int32_t>(rng.UniformRange(0, 1000));
  }
  ASSERT_TRUE(cat->LoadColumn<Oid>("x", "k", std::move(xk)).ok());
  ASSERT_TRUE(cat->LoadColumn<Oid>("y", "k", std::move(yk), true, true).ok());
  ASSERT_TRUE(cat->LoadColumn<int32_t>("y", "d", std::move(yd)).ok());

  PlanBuilder b("semi");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  int dsel = b.Select(b.Bind("y", "d"), lo, hi, true, true);
  int semi = b.Semijoin(b.Reverse(b.Bind("x", "k")), dsel);
  b.ExportValue(b.AggrCount(semi), "n");
  Program p = b.Build();
  MarkForRecycling(&p);

  Recycler rec;
  Interpreter interp(cat.get(), &rec);
  Interpreter plain(cat.get());
  // Two overlapping pieces, each cached with its semijoin.
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(100), Scalar::Int(300)}).ok());
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(250), Scalar::Int(450)}).ok());
  uint64_t ch0 = rec.stats().combined_hits;
  // Only the union of the pieces covers [150, 400].
  auto got = interp.Run(p, {Scalar::Int(150), Scalar::Int(400)}).ValueOrDie();
  EXPECT_GT(rec.stats().combined_hits, ch0);
  auto expect = plain.Run(p, {Scalar::Int(150), Scalar::Int(400)}).ValueOrDie();
  EXPECT_EQ(got.Find("n")->scalar(), expect.Find("n")->scalar());
}

TEST(CombinedSubsumptionTest, RejectedWhenCostExceedsBase) {
  // Covering intermediates that are nearly as large as the base column must
  // not be combined (the §5.2 cost model: C(S) < C(A)).
  auto cat = Db(2000, 5);
  Recycler rec;
  Interpreter interp(cat.get(), &rec);
  Program p = RangeTemplate();
  // Two huge overlapping ranges (~ the whole domain each).
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(0), Scalar::Int(9000)}).ok());
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(500), Scalar::Int(9999)}).ok());
  // Wait: the singleton path may still cover; pick a target neither covers
  // but whose combination costs ~2x the base size.
  uint64_t ch0 = rec.stats().combined_hits;
  double alg0 = rec.stats().subsume_alg_ms;
  ASSERT_TRUE(interp.Run(p, {Scalar::Int(200), Scalar::Int(9500)}).ok());
  EXPECT_EQ(rec.stats().combined_hits, ch0)
      << "combination costing more than the base scan must be rejected";
  // The rejected attempt still ran the DP, and its time is charged.
  EXPECT_GT(rec.stats().subsume_alg_ms, alg0);
  EXPECT_GT(rec.stats().max_subsume_alg_ms, 0.0);
}

// ---------------------------------------------------------------------------
// The combined-subsumption chain DP against the brute-force oracle.
// ---------------------------------------------------------------------------

constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

std::string Show(const ValRange& r) {
  std::string s = r.lo.inclusive ? "[" : "(";
  s += r.lo.unbounded ? "-inf" : r.lo.v.ToString();
  s += ",";
  s += r.hi.unbounded ? "+inf" : r.hi.v.ToString();
  return s + (r.hi.inclusive ? "]" : ")");
}

std::string Show(const ValRange& target, const std::vector<CoverCandidate>& r,
                 size_t base_rows) {
  std::string s = "target " + Show(target);
  s += ", base " + std::to_string(base_rows) + ", R:";
  for (const CoverCandidate& c : r) {
    s += " " + Show(c.range) + "x" + std::to_string(c.rows);
  }
  return s;
}

CoverCandidate Cand(ValRange range, size_t rows) { return {range, rows}; }

/// A non-empty range starting in [lo_min, lo_max], at most `width` wide,
/// over a small domain so that touching endpoints and equal bounds are
/// common. Each end is unbounded with probability 1/`unbounded_in`.
ValRange RandomRange(Rng* rng, int lo_min, int lo_max, int width,
                     int unbounded_in) {
  int a = static_cast<int>(rng->UniformRange(lo_min, lo_max));
  int b = a + static_cast<int>(rng->UniformRange(0, width));
  ValRange r = R(a, b, rng->Uniform(2) == 0, rng->Uniform(2) == 0);
  if (a == b) r.lo.inclusive = r.hi.inclusive = true;
  if (rng->Uniform(unbounded_in) == 0) {
    r.lo = {Scalar::Nil(TypeTag::kInt), true, true};
  }
  if (rng->Uniform(unbounded_in) == 0) {
    r.hi = {Scalar::Nil(TypeTag::kInt), true, true};
  }
  return r;
}

/// The sum of the chain's rows plus `overhead_rows`.
size_t ChainCost(const std::vector<CoverCandidate>& r,
                 const std::vector<size_t>& chain, size_t overhead_rows) {
  size_t cost = overhead_rows;
  for (size_t i : chain) cost += r[i].rows;
  return cost;
}

/// Asserts that the DP and the oracle take the same decision and, on
/// acceptance, find the same cost. Returns that cost, or nullopt.
std::optional<size_t> ExpectSameAsOracle(const ValRange& target,
                                         const std::vector<CoverCandidate>& r,
                                         size_t overhead_rows,
                                         size_t base_rows) {
  std::optional<size_t> want =
      oracle::BruteForceCoverCost(target, r, overhead_rows, base_rows);
  std::vector<size_t> chain =
      CheapestChainCover(target, r, overhead_rows, base_rows);
  EXPECT_EQ(!chain.empty(), want.has_value()) << Show(target, r, base_rows);
  if (chain.empty() || !want.has_value()) return std::nullopt;
  EXPECT_GE(chain.size(), 2u) << Show(target, r, base_rows);
  EXPECT_EQ(ChainCost(r, chain, overhead_rows), *want)
      << Show(target, r, base_rows);
  // Each member overlaps the previous one and reaches past its upper bound.
  for (size_t i = 1; i < chain.size(); ++i) {
    ValRange prev = r[chain[i - 1]].range;
    ValRange next = r[chain[i]].range;
    EXPECT_TRUE(RangeOverlaps(prev, next)) << Show(target, r, base_rows);
    prev.lo = next.lo;
    EXPECT_FALSE(RangeCovers(prev, next)) << Show(target, r, base_rows);
  }
  return want;
}

TEST(ChainCoverTest, TouchingEndpointsChainOnlyWhenBothInclusive) {
  for (bool hi_inc : {true, false}) {
    for (bool lo_inc : {true, false}) {
      std::vector<CoverCandidate> r = {Cand(R(0, 5, true, hi_inc), 3),
                                       Cand(R(5, 10, lo_inc, true), 4)};
      bool accepted = !CheapestChainCover(R(1, 9), r, 16, kUnlimited).empty();
      EXPECT_EQ(accepted, hi_inc && lo_inc) << Show(R(1, 9), r, kUnlimited);
      ExpectSameAsOracle(R(1, 9), r, 16, kUnlimited);
    }
  }
}

TEST(ChainCoverTest, UnboundedEnds) {
  ValRange below = Unbounded(true, 5, false);  // (-inf, 5]
  ValRange above = Unbounded(false, 3, true);  // [3, +inf)
  ValRange to_8 = Unbounded(true, 8, false);   // (-inf, 8]
  std::vector<CoverCandidate> r = {Cand(above, 7), Cand(below, 2)};
  for (const ValRange& target : {Unbounded(false, 0, true), to_8}) {
    EXPECT_EQ(CheapestChainCover(target, r, 16, kUnlimited),
              (std::vector<size_t>{1, 0}));
    EXPECT_EQ(ExpectSameAsOracle(target, r, 16, kUnlimited), 25u);
  }
  // Nothing reaches down to an unbounded lower end.
  r = {Cand(R(0, 5), 2), Cand(above, 7)};
  EXPECT_EQ(ExpectSameAsOracle(to_8, r, 16, kUnlimited), std::nullopt);
}

TEST(ChainCoverTest, EqualLowerBoundsAndZeroRows) {
  // Lower bounds at 0: [0,4] starts the cover, (0,6] cannot, and [0,4] with
  // (0,6] beats [0,6] on rows.
  std::vector<CoverCandidate> r = {Cand(R(0, 4), 5), Cand(R(0, 6), 9),
                                   Cand(R(5, 10), 3), Cand(R(0, 6, false), 1)};
  EXPECT_EQ(CheapestChainCover(R(0, 10), r, 16, kUnlimited),
            (std::vector<size_t>{0, 3, 2}));
  EXPECT_EQ(ExpectSameAsOracle(R(0, 10), r, 16, kUnlimited), 25u);
  // Zero-row candidates still pay the overhead.
  r = {Cand(R(0, 5), 0), Cand(R(5, 10), 0)};
  EXPECT_EQ(ExpectSameAsOracle(R(1, 9), r, 16, 17), 16u);
  EXPECT_EQ(ExpectSameAsOracle(R(1, 9), r, 16, 16), std::nullopt);
}

TEST(ChainCoverTest, GapAndExactBaseCostAreRejected) {
  std::vector<CoverCandidate> gap = {Cand(R(0, 3), 1), Cand(R(5, 10), 1)};
  EXPECT_TRUE(CheapestChainCover(R(1, 8), gap, 16, kUnlimited).empty());
  ExpectSameAsOracle(R(1, 8), gap, 16, kUnlimited);
  // C(S) < C(A): a cover costing exactly the base size is rejected.
  std::vector<CoverCandidate> r = {Cand(R(0, 5), 10), Cand(R(4, 10), 10)};
  EXPECT_TRUE(CheapestChainCover(R(1, 9), r, 16, 36).empty());
  EXPECT_EQ(CheapestChainCover(R(1, 9), r, 16, 37),
            (std::vector<size_t>{0, 1}));
}

TEST(ChainCoverTest, RandomSweepAgreesWithOracle) {
  Rng rng(20091);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    ValRange target = RandomRange(&rng, 0, 20, 20, 8);
    if (target.lo.unbounded && target.hi.unbounded) continue;
    // More than 16 candidates in a few trials (the oracle is exponential).
    size_t n = trial % 200 == 0 ? 17 : 2 + rng.Uniform(11);
    // As in TrySelect: each candidate overlaps the target, and none covers
    // it alone (the singleton path answers those).
    std::vector<CoverCandidate> r;
    for (size_t tries = 0; r.size() < n && tries < 8 * n; ++tries) {
      ValRange c = RandomRange(&rng, 0, 20, 20, 8);
      if (!RangeOverlaps(c, target) || RangeCovers(c, target)) continue;
      r.push_back(Cand(c, rng.Uniform(4) == 0 ? 0 : rng.UniformRange(1, 40)));
    }
    std::optional<size_t> cost = ExpectSameAsOracle(target, r, 16, kUnlimited);
    if (!cost.has_value()) {
      ++rejected;
      continue;
    }
    ++accepted;
    // The cheapest cover is rejected at exactly its cost, and accepted one
    // row above it.
    EXPECT_EQ(ExpectSameAsOracle(target, r, 16, *cost), std::nullopt);
    EXPECT_EQ(ExpectSameAsOracle(target, r, 16, *cost + 1), cost);
    ExpectSameAsOracle(target, r, 16, rng.UniformRange(16, 200));
    if (HasFailure()) break;
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

/// Sorted (head, tail) pairs of an [oid, int] bat.
std::vector<std::pair<int64_t, int64_t>> Pairs(const BatPtr& b) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (size_t i = 0; i < b->size(); ++i) {
    out.emplace_back(b->HeadAt(i).ToInt64(), b->TailAt(i).ToInt64());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MalValue> SelectArgsOver(const BatPtr& b, const ValRange& r) {
  return {b, r.lo.v, r.hi.v, Scalar::Bit(r.lo.inclusive),
          Scalar::Bit(r.hi.inclusive)};
}

BatPtr SelectOver(const BatPtr& b, const ValRange& r) {
  auto sel = engine::Select(b, r.lo.v, r.hi.v, r.lo.inclusive, r.hi.inclusive);
  return std::move(sel).ValueOrDie();
}

TEST(ChainCoverTest, RandomPoolsAgreeWithOracleAndBaseSelect) {
  // Values in [0, 30] except those = 3 (mod 7), so some ranges select no
  // rows, with duplicates.
  Rng rng(4242);
  std::vector<int32_t> vals;
  while (vals.size() < 600) {
    auto v = static_cast<int32_t>(rng.UniformRange(0, 30));
    if (v % 7 != 3) vals.push_back(v);
  }
  BatPtr base = Bat::DenseHead(Column::Make(TypeTag::kInt, std::move(vals)));
  const size_t base_rows = base->size();

  int combined = 0;
  int over_cap = 0;
  int exact_rejects = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ValRange target = RandomRange(&rng, 0, 20, 14, 32);
    if (target.lo.unbounded && target.hi.unbounded) continue;
    // Candidates start from just below the target to its upper end.
    int lo = target.lo.unbounded ? 0 : target.lo.v.AsInt();
    int hi = target.hi.unbounded ? 30 : target.hi.v.AsInt();
    RecyclePool pool;
    size_t n = trial % 4 == 0 ? 20 + rng.Uniform(12) : 2 + rng.Uniform(10);
    for (size_t i = 0; i < n; ++i) {
      PoolEntry e;
      e.op = Opcode::kSelect;
      e.args = SelectArgsOver(base, RandomRange(&rng, lo - 6, hi, 6, 32));
      e.results.emplace_back(SelectOver(base, RangeOfSelect(e.args)));
      e.result_rows = e.results[0].bat()->size();
      pool.Admit(std::move(e));
    }
    std::vector<MalValue> args = SelectArgsOver(base, target);
    SCOPED_TRACE("trial " + std::to_string(trial));

    // The oracle's view of R, capped as TryCombined caps it.
    std::vector<PoolEntry*> cands =
        pool.FindByOpAndFirstArg(Opcode::kSelect, base->id());
    bool singleton = false;
    std::vector<PoolEntry*> r_set;
    for (PoolEntry* c : cands) {
      ValRange cr = RangeOfSelect(c->args);
      singleton |= RangeCovers(cr, target);
      if (RangeOverlaps(cr, target)) r_set.push_back(c);
    }
    if (r_set.size() > 16) {
      ++over_cap;
      std::sort(r_set.begin(), r_set.end(), [](PoolEntry* a, PoolEntry* b) {
        return std::make_pair(a->result_rows, a->id) <
               std::make_pair(b->result_rows, b->id);
      });
      r_set.resize(16);
    }
    std::vector<CoverCandidate> r;
    for (PoolEntry* c : r_set) {
      r.push_back(Cand(RangeOfSelect(c->args), c->result_rows));
    }

    double ms = -1;
    SubsumptionEngine engine(&pool);
    std::optional<SubsumeOutcome> out =
        engine.TrySelect(Opcode::kSelect, args, kEpochLatest, &ms);
    if (out.has_value()) {
      EXPECT_EQ(Pairs(out->results[0].bat()), Pairs(SelectOver(base, target)));
    }
    if (singleton) {
      ASSERT_TRUE(out.has_value());
      EXPECT_FALSE(out->combined);
      EXPECT_EQ(ms, 0.0);
      continue;
    }
    EXPECT_GE(ms, 0.0);
    std::optional<size_t> want =
        oracle::BruteForceCoverCost(target, r, 16, base_rows);
    ASSERT_EQ(out.has_value(), want.has_value()) << Show(target, r, base_rows);
    if (out.has_value()) {
      ++combined;
      EXPECT_TRUE(out->combined);
      size_t cost = 16;
      for (PoolEntry* src : out->sources) cost += src->result_rows;
      EXPECT_EQ(cost, *want);
    }

    // With the overhead set so that the cheapest cover costs exactly the
    // base size, it is rejected; one row less, it is accepted.
    std::optional<size_t> rows =
        oracle::BruteForceCoverCost(target, r, 0, kUnlimited);
    if (!rows.has_value() || *rows >= base_rows) continue;
    SubsumptionEngine::Options opts;
    opts.overhead_rows = base_rows - *rows;
    out = SubsumptionEngine(&pool, opts).TrySelect(Opcode::kSelect, args);
    EXPECT_FALSE(out.has_value());
    ++exact_rejects;
    opts.overhead_rows = base_rows - *rows - 1;
    out = SubsumptionEngine(&pool, opts).TrySelect(Opcode::kSelect, args);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(Pairs(out->results[0].bat()), Pairs(SelectOver(base, target)));
    if (HasFailure()) break;
  }
  EXPECT_GT(combined, 30);
  EXPECT_GT(over_cap, 30);
  EXPECT_GT(exact_rejects, 30);
}

}  // namespace
}  // namespace recycledb
