// Every string kernel against an element-at-a-time oracle over Scalars.
//
// Strings are codes into a shared, deduplicated heap, and the kernels take
// shortcuts on that layout: codes compare within one heap, other heaps are
// re-coded, grouping indexes a direct array by code. The oracle
// here reads every row back as a std::string (Bat::TailAt) and evaluates
// the operator's definition one row at a time, over generated columns
// with nils, duplicates, and heaps both smaller and larger than the bat.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bat/string_heap.h"
#include "engine/operators.h"
#include "util/rng.h"
#include "util/str.h"

namespace recycledb {
namespace {

using engine::AggFn;
using engine::CmpOp;

/// `n` strings over a vocabulary of `vocab` short words, nil with
/// probability `nil_p`. Words share prefixes ("ab", "abc") so that range
/// bounds and LIKE patterns cut through the middle of the domain.
std::vector<std::string> Strings(Rng* rng, size_t n, size_t vocab,
                                 double nil_p) {
  std::vector<std::string> out(n);
  for (auto& s : out) {
    if (rng->Bernoulli(nil_p)) continue;
    uint64_t w = rng->Uniform(vocab);
    s = std::string(1, static_cast<char>('a' + w % 3));
    for (w /= 3; w > 0; w /= 3) s += static_cast<char>('a' + w % 3);
  }
  return out;
}

BatPtr StrBat(std::vector<std::string> v) {
  return Bat::DenseHead(Column::Make(TypeTag::kStr, std::move(v)));
}

/// A view of `n` rows at `offset` of `col`: it shares the column's heap,
/// which may hold many more entries than the view has rows.
BatPtr View(const ColumnPtr& col, size_t offset, size_t n) {
  return Bat::Make(BatSide::Dense(0), BatSide::Materialized(col, offset), n);
}

std::string Str(const Scalar& s) { return s.AsStr(); }

std::vector<std::string> Tails(const BatPtr& b) {
  std::vector<std::string> out;
  for (size_t i = 0; i < b->size(); ++i) out.push_back(Str(b->TailAt(i)));
  return out;
}

std::vector<std::string> Heads(const BatPtr& b) {
  std::vector<std::string> out;
  for (size_t i = 0; i < b->size(); ++i) out.push_back(Str(b->HeadAt(i)));
  return out;
}

std::vector<Oid> HeadOids(const BatPtr& b) {
  std::vector<Oid> out;
  for (size_t i = 0; i < b->size(); ++i) out.push_back(b->HeadAt(i).AsOid());
  return out;
}

std::vector<Oid> TailOids(const BatPtr& b) {
  std::vector<Oid> out;
  for (size_t i = 0; i < b->size(); ++i) out.push_back(b->TailAt(i).AsOid());
  return out;
}

/// Rows of `b` (dense head) whose tail passes `pred`, as head oids.
template <typename Pred>
std::vector<Oid> OracleRows(const BatPtr& b, Pred pred) {
  std::vector<Oid> out;
  for (size_t i = 0; i < b->size(); ++i) {
    if (pred(Str(b->TailAt(i)))) out.push_back(b->HeadAt(i).AsOid());
  }
  return out;
}

/// The inputs every kernel runs over: a bat with its own small heap, and a
/// view whose heap is larger than the view (grouping hashes its codes).
struct Inputs {
  BatPtr small_heap;
  BatPtr large_heap;
};

Inputs MakeInputs(uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  in.small_heap = StrBat(Strings(&rng, 400, 12, 0.1));
  auto big = Column::Make(TypeTag::kStr, Strings(&rng, 3000, 2000, 0.1));
  in.large_heap = View(big, 1000, 40);
  EXPECT_LE(in.small_heap->tail().col->heap()->size(), 400u);
  EXPECT_GT(in.large_heap->tail().col->heap()->size(), 40u);
  return in;
}

class StringKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StringKernelTest, EqualityAndRangeSelects) {
  Inputs in = MakeInputs(GetParam());
  const std::vector<std::string> keys = {"a", "ab", "ba", "ccc", "zz", "b"};
  for (const BatPtr& b : {in.small_heap, in.large_heap}) {
    for (const std::string& k : keys) {
      auto equal = [&](const std::string& s) { return s == k; };
      auto unequal = [&](const std::string& s) { return !s.empty() && s != k; };
      auto eq = engine::Uselect(b, Scalar::Str(k)).ValueOrDie();
      EXPECT_EQ(HeadOids(eq), OracleRows(b, equal)) << "= " << k;
      auto ne = engine::AntiUselect(b, Scalar::Str(k)).ValueOrDie();
      EXPECT_EQ(HeadOids(ne), OracleRows(b, unequal)) << "<> " << k;
    }
    const Scalar unbounded = Scalar::Nil(TypeTag::kStr);
    for (const std::string& lo : keys) {
      for (const std::string& hi : keys) {
        for (int inc = 0; inc < 4; ++inc) {
          const bool lo_inc = inc & 1, hi_inc = inc & 2;
          auto in_range = [&](const std::string& s) {
            return !s.empty() && (lo_inc ? lo <= s : lo < s) &&
                   (hi_inc ? s <= hi : s < hi);
          };
          auto r = engine::Select(b, Scalar::Str(lo), Scalar::Str(hi), lo_inc,
                                  hi_inc);
          EXPECT_EQ(HeadOids(r.value()), OracleRows(b, in_range))
              << lo << ".." << hi << " inc " << inc;
        }
      }
      // One-sided: a nil bound is unbounded, and nils never qualify.
      auto at_least = [&](const std::string& s) {
        return !s.empty() && lo <= s;
      };
      auto ge = engine::Select(b, Scalar::Str(lo), unbounded, true, true);
      EXPECT_EQ(HeadOids(ge.value()), OracleRows(b, at_least));
    }
    auto not_nil = [](const std::string& s) { return !s.empty(); };
    auto nn = engine::SelectNotNil(b).ValueOrDie();
    EXPECT_EQ(HeadOids(nn), OracleRows(b, not_nil));
  }
}

TEST_P(StringKernelTest, LikeAndNotLike) {
  Inputs in = MakeInputs(GetParam());
  std::vector<std::string> patterns = {"a%", "%b", "%ab%", "_", "a_c", "%"};
  patterns.insert(patterns.end(), {"b_%", "ab", "%c_", "_%a", ""});
  for (const BatPtr& b : {in.small_heap, in.large_heap}) {
    for (const std::string& p : patterns) {
      auto matches = [&](const std::string& s) {
        return !s.empty() && LikeMatch(s, p);
      };
      auto misses = [&](const std::string& s) { return !matches(s); };
      auto like = engine::LikeSelect(b, p).ValueOrDie();
      EXPECT_EQ(HeadOids(like), OracleRows(b, matches)) << "like " << p;
      // NOT LIKE as the planner lowers it: the rows LIKE did not keep.
      auto not_like = engine::AntiSemijoin(b, like).ValueOrDie();
      EXPECT_EQ(HeadOids(not_like), OracleRows(b, misses)) << "not like " << p;
    }
  }
}

/// (l head, r tail) pairs of the join l.tail = r.head, sorted.
std::vector<std::pair<Oid, Oid>> JoinPairs(const BatPtr& j) {
  std::vector<std::pair<Oid, Oid>> out;
  for (size_t i = 0; i < j->size(); ++i)
    out.emplace_back(j->HeadAt(i).AsOid(), j->TailAt(i).AsOid());
  std::sort(out.begin(), out.end());
  return out;
}

/// `a op c` for non-nil strings; a nil operand compares false.
bool OracleCmp(CmpOp op, const std::string& a, const std::string& c) {
  if (a.empty() || c.empty()) return false;
  switch (op) {
    case CmpOp::kEq:
      return a == c;
    case CmpOp::kNe:
      return a != c;
    case CmpOp::kLt:
      return a < c;
    case CmpOp::kLe:
      return a <= c;
    case CmpOp::kGt:
      return a > c;
    case CmpOp::kGe:
      return a >= c;
  }
  return false;
}

void CheckJoins(const BatPtr& l, const BatPtr& r) {
  // join(l, reverse(r)): l.tail strings against r's strings as heads.
  BatPtr rr = engine::Reverse(r);
  auto j = engine::Join(l, rr).ValueOrDie();
  std::vector<std::pair<Oid, Oid>> want;
  for (size_t i = 0; i < l->size(); ++i) {
    for (size_t k = 0; k < r->size(); ++k) {
      const std::string a = Str(l->TailAt(i)), c = Str(r->TailAt(k));
      if (!a.empty() && a == c)
        want.emplace_back(l->HeadAt(i).AsOid(), r->HeadAt(k).AsOid());
    }
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(JoinPairs(j), want);

  // semijoin over string heads: rows of reverse(l) whose string occurs
  // among reverse(r)'s heads, in l's order; nil never matches.
  BatPtr lr = engine::Reverse(l);
  std::set<std::string> rset;
  for (size_t k = 0; k < r->size(); ++k) rset.insert(Str(r->TailAt(k)));
  auto sj = engine::Semijoin(lr, rr).ValueOrDie();
  std::vector<Oid> want_sj, want_anti;
  for (size_t i = 0; i < l->size(); ++i) {
    const std::string a = Str(l->TailAt(i));
    if (!a.empty() && rset.count(a) != 0) {
      want_sj.push_back(l->HeadAt(i).AsOid());
    } else {
      want_anti.push_back(l->HeadAt(i).AsOid());
    }
  }
  EXPECT_EQ(TailOids(sj), want_sj);
  auto anti = engine::AntiSemijoin(lr, rr).ValueOrDie();
  EXPECT_EQ(TailOids(anti), want_anti);

  // element-wise comparison of two aligned string bats.
  const size_t n = std::min(l->size(), r->size());
  BatPtr la = engine::Slice(l, 0, n).ValueOrDie();
  BatPtr ra = engine::Slice(r, 0, n).ValueOrDie();
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe}) {
    auto cmp = engine::CalcCmp(op, la, ra).ValueOrDie();
    for (size_t i = 0; i < n; ++i) {
      const std::string a = Str(la->TailAt(i)), c = Str(ra->TailAt(i));
      EXPECT_EQ(cmp->TailAt(i).AsBit(), OracleCmp(op, a, c)) << i;
    }
  }
}

TEST_P(StringKernelTest, JoinsWithinOneHeap) {
  Rng rng(GetParam());
  auto col = Column::Make(TypeTag::kStr, Strings(&rng, 500, 30, 0.1));
  BatPtr l = View(col, 0, 200), r = View(col, 200, 300);
  ASSERT_EQ(l->tail().col->heap(), r->tail().col->heap());
  CheckJoins(l, r);
  CheckJoins(r, l);
}

TEST_P(StringKernelTest, JoinsAcrossTwoHeaps) {
  Rng rng(GetParam());
  // Overlapping vocabularies: some strings occur in one heap only.
  BatPtr l = StrBat(Strings(&rng, 200, 30, 0.1));
  BatPtr r = StrBat(Strings(&rng, 300, 60, 0.1));
  ASSERT_NE(l->tail().col->heap(), r->tail().col->heap());
  CheckJoins(l, r);
  CheckJoins(r, l);
  // A small view re-coded into, or out of, a much larger heap.
  auto big = Column::Make(TypeTag::kStr, Strings(&rng, 3000, 2000, 0.05));
  CheckJoins(View(big, 100, 20), l);
  CheckJoins(l, View(big, 100, 20));
}

TEST_P(StringKernelTest, KuniqueKeepsFirstOfEachString) {
  Inputs in = MakeInputs(GetParam());
  for (const BatPtr& b : {in.small_heap, in.large_heap}) {
    auto u = engine::Kunique(engine::Reverse(b)).ValueOrDie();
    std::vector<std::string> want;
    std::set<std::string> seen;
    for (const std::string& s : Tails(b)) {
      if (seen.insert(s).second) want.push_back(s);
    }
    EXPECT_EQ(Heads(u), want);
  }
}

TEST_P(StringKernelTest, SortBothDirectionsStable) {
  Inputs in = MakeInputs(GetParam());
  for (const BatPtr& b : {in.small_heap, in.large_heap}) {
    const std::vector<std::string> vals = Tails(b);
    std::vector<Oid> asc(vals.size()), desc(vals.size());
    for (size_t i = 0; i < vals.size(); ++i) asc[i] = desc[i] = i;
    auto up = [&](Oid a, Oid c) { return vals[a] < vals[c]; };
    auto down = [&](Oid a, Oid c) { return vals[c] < vals[a]; };
    std::stable_sort(asc.begin(), asc.end(), up);
    std::stable_sort(desc.begin(), desc.end(), down);
    auto s = engine::SortTail(b).ValueOrDie();
    EXPECT_EQ(HeadOids(s), asc);
    EXPECT_TRUE(s->tail().col->sorted());
    auto d = engine::SortTailRev(b).ValueOrDie();
    EXPECT_EQ(HeadOids(d), desc);

    // A range select over the sorted result takes the binary search.
    const Scalar lo = Scalar::Str("ab"), hi = Scalar::Str("bb");
    auto r = engine::Select(s, lo, hi, true, false);
    std::vector<std::string> want;
    for (Oid i : asc) {
      if (!vals[i].empty() && vals[i] >= "ab" && vals[i] < "bb")
        want.push_back(vals[i]);
    }
    EXPECT_EQ(Tails(r.value()), want);
  }
}

/// First-seen numbering of `keys`: the gid of each row and the row of
/// each group's first occurrence.
struct Groups {
  std::vector<Oid> map, reps;
};

template <typename Key>
Groups OracleGroups(const std::vector<Key>& keys) {
  std::map<Key, Oid> gid;
  Groups out;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto [it, fresh] = gid.emplace(keys[i], gid.size());
    if (fresh) out.reps.push_back(i);
    out.map.push_back(it->second);
  }
  return out;
}

/// group.new over `k1`, then group.refine by `k2`, against the oracle.
void CheckGrouping(const BatPtr& k1, const BatPtr& k2) {
  auto g = engine::GroupBy(k1).ValueOrDie();
  const Groups want1 = OracleGroups(Tails(k1));
  EXPECT_EQ(TailOids(g.map), want1.map);
  EXPECT_EQ(TailOids(g.reps), want1.reps);

  auto sub = engine::SubGroupBy(k2, g.map).ValueOrDie();
  std::vector<std::pair<Oid, std::string>> pairs;
  const std::vector<std::string> v2 = Tails(k2);
  for (size_t i = 0; i < v2.size(); ++i) {
    pairs.emplace_back(want1.map[i], v2[i]);
  }
  const Groups want2 = OracleGroups(pairs);
  EXPECT_EQ(TailOids(sub.map), want2.map);
  EXPECT_EQ(TailOids(sub.reps), want2.reps);
}

TEST_P(StringKernelTest, GroupAndRefineBelowAndAboveDirectBound) {
  Rng rng(GetParam());
  // Below the bound: two low-cardinality columns over many rows (Q1's
  // l_returnflag, l_linestatus). Above: views of few rows over heaps with
  // many more entries.
  BatPtr flags = StrBat(Strings(&rng, 600, 4, 0.05));
  BatPtr status = StrBat(Strings(&rng, 600, 3, 0.05));
  auto big1 = Column::Make(TypeTag::kStr, Strings(&rng, 2000, 1500, 0.05));
  auto big2 = Column::Make(TypeTag::kStr, Strings(&rng, 2000, 1500, 0.05));
  CheckGrouping(flags, status);
  CheckGrouping(View(big1, 300, 50), View(big2, 900, 50));
  CheckGrouping(flags, View(big2, 0, 600));
}

TEST_P(StringKernelTest, MinMaxAndNil) {
  Inputs in = MakeInputs(GetParam());
  for (const BatPtr& b : {in.small_heap, in.large_heap}) {
    std::vector<std::string> vals;
    for (const std::string& s : Tails(b)) {
      if (!s.empty()) vals.push_back(s);
    }
    ASSERT_FALSE(vals.empty());
    std::sort(vals.begin(), vals.end());
    EXPECT_EQ(engine::Aggr(AggFn::kMin, b).ValueOrDie().AsStr(), vals.front());
    EXPECT_EQ(engine::Aggr(AggFn::kMax, b).ValueOrDie().AsStr(), vals.back());
  }
  // The empty string is the nil: all-nil input has a nil minimum, and nil
  // matches no selection or join.
  BatPtr nils = StrBat({"", "", ""});
  EXPECT_TRUE(engine::Aggr(AggFn::kMin, nils).ValueOrDie().is_nil());
  EXPECT_TRUE(nils->TailAt(0).is_nil());
  EXPECT_EQ(engine::SelectNotNil(nils).ValueOrDie()->size(), 0u);
  EXPECT_EQ(engine::Join(nils, engine::Reverse(nils)).ValueOrDie()->size(), 0u);
  EXPECT_EQ(engine::LikeSelect(nils, "%").ValueOrDie()->size(), 0u);
}

/// Concat of `parts` against the concatenated strings.
void CheckConcat(const std::vector<BatPtr>& parts) {
  auto c = engine::Concat(parts).ValueOrDie();
  std::vector<std::string> want;
  for (const BatPtr& p : parts) {
    for (const std::string& s : Tails(p)) want.push_back(s);
  }
  EXPECT_EQ(Tails(c), want);
}

TEST_P(StringKernelTest, ConcatAcrossHeaps) {
  Rng rng(GetParam());
  BatPtr a = StrBat(Strings(&rng, 100, 10, 0.1));
  BatPtr b = StrBat(Strings(&rng, 80, 40, 0.1));  // holds strings a lacks
  // A select over a keeps a's heap.
  BatPtr sub = engine::Uselect(a, Scalar::Str("a")).ValueOrDie();
  CheckConcat({a, b});
  CheckConcat({b, a});
  CheckConcat({a, sub});
  CheckConcat({sub, b, a});
  // Sides of one heap keep sharing it.
  auto same = engine::Concat({a, sub}).ValueOrDie();
  EXPECT_EQ(same->tail().col->heap(), a->tail().col->heap());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringKernelTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(StringHeapTest, DeduplicatesAndExtendsWithoutRecoding) {
  StringHeapBuilder b;
  StrCode x = b.Intern("x"), y = b.Intern("yy"), x2 = b.Intern("x");
  EXPECT_EQ(x, x2);
  EXPECT_NE(x, y);
  EXPECT_EQ(b.Intern(""), StrCode{});  // code 0 is the nil
  StringHeapPtr base = b.Finish();
  EXPECT_EQ(base->size(), 3u);

  StringHeapBuilder ext(*base);
  for (int i = 0; i < 1000; ++i) ext.Intern("s" + std::to_string(i));
  StringHeapPtr grown = ext.Finish();
  EXPECT_EQ(grown->size(), 1003u);
  EXPECT_EQ(grown->Get(x), "x");  // old codes keep their strings
  EXPECT_EQ(grown->Get(y), "yy");
  StrCode found;
  ASSERT_TRUE(grown->Find("s999", &found));
  EXPECT_EQ(grown->Get(found), "s999");
  EXPECT_FALSE(base->Find("s1", &found));  // the base is unchanged
  EXPECT_EQ(base->size(), 3u);
}

}  // namespace
}  // namespace recycledb
