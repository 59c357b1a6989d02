#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "engine/materialize.h"
#include "engine/operators.h"
#include "testing/flag_oracle.h"
#include "util/rng.h"

namespace recycledb {
namespace {

using engine::AntiSemijoin;
using engine::DirectJoinSpan;
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

// Values, order and both sides' sorted/key flags of two join results.
void ExpectSameJoin(const BatPtr& got, const BatPtr& want,
                    const std::string& ctx) {
  ASSERT_EQ(got->size(), want->size()) << ctx;
  for (size_t i = 0; i < got->size(); ++i) {
    ASSERT_EQ(got->HeadAt(i), want->HeadAt(i)) << ctx << " head @" << i;
    ASSERT_EQ(got->TailAt(i), want->TailAt(i)) << ctx << " tail @" << i;
  }
  for (bool head : {true, false}) {
    const BatSide& x = head ? got->head() : got->tail();
    const BatSide& y = head ? want->head() : want->tail();
    const std::string side = ctx + (head ? " head" : " tail");
    ASSERT_EQ(x.dense(), y.dense()) << side;
    if (x.dense()) continue;
    EXPECT_EQ(x.col->sorted(), y.col->sorted()) << side << " sorted";
    EXPECT_EQ(x.col->key(), y.col->key()) << side << " key";
  }
}

// An inner [oid heads -> sorted int tails] whose heads are a view at `off`
// of a column with `off` smaller leading values, so the column's flags
// hold over the whole of it; the heads are flagged as given.
BatPtr OidInner(const std::vector<Oid>& heads, size_t off, bool sorted,
                bool key) {
  std::vector<Oid> h;
  for (size_t k = 0; k < off; ++k) h.push_back(k);
  h.insert(h.end(), heads.begin(), heads.end());
  auto hcol = Column::Make(TypeTag::kOid, std::move(h));
  hcol->set_sorted(sorted);
  hcol->set_key(key);
  std::vector<int32_t> t(heads.size());
  for (size_t j = 0; j < t.size(); ++j) t[j] = static_cast<int32_t>(7 * j);
  auto tcol = Column::Make(TypeTag::kInt, std::move(t));
  tcol->set_sorted(true);
  tcol->set_key(true);
  return Bat::Make(BatSide::Materialized(hcol, off),
                   BatSide::Materialized(tcol), heads.size());
}

// [sorted key oid heads 300, 302, ... -> `tails`]: a left side whose
// gathered heads keep their flags.
BatPtr OidOuter(std::vector<Oid> tails) {
  std::vector<Oid> heads(tails.size());
  for (size_t i = 0; i < heads.size(); ++i) heads[i] = 300 + 2 * i;
  auto hcol = Column::Make(TypeTag::kOid, std::move(heads));
  hcol->set_sorted(true);
  hcol->set_key(true);
  const size_t n = tails.size();
  auto tcol = Column::Make(TypeTag::kOid, std::move(tails));
  return Bat::Make(BatSide::Materialized(hcol), BatSide::Materialized(tcol), n);
}

// The direct-addressed join against the hash paths over the same inner:
// flags cleared (general probe) and key alone (unique probe).
void ExpectDirectMatchesHash(const BatPtr& l, const std::vector<Oid>& heads,
                             const std::string& ctx) {
  for (size_t off : {size_t{0}, size_t{3}}) {
    const std::string c = ctx + " off=" + std::to_string(off);
    BatPtr flagged = OidInner(heads, off, true, true);
    ASSERT_GT(DirectJoinSpan(*l, *flagged), 0u) << c;
    BatPtr plain = OidInner(heads, off, false, false);
    BatPtr keyed = OidInner(heads, off, false, true);
    auto direct = Join(l, flagged).ValueOrDie();
    ExpectSameJoin(direct, Join(l, plain).ValueOrDie(), c + " vs general");
    ExpectSameJoin(direct, Join(l, keyed).ValueOrDie(), c + " vs unique");
    EXPECT_EQ(oracle::BatFlagError(*direct), "") << c;
  }
}

TEST(DirectJoinTest, MatchesHashPathWithFlagsCleared) {
  // Gaps in the inner; probes below, inside the gaps, above, nil, repeated
  // and unsorted.
  const std::vector<Oid> heads{10, 12, 13, 17, 20};
  ExpectDirectMatchesHash(
      OidOuter({13, 9, 0, 11, 20, kNilOid, 21, 1000, 10, 13, 17, kNilOid - 1}),
      heads, "gaps");
  // Increasing probes: the gathered inner tail stays sorted and key.
  ExpectDirectMatchesHash(OidOuter({10, 12, 17, 20, 21, 30}), heads,
                          "increasing");
  // A one-row inner.
  ExpectDirectMatchesHash(OidOuter({42, 41, 43, kNilOid, 42}), {42}, "one row");
  // A dense l.tail: values 8..17.
  ExpectDirectMatchesHash(Bat::DenseDense(0, 8, 10), heads, "dense tail");
  // Nothing matches, and an empty outer.
  ExpectDirectMatchesHash(OidOuter({1, 2, 11, 21, 99, kNilOid}), heads,
                          "no match");
  ExpectDirectMatchesHash(OidOuter({}), {5, 6, 7}, "empty outer");
}

TEST(DirectJoinTest, SpanBoundDecidesBetweenDirectAndHash) {
  // |l| + |r| = 6: a span of 6 oids (hi - lo = 5) is direct, 7 hashes.
  BatPtr l = OidOuter({4, 9, 10, kNilOid});
  ExpectDirectMatchesHash(l, {4, 9}, "span at the bound");
  EXPECT_EQ(DirectJoinSpan(*l, *OidInner({4, 9}, 0, true, true)), 6u);
  for (size_t off : {size_t{0}, size_t{3}}) {
    BatPtr past = OidInner({4, 10}, off, true, true);
    EXPECT_EQ(DirectJoinSpan(*l, *past), 0u) << "one past the bound hashes";
    BatPtr plain = OidInner({4, 10}, off, false, false);
    ExpectSameJoin(Join(l, past).ValueOrDie(), Join(l, plain).ValueOrDie(),
                   "span past the bound");
  }
  // Neither a trailing nil, nor an unflagged, sorted-only or key-only head,
  // nor an empty inner is direct.
  EXPECT_EQ(DirectJoinSpan(*l, *OidInner({4, kNilOid}, 0, true, true)), 0u);
  EXPECT_EQ(DirectJoinSpan(*l, *OidInner({4, 9}, 0, false, false)), 0u);
  EXPECT_EQ(DirectJoinSpan(*l, *OidInner({4, 9}, 0, true, false)), 0u);
  EXPECT_EQ(DirectJoinSpan(*l, *OidInner({4, 9}, 0, false, true)), 0u);
  EXPECT_EQ(DirectJoinSpan(*l, *OidInner({}, 0, true, true)), 0u);
}

// A fetch through `tails` (flagged as given) into a dense-headed int
// column at seq 10, against the same tails unflagged.
void ExpectFetchShortcutMatches(const std::vector<Oid>& tails, bool sorted,
                                bool key, const std::string& ctx) {
  auto rcol = Column::Make(TypeTag::kInt,
                           std::vector<int32_t>{1, 2, 3, 5, 8, 13, 21, 34});
  rcol->set_sorted(true);
  rcol->set_key(true);
  BatPtr r = Bat::DenseHead(rcol, 10);
  auto flagged = Column::Make(TypeTag::kOid, tails);
  flagged->set_sorted(sorted);
  flagged->set_key(key);
  BatPtr lf = Bat::DenseHead(flagged, 3);
  BatPtr lp = Bat::DenseHead(Column::Make(TypeTag::kOid, tails), 3);
  auto got = Join(lf, r).ValueOrDie();
  ExpectSameJoin(got, Join(lp, r).ValueOrDie(), ctx);
  EXPECT_EQ(oracle::BatFlagError(*got), "") << ctx;
}

TEST(FetchShortcutTest, FlaggedTailsMatchTheValidatingPass) {
  // r's dense head covers oids [10, 18).
  ExpectFetchShortcutMatches({10, 11, 13, 17}, true, true, "inside");
  ExpectFetchShortcutMatches({12}, true, true, "one oid");
  ExpectFetchShortcutMatches({}, true, true, "empty");
  ExpectFetchShortcutMatches({9, 11, 13, 17}, true, true, "first below");
  ExpectFetchShortcutMatches({10, 11, 13, 18}, true, true, "last past");
  ExpectFetchShortcutMatches({0, 5, 9}, true, true, "all below");
  ExpectFetchShortcutMatches({10, 11, 13, kNilOid}, true, true, "trailing nil");
  ExpectFetchShortcutMatches({10, 11, 11, 13}, true, false, "sorted, not key");
  ExpectFetchShortcutMatches({13, 11, 17}, false, true, "key, not sorted");
}

// --- flag oracle sweep -------------------------------------------------------

// m int values in [0, range), about one in `nil_in` nil.
std::vector<int32_t> RandomInts(Rng& rng, size_t m, int32_t range,
                                uint64_t nil_in) {
  std::vector<int32_t> v(m);
  for (int32_t& x : v) {
    x = static_cast<int32_t>(rng.Uniform(range));
    if (rng.Uniform(nil_in) == 0) x = NilOf<int32_t>();
  }
  return v;
}

// A column of `v` flagged with what its values really are: sorted when
// ascending, key when strictly ascending (as a commit's rescan flags it).
template <typename T>
std::shared_ptr<Column> TrueFlags(TypeTag t, std::vector<T> v) {
  auto col = Column::Make(t, std::move(v));
  col->ComputeSorted();
  return col;
}

// m distinct oids in increasing steps of 1 to `step`, from `from`.
std::vector<Oid> RisingOids(Rng& rng, size_t m, Oid from, uint64_t step) {
  std::vector<Oid> v(m);
  Oid x = from;
  for (Oid& o : v) {
    o = x;
    x += 1 + rng.Uniform(step);
  }
  return v;
}

// n pairs of [`heads` viewed from offset 5 -> `tail`].
BatPtr HeadedFrom5(const ColumnPtr& heads, ColumnPtr tail, size_t n) {
  return Bat::Make(BatSide::Materialized(heads, 5),
                   BatSide::Materialized(std::move(tail)), n);
}

TEST(FlagOracleTest, OperatorOutputsKeepTrueFlags) {
  Rng rng(2024);
  size_t checked = 0, direct = 0;
  auto check = [&](const BatPtr& b, const std::string& ctx) {
    EXPECT_EQ(oracle::BatFlagError(*b), "") << ctx;
    ++checked;
  };
  for (int round = 0; round < 40; ++round) {
    const std::string rc = "round " + std::to_string(round);
    const size_t n = rng.Uniform(300);
    // Int tails: random with duplicates and nils, sorted, and strictly
    // increasing; heads dense, or sorted key oids viewed at an offset.
    std::vector<int32_t> ints = RandomInts(rng, n, 200, 8);
    std::vector<int32_t> sorted_ints = ints;
    std::sort(sorted_ints.begin(), sorted_ints.end());
    std::vector<int32_t> rising(n);
    for (size_t i = 0; i < n; ++i) rising[i] = static_cast<int32_t>(3 * i);
    ColumnPtr heads = TrueFlags(TypeTag::kOid, RisingOids(rng, n + 5, 1000, 3));
    std::vector<BatPtr> bats;
    for (auto& v : {ints, sorted_ints, rising}) {
      auto col = TrueFlags(TypeTag::kInt, v);
      bats.push_back(Bat::DenseHead(col, rng.Uniform(50)));
      bats.push_back(HeadedFrom5(heads, col, n));
    }
    // Candidate lists: increasing (select-like) and shuffled positions,
    // and increasing ones that end in a nil or past the bats.
    std::vector<Oid> inc = RisingOids(rng, n / 3, rng.Uniform(4), 2);
    std::vector<Oid> shuffled = inc;
    for (size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    std::vector<Oid> with_nil = inc, beyond = inc;
    with_nil.push_back(kNilOid);
    beyond.push_back(n + 7);
    std::vector<BatPtr> cands;
    for (auto& v : {inc, shuffled, with_nil, beyond}) {
      auto col = TrueFlags(TypeTag::kOid, v);
      cands.push_back(Bat::DenseHead(col, 0));
      cands.push_back(HeadedFrom5(heads, col, v.size()));
    }

    for (size_t b = 0; b < bats.size(); ++b) {
      const std::string bc = rc + " bat " + std::to_string(b);
      const BatPtr& in = bats[b];
      const int32_t from = static_cast<int32_t>(rng.Uniform(200));
      const int32_t to = from + static_cast<int32_t>(rng.Uniform(100));
      const Scalar lo = Scalar::Int(from), hi = Scalar::Int(to);
      const bool hi_inc = rng.Bernoulli(0.5);
      BatPtr sel = engine::Select(in, lo, hi, true, hi_inc).ValueOrDie();
      check(sel, bc + " select");
      check(engine::Uselect(in, lo).ValueOrDie(), bc + " uselect");
      check(engine::AntiUselect(in, lo).ValueOrDie(), bc + " antiuselect");
      // A select's heads as a candidate list, fetched, and as the inner
      // of a map-back join (direct or hash, by its flags).
      BatPtr cand = engine::Reverse(engine::MarkT(sel, 0));
      check(Join(cand, in).ValueOrDie(), bc + " fetch of select");
      for (const BatPtr& c : cands) {
        check(Join(c, bats[0]).ValueOrDie(), bc + " fetch");
        check(Join(c, sel).ValueOrDie(), bc + " map-back");
        direct += DirectJoinSpan(*c, *sel) > 0;
        for (const BatPtr& c2 : cands) {
          BatPtr inner = engine::Reverse(c2);
          check(Join(c, inner).ValueOrDie(), bc + " join");
          direct += DirectJoinSpan(*c, *inner) > 0;
        }
        check(Semijoin(in, engine::Reverse(c)).ValueOrDie(), bc + " semi");
        check(Semijoin(engine::Reverse(c), sel).ValueOrDie(),
              bc + " semi of select");
      }
      std::vector<uint64_t> bits((in->size() + 63) / 64, 0);
      for (size_t i = 0; i < in->size(); ++i) {
        if (rng.Bernoulli(0.4)) bits[i >> 6] |= uint64_t{1} << (i & 63);
      }
      check(engine::CompactBat(in, bits), bc + " compact");
      engine::SelVector take;
      for (size_t i = 0; i < in->size(); ++i) {
        if (rng.Bernoulli(0.3)) take.push_back(static_cast<uint32_t>(i));
      }
      check(Bat::Make(engine::TakeSide(in->head(), take),
                      engine::TakeSide(in->tail(), take), take.size()),
            bc + " take increasing");
      for (size_t i = take.size(); i > 1; --i)
        std::swap(take[i - 1], take[rng.Uniform(i)]);
      if (!take.empty()) take.push_back(take[0]);
      check(Bat::Make(engine::TakeSide(in->head(), take),
                      engine::TakeSide(in->tail(), take), take.size()),
            bc + " take shuffled, repeated");
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(direct, 100u) << "the sweep must reach the direct join";
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
