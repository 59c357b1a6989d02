// Vectorised-kernel parity: the batched entry points (engine/vec/ behind
// Select/LikeSelect/Join/GroupedAggr) must produce byte-identical output to
// the retained element-at-a-time reference loops (testing/scalar_ref.h) on
// randomised sweeps — including in-band nils, duplicate join keys (emission
// order matters) and the key-flagged unique-inner probe.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bat/column.h"
#include "engine/operators.h"
#include "testing/scalar_ref.h"
#include "util/rng.h"

namespace recycledb {
namespace {

void ExpectSameBat(const BatPtr& a, const BatPtr& b, const std::string& ctx) {
  ASSERT_EQ(a->size(), b->size()) << ctx;
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ(a->HeadAt(i), b->HeadAt(i)) << ctx << " head @" << i;
    ASSERT_EQ(a->TailAt(i), b->TailAt(i)) << ctx << " tail @" << i;
  }
}

BatPtr RandomIntBat(size_t n, uint64_t seed, int32_t lo, int32_t hi,
                    int nil_in_16) {
  Rng rng(seed);
  std::vector<int32_t> vals(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<int>(rng.Uniform(16)) < nil_in_16
                  ? NilOf<int32_t>()
                  : static_cast<int32_t>(rng.UniformRange(lo, hi));
  }
  return Bat::DenseHead(Column::Make(TypeTag::kInt, std::move(vals)));
}

// --- range select -----------------------------------------------------------

TEST(VecKernelParityTest, SelectBoundsAndInclusivitySweep) {
  BatPtr b = RandomIntBat(4096, 201, -50, 950, 2);
  struct Bounds {
    Scalar lo, hi;
  };
  std::vector<Bounds> sweeps{
      {Scalar::Int(100), Scalar::Int(299)},
      {Scalar::Int(-50), Scalar::Int(-50)},            // point range
      {Scalar::Int(900), Scalar::Int(100)},            // empty range
      {Scalar::Nil(TypeTag::kInt), Scalar::Int(200)},  // unbounded below
      {Scalar::Int(800), Scalar::Nil(TypeTag::kInt)},  // unbounded above
      {Scalar::Nil(TypeTag::kInt), Scalar::Nil(TypeTag::kInt)},
  };
  for (const Bounds& s : sweeps) {
    for (bool lo_inc : {true, false}) {
      for (bool hi_inc : {true, false}) {
        auto vec = engine::Select(b, s.lo, s.hi, lo_inc, hi_inc).ValueOrDie();
        auto ref = engine::scalar_ref::ScanRangeSelect(b, s.lo, s.hi, lo_inc,
                                                       hi_inc)
                       .ValueOrDie();
        ExpectSameBat(vec, ref,
                      "select [" + s.lo.ToString() + "," + s.hi.ToString() +
                          "] inc=" + std::to_string(lo_inc) +
                          std::to_string(hi_inc));
      }
    }
  }
}

TEST(VecKernelParityTest, SelectOverViewWithOffset) {
  // Slices exercise the side-offset path of the batched kernels.
  BatPtr b = RandomIntBat(1024, 202, 0, 99, 1);
  BatPtr view = engine::Slice(b, 100, 900).ValueOrDie();
  auto vec =
      engine::Select(view, Scalar::Int(20), Scalar::Int(60), true, false)
          .ValueOrDie();
  auto ref = engine::scalar_ref::ScanRangeSelect(view, Scalar::Int(20),
                                                 Scalar::Int(60), true, false)
                 .ValueOrDie();
  ExpectSameBat(vec, ref, "select over slice");
}

// --- LIKE -------------------------------------------------------------------

TEST(VecKernelParityTest, LikePatternShapes) {
  Rng rng(203);
  std::vector<std::string> words{"promo",  "PROMO",   "promotion", "demo",
                                 "",       "p_omo",   "pro%mo",    "xpromox",
                                 "brass",  "BRASS",   "steel",     "proximo"};
  std::vector<std::string> vals;
  for (int i = 0; i < 2000; ++i)
    vals.push_back(words[rng.Uniform(words.size())]);
  BatPtr b = Bat::DenseHead(Column::Make(TypeTag::kStr, std::move(vals)));
  for (const char* pat :
       {"promo", "promo%", "%omo", "%rom%", "p_omo", "_romo", "%", "",
        "%pro%mo%", "%%", "de__"}) {
    auto vec = engine::LikeSelect(b, pat).ValueOrDie();
    auto ref = engine::scalar_ref::LikeSelect(b, pat).ValueOrDie();
    ExpectSameBat(vec, ref, std::string("like '") + pat + "'");
  }
}

// --- hash join --------------------------------------------------------------

BatPtr KeyedBat(std::vector<Oid> heads, std::vector<int32_t> tails,
                bool key_flag) {
  auto h = Column::Make(TypeTag::kOid, std::move(heads));
  h->set_key(key_flag);
  auto t = Column::Make(TypeTag::kInt, std::move(tails));
  size_t n = h->size();
  return Bat::Make(BatSide::Materialized(h), BatSide::Materialized(t), n);
}

TEST(VecKernelParityTest, HashJoinWithDuplicatesMatchesReference) {
  Rng rng(204);
  // Inner with duplicate keys and nils: emission order (left order, chain
  // order within a probe) must match the reference exactly.
  std::vector<Oid> rheads;
  std::vector<int32_t> rtails;
  for (int i = 0; i < 500; ++i) {
    rheads.push_back(rng.Uniform(8) == 0 ? kNilOid : rng.Uniform(200));
    rtails.push_back(i);
  }
  BatPtr r = KeyedBat(std::move(rheads), std::move(rtails), false);
  std::vector<Oid> ltails;
  for (int i = 0; i < 2000; ++i) {
    ltails.push_back(rng.Uniform(8) == 0 ? kNilOid : rng.Uniform(260));
  }
  BatPtr l = Bat::Make(
      BatSide::Dense(0),
      BatSide::Materialized(Column::Make(TypeTag::kOid, std::move(ltails))),
      2000);
  auto vec = engine::Join(l, r).ValueOrDie();
  auto ref = engine::scalar_ref::HashJoin(l, r).ValueOrDie();
  ExpectSameBat(vec, ref, "hash join with duplicates");
}

TEST(VecKernelParityTest, UniqueInnerProbeMatchesGeneralPath) {
  Rng rng(205);
  // Distinct inner keys, shuffled; the key() flag routes the engine through
  // BatchProbeUnique — results must be identical to the general chain-walk
  // with the flag off, and to the scalar reference.
  const size_t rn = 777;
  std::vector<Oid> keys(rn);
  for (size_t i = 0; i < rn; ++i) keys[i] = static_cast<Oid>(i * 3);
  for (size_t i = rn - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  std::vector<int32_t> payload(rn);
  for (size_t i = 0; i < rn; ++i) payload[i] = static_cast<int32_t>(i);
  BatPtr r_keyed =
      KeyedBat(std::vector<Oid>(keys), std::vector<int32_t>(payload), true);
  BatPtr r_plain = KeyedBat(std::move(keys), std::move(payload), false);

  std::vector<Oid> probes;
  for (int i = 0; i < 5000; ++i) {
    probes.push_back(rng.Uniform(16) == 0 ? kNilOid : rng.Uniform(3 * rn + 50));
  }
  BatPtr l = Bat::Make(
      BatSide::Dense(100),
      BatSide::Materialized(Column::Make(TypeTag::kOid, std::move(probes))),
      5000);

  auto keyed = engine::Join(l, r_keyed).ValueOrDie();
  auto plain = engine::Join(l, r_plain).ValueOrDie();
  auto ref = engine::scalar_ref::HashJoin(l, r_plain).ValueOrDie();
  ExpectSameBat(keyed, plain, "unique probe vs general path");
  ExpectSameBat(keyed, ref, "unique probe vs scalar reference");
  EXPECT_GT(keyed->size(), 0u) << "sweep never produced a match";
}

TEST(VecKernelParityTest, UniqueInnerEmptyBuildSide) {
  BatPtr r = KeyedBat({}, {}, true);
  BatPtr l = Bat::Make(
      BatSide::Dense(0),
      BatSide::Materialized(Column::Make(TypeTag::kOid,
                                         std::vector<Oid>{1, 2, 3})),
      3);
  auto j = engine::Join(l, r).ValueOrDie();
  EXPECT_EQ(j->size(), 0u);
}

// --- semijoins --------------------------------------------------------------

TEST(VecKernelParityTest, SemijoinAndAntiPartitionTheLeft) {
  Rng rng(206);
  std::vector<Oid> lheads;
  std::vector<int32_t> ltails;
  for (int i = 0; i < 1500; ++i) {
    lheads.push_back(rng.Uniform(10) == 0 ? kNilOid : rng.Uniform(400));
    ltails.push_back(i);
  }
  BatPtr l = KeyedBat(std::move(lheads), std::move(ltails), false);
  std::vector<Oid> rheads;
  std::vector<int32_t> rtails;
  for (int i = 0; i < 300; ++i) {
    rheads.push_back(rng.Uniform(500));
    rtails.push_back(i);
  }
  BatPtr r = KeyedBat(std::move(rheads), std::move(rtails), false);

  auto semi = engine::Semijoin(l, r).ValueOrDie();
  auto anti = engine::AntiSemijoin(l, r).ValueOrDie();
  // The two partitions cover l exactly, in order.
  ASSERT_EQ(semi->size() + anti->size(), l->size());
  size_t si = 0, ai = 0;
  for (size_t i = 0; i < l->size(); ++i) {
    Scalar h = l->HeadAt(i);
    bool present = false;
    for (size_t j = 0; j < r->size(); ++j) {
      if (!h.is_nil() && h == r->HeadAt(j)) {
        present = true;
        break;
      }
    }
    if (present) {
      ASSERT_EQ(semi->HeadAt(si), h) << "semijoin order @" << i;
      ASSERT_EQ(semi->TailAt(si), l->TailAt(i));
      ++si;
    } else {
      ASSERT_EQ(anti->HeadAt(ai), h) << "anti order @" << i;
      ++ai;
    }
  }
}

// --- grouped aggregation ----------------------------------------------------

TEST(VecKernelParityTest, GroupedAggrAllFunctionsWithNilsAndEmptyGroups) {
  Rng rng(207);
  const size_t n = 4096, ngroups = 37;
  std::vector<int64_t> vals(n);
  std::vector<Oid> gids(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = rng.Uniform(5) == 0
                  ? NilOf<int64_t>()
                  : static_cast<int64_t>(rng.Uniform(1000)) - 500;
    // Group 7 stays empty; group 11 gets only nil values.
    Oid g = rng.Uniform(ngroups);
    if (g == 7) g = 8;
    if (g == 11) vals[i] = NilOf<int64_t>();
    gids[i] = g;
  }
  auto vb = Bat::DenseHead(Column::Make(TypeTag::kLng, std::move(vals)));
  auto mb = Bat::DenseHead(Column::Make(TypeTag::kOid, std::move(gids)));
  using engine::AggFn;
  for (AggFn fn :
       {AggFn::kSum, AggFn::kCount, AggFn::kMin, AggFn::kMax, AggFn::kAvg}) {
    auto vec = engine::GroupedAggr(fn, vb, mb, ngroups).ValueOrDie();
    auto ref =
        engine::scalar_ref::GroupedAggr(fn, vb, mb, ngroups).ValueOrDie();
    ExpectSameBat(vec, ref, "grouped aggr fn=" + std::to_string(int(fn)));
    EXPECT_EQ(vec->size(), ngroups);
  }
}

TEST(VecKernelParityTest, GroupedAggrDoubleValues) {
  Rng rng(208);
  const size_t n = 2048, ngroups = 16;
  std::vector<double> vals(n);
  std::vector<Oid> gids(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] =
        rng.Uniform(8) == 0 ? NilOf<double>() : rng.UniformDouble(-10, 10);
    gids[i] = rng.Uniform(ngroups);
  }
  auto vb = Bat::DenseHead(Column::Make(TypeTag::kDbl, std::move(vals)));
  auto mb = Bat::DenseHead(Column::Make(TypeTag::kOid, std::move(gids)));
  using engine::AggFn;
  for (AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax, AggFn::kAvg}) {
    auto vec = engine::GroupedAggr(fn, vb, mb, ngroups).ValueOrDie();
    auto ref =
        engine::scalar_ref::GroupedAggr(fn, vb, mb, ngroups).ValueOrDie();
    ExpectSameBat(vec, ref, "grouped dbl aggr fn=" + std::to_string(int(fn)));
  }
}

}  // namespace
}  // namespace recycledb
