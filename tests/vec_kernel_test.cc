// Vectorised-kernel parity: the batched entry points (engine/vec/ behind
// Select/AntiUselect/SelectNotNil/LikeSelect/Join/Semijoin/GroupedAggr) must
// produce byte-identical output to the element-at-a-time reference loops
// (testing/scalar_ref.h) on randomised sweeps — including in-band nils,
// duplicate join keys (emission order matters) and the key-flagged
// unique-inner probe. The bitmap consumers are swept over sizes around the
// 64-row word boundaries and over views at offsets that are not a multiple
// of 64, and their results' sorted/key flags must match too.

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

// The sides' layouts and sorted/key flags agree.
void ExpectSameFlags(const BatPtr& a, const BatPtr& b, const std::string& ctx) {
  for (bool head : {true, false}) {
    const BatSide& x = head ? a->head() : a->tail();
    const BatSide& y = head ? b->head() : b->tail();
    const std::string side = ctx + (head ? " head" : " tail");
    ASSERT_EQ(x.dense(), y.dense()) << side;
    if (x.dense()) continue;
    EXPECT_EQ(x.col->sorted(), y.col->sorted()) << side << " sorted";
    EXPECT_EQ(x.col->key(), y.col->key()) << side << " key";
  }
}

void ExpectSameResult(const BatPtr& a, const BatPtr& b,
                      const std::string& ctx) {
  ExpectSameBat(a, b, ctx);
  ExpectSameFlags(a, b, ctx);
}

// Named inputs of one sweep.
using Inputs = std::vector<std::pair<std::string, BatPtr>>;

// Sizes around the 64-row bitmap words, and a few blocks plus a partial one.
const size_t kSizes[] = {0, 1, 63, 64, 65, 127, 129, 4096 + 37};

// The bat shapes a bitmap consumer sees, each of `n` pairs over tails from
// `make_tail(m)` (a column of m rows): a dense head, a view at offset 37
// (not a multiple of 64), and a materialised sorted key head at offset 37.
template <typename MakeTail>
Inputs Shapes(size_t n, MakeTail make_tail) {
  Inputs out;
  const std::string sz = " n=" + std::to_string(n);
  out.emplace_back("dense" + sz, Bat::DenseHead(make_tail(n), 7));
  BatPtr wide = Bat::DenseHead(make_tail(n + 37 + 5));
  out.emplace_back("view@37" + sz,
                   engine::Slice(wide, 37, 37 + n).ValueOrDie());
  std::vector<Oid> heads(n + 37);
  for (size_t i = 0; i < heads.size(); ++i) heads[i] = 1000 + 3 * i;
  auto hcol = Column::Make(TypeTag::kOid, std::move(heads));
  hcol->set_sorted(true);
  hcol->set_key(true);
  BatSide tail = BatSide::Materialized(make_tail(n + 37), 37);
  out.emplace_back("headed@37" + sz,
                   Bat::Make(BatSide::Materialized(hcol, 37), tail, n));
  return out;
}

// Shapes(n, make_tail) for every size in kSizes.
template <typename MakeTail>
Inputs SizeSweep(MakeTail make_tail) {
  Inputs out;
  for (size_t n : kSizes) {
    for (auto& shape : Shapes(n, make_tail)) out.push_back(std::move(shape));
  }
  return out;
}

// m ints in [-50, 950], about one in eight nil (none with nils = false).
ColumnPtr IntColumn(size_t m, uint64_t seed, bool nils = true) {
  Rng rng(seed + m);
  std::vector<int32_t> vals(m);
  for (int32_t& v : vals) {
    v = nils && rng.Uniform(8) == 0
            ? NilOf<int32_t>()
            : static_cast<int32_t>(rng.UniformRange(-50, 950));
  }
  return Column::Make(TypeTag::kInt, std::move(vals));
}

// m strings drawn from `words`; "" is the string nil.
ColumnPtr WordColumn(size_t m, uint64_t seed,
                     const std::vector<std::string>& words) {
  Rng rng(seed + m);
  std::vector<std::string> vals(m);
  for (std::string& v : vals) v = words[rng.Uniform(words.size())];
  return Column::Make(TypeTag::kStr, std::move(vals));
}

// --- range select -----------------------------------------------------------

// Every bound shape and inclusivity over `b`, against the reference.
void ExpectRangeSelectParity(const std::string& name, const BatPtr& b) {
  struct Bounds {
    Scalar lo, hi;
  };
  std::vector<Bounds> sweeps{
      {Scalar::Int(100), Scalar::Int(299)},
      {Scalar::Int(-50), Scalar::Int(-50)},            // point range
      {Scalar::Int(900), Scalar::Int(100)},            // empty range
      {Scalar::Int(-60), Scalar::Int(960)},            // every non-nil row
      {Scalar::Nil(TypeTag::kInt), Scalar::Int(200)},  // unbounded below
      {Scalar::Int(800), Scalar::Nil(TypeTag::kInt)},  // unbounded above
      {Scalar::Nil(TypeTag::kInt), Scalar::Nil(TypeTag::kInt)},
  };
  for (const Bounds& s : sweeps) {
    for (bool lo_inc : {true, false}) {
      for (bool hi_inc : {true, false}) {
        auto vec = engine::Select(b, s.lo, s.hi, lo_inc, hi_inc).ValueOrDie();
        auto ref =
            engine::scalar_ref::ScanRangeSelect(b, s.lo, s.hi, lo_inc, hi_inc)
                .ValueOrDie();
        std::string ctx = name + " select [" + s.lo.ToString() + ",";
        ctx += s.hi.ToString() + "] inc=" + std::to_string(lo_inc);
        ExpectSameResult(vec, ref, ctx + std::to_string(hi_inc));
      }
    }
  }
}

TEST(VecKernelParityTest, SelectBoundsAndInclusivitySweep) {
  ExpectRangeSelectParity("n=4096", RandomIntBat(4096, 201, -50, 950, 2));
  for (const auto& [name, b] :
       SizeSweep([](size_t m) { return IntColumn(m, 201); })) {
    ExpectRangeSelectParity(name, b);
  }
}

TEST(VecKernelParityTest, SelectOverViewWithOffset) {
  // Slices exercise the side-offset path of the batched kernels.
  BatPtr b = RandomIntBat(1024, 202, 0, 99, 1);
  BatPtr view = engine::Slice(b, 100, 900).ValueOrDie();
  auto vec = engine::Select(view, Scalar::Int(20), Scalar::Int(60), true, false)
                 .ValueOrDie();
  auto ref = engine::scalar_ref::ScanRangeSelect(view, Scalar::Int(20),
                                                 Scalar::Int(60), true, false)
                 .ValueOrDie();
  ExpectSameBat(vec, ref, "select over slice");
}

// --- LIKE -------------------------------------------------------------------

TEST(VecKernelParityTest, LikePatternShapes) {
  Rng rng(203);
  std::vector<std::string> words{"promo", "PROMO", "promotion", "demo",
                                 "",      "p_omo", "pro%mo",    "xpromox",
                                 "brass", "BRASS", "steel",     "proximo"};
  std::vector<std::string> vals;
  for (int i = 0; i < 2000; ++i)
    vals.push_back(words[rng.Uniform(words.size())]);
  Inputs inputs =
      SizeSweep([&](size_t m) { return WordColumn(m, 203, words); });
  inputs.emplace_back(
      "n=2000", Bat::DenseHead(Column::Make(TypeTag::kStr, std::move(vals))));
  for (const auto& [name, b] : inputs) {
    for (const char* pat : {"promo", "promo%", "%omo", "%rom%", "p_omo",
                            "_romo", "%", "", "%pro%mo%", "%%", "de__"}) {
      auto vec = engine::LikeSelect(b, pat).ValueOrDie();
      auto ref = engine::scalar_ref::LikeSelect(b, pat).ValueOrDie();
      ExpectSameResult(vec, ref, name + " like '" + pat + "'");
    }
  }
}

// --- anti-uselect and nil filter --------------------------------------------

TEST(VecKernelParityTest, AntiUselectMatchesReference) {
  struct Case {
    std::string name;
    BatPtr b;
    Scalar key;
  };
  std::vector<Case> cases;
  for (const auto& [name, b] :
       SizeSweep([](size_t m) { return IntColumn(m, 209); })) {
    // A value the bat holds (when it has one) and one it lacks.
    Scalar held = Scalar::Int(7);
    if (b->size() > 0 && !b->TailAt(0).is_nil()) held = b->TailAt(0);
    for (const Scalar& key : {held, Scalar::Int(5000)})
      cases.push_back({name + " anti " + key.ToString(), b, key});
  }
  const std::vector<std::string> words{"promo", "demo", "", "steel"};
  for (const auto& [name, b] :
       SizeSweep([&](size_t m) { return WordColumn(m, 210, words); })) {
    for (const char* key : {"promo", "absent"})
      cases.push_back({name + " anti '" + key + "'", b, Scalar::Str(key)});
  }
  // A dense oid tail 50.. takes no predicate: the key sits outside the run,
  // at either end of it or inside.
  for (size_t n : kSizes) {
    BatPtr b = Bat::DenseDense(0, 50, n);
    const std::string name = "dense tail n=" + std::to_string(n) + " anti ";
    for (Oid k : {Oid{0}, Oid{50}, 50 + n / 2, 49 + n, 50 + n})
      cases.push_back({name + std::to_string(k), b, Scalar::OidVal(k)});
  }
  for (const Case& c : cases) {
    auto vec = engine::AntiUselect(c.b, c.key).ValueOrDie();
    auto ref = engine::scalar_ref::AntiUselect(c.b, c.key).ValueOrDie();
    ExpectSameResult(vec, ref, c.name);
  }
}

TEST(VecKernelParityTest, SelectNotNilMatchesReference) {
  const std::vector<std::string> words{"promo", "demo", "", "steel"};
  Inputs inputs = SizeSweep([](size_t m) { return IntColumn(m, 211); });
  for (auto& input :
       SizeSweep([&](size_t m) { return WordColumn(m, 212, words); }))
    inputs.push_back(std::move(input));
  for (const auto& [name, b] :
       SizeSweep([](size_t m) { return IntColumn(m, 213, false); })) {
    // Nothing to drop: the input comes back as it is.
    EXPECT_EQ(engine::SelectNotNil(b).ValueOrDie(), b) << name;
    inputs.emplace_back(name + " no nils", b);
  }
  for (const auto& [name, b] : inputs) {
    auto vec = engine::SelectNotNil(b).ValueOrDie();
    auto ref = engine::scalar_ref::SelectNotNil(b).ValueOrDie();
    ExpectSameResult(vec, ref, name + " not-nil");
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
  BatPtr l = Bat::Make(BatSide::Dense(0),
                       BatSide::Materialized(Column::Make(
                           TypeTag::kOid, std::vector<Oid>{1, 2, 3})),
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
  // Dense-headed lefts (heads 7.. and 37..) take the bitmap path.
  Inputs lefts = SizeSweep([](size_t m) { return IntColumn(m, 214); });
  lefts.emplace_back("hashed",
                     KeyedBat(std::move(lheads), std::move(ltails), false));
  // r's heads: duplicates, nils, and oids below, inside and past each
  // left's head range.
  std::vector<Oid> rheads;
  std::vector<int32_t> rtails;
  for (int i = 0; i < 300; ++i) {
    rheads.push_back(rng.Uniform(12) == 0 ? kNilOid : rng.Uniform(500));
    rtails.push_back(i);
  }
  for (size_t n : kSizes) {
    for (Oid edge :
         {Oid{6}, Oid{7}, Oid{36}, Oid{37}, 6 + n, 7 + n, 36 + n, 37 + n}) {
      rheads.push_back(edge);
      rtails.push_back(-1);
    }
  }
  BatPtr r = KeyedBat(rheads, std::move(rtails), false);
  std::vector<Scalar> rvals;
  for (Oid h : rheads) rvals.push_back(Scalar::OidVal(h));

  for (const auto& [name, l] : lefts) {
    auto semi = engine::Semijoin(l, r).ValueOrDie();
    auto anti = engine::AntiSemijoin(l, r).ValueOrDie();
    auto ref = engine::scalar_ref::Semijoin(l, r).ValueOrDie();
    ExpectSameResult(semi, ref, name + " semijoin");
    // The two partitions cover l exactly, in order.
    ASSERT_EQ(semi->size() + anti->size(), l->size()) << name;
    size_t si = 0, ai = 0;
    for (size_t i = 0; i < l->size(); ++i) {
      Scalar h = l->HeadAt(i);
      bool present = false;
      for (const Scalar& v : rvals) {
        if (!h.is_nil() && h == v) {
          present = true;
          break;
        }
      }
      if (present) {
        ASSERT_EQ(semi->HeadAt(si), h) << name << " semijoin order @" << i;
        ASSERT_EQ(semi->TailAt(si), l->TailAt(i)) << name;
        ++si;
      } else {
        ASSERT_EQ(anti->HeadAt(ai), h) << name << " anti order @" << i;
        ++ai;
      }
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
