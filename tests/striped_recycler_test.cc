// Striped-pool correctness: driven single-threaded, a ConcurrentRecycler
// must make IDENTICAL hit/miss/admission/eviction decisions to a plain
// (unstriped) Recycler — same pool contents, same stats totals — with N
// stripes on a fig4-style (unlimited, subsumption-heavy) workload, and with
// one stripe under fig10-style entry and byte budgets (its budget slot
// then covers the whole budget, and a standalone Recycler runs the same
// admission code with its own one-slot budget). Plus: the CREDIT/ADAPT
// exact-hit path must stay on the shared lock (asserted via the stripe
// contention counters), and the stripe key must co-locate subsumption
// candidates.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/concurrent_recycler.h"
#include "core/recycler.h"
#include "core/recycler_optimizer.h"
#include "interp/interpreter.h"
#include "mal/plan_builder.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace recycledb {
namespace {

Catalog* TinyTpch() {
  static std::unique_ptr<Catalog> cat = [] {
    auto c = std::make_unique<Catalog>();
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.002;
    EXPECT_TRUE(tpch::LoadTpch(c.get(), cfg).ok());
    return c;
  }();
  return cat.get();
}

/// A fig4/fig10-style batch: repeated instances of a few TPC-H templates
/// with parameters drawn from a seeded generator, so two runs replay the
/// exact same instruction stream.
struct Batch {
  std::vector<tpch::QueryTemplate> templates;
  std::vector<std::pair<int, std::vector<Scalar>>> queries;
};

Batch MakeBatch(const std::vector<int>& qnums, int instances, uint64_t seed) {
  Batch b;
  for (int qn : qnums) b.templates.push_back(tpch::BuildQuery(qn));
  Rng rng(seed);
  for (int i = 0; i < instances; ++i) {
    for (size_t t = 0; t < b.templates.size(); ++t) {
      b.queries.emplace_back(static_cast<int>(t),
                             b.templates[t].gen_params(rng));
    }
  }
  return b;
}

struct RunOutcome {
  RecyclerStats stats;
  std::vector<std::string> content;
  size_t entries = 0;
  size_t bytes = 0;
};

RunOutcome RunUnstriped(const Batch& b, RecyclerConfig cfg) {
  Recycler rec(cfg);
  Interpreter interp(TinyTpch(), &rec);
  for (const auto& [t, params] : b.queries) {
    auto r = interp.Run(b.templates[t].prog, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  RunOutcome out;
  out.stats = rec.stats();
  const RecyclePool& pool = rec.pool();
  for (const PoolEntry* e : pool.Entries())
    out.content.push_back(RecyclePool::EntrySignature(*e));
  std::sort(out.content.begin(), out.content.end());
  out.entries = pool.num_entries();
  out.bytes = pool.total_bytes();
  return out;
}

RunOutcome RunStriped(const Batch& b, RecyclerConfig cfg) {
  ConcurrentRecycler rec(cfg);
  auto session = rec.NewSession();
  Interpreter interp(TinyTpch(), session.get());
  for (const auto& [t, params] : b.queries) {
    auto r = interp.Run(b.templates[t].prog, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  RunOutcome out;
  out.stats = rec.stats();
  out.content = rec.ContentSignature();
  out.entries = rec.pool_entries();
  out.bytes = rec.pool_bytes();
  return out;
}

/// Compares every deterministic (non-timing) statistic. Measured times
/// (time_saved_ms, match_ms, ...) differ between runs by construction.
void ExpectSameDecisions(const RunOutcome& unstriped,
                         const RunOutcome& striped) {
  EXPECT_EQ(unstriped.stats.monitored, striped.stats.monitored);
  EXPECT_EQ(unstriped.stats.hits, striped.stats.hits);
  EXPECT_EQ(unstriped.stats.exact_hits, striped.stats.exact_hits);
  EXPECT_EQ(unstriped.stats.subsumed_hits, striped.stats.subsumed_hits);
  EXPECT_EQ(unstriped.stats.combined_hits, striped.stats.combined_hits);
  EXPECT_EQ(unstriped.stats.local_hits, striped.stats.local_hits);
  EXPECT_EQ(unstriped.stats.global_hits, striped.stats.global_hits);
  EXPECT_EQ(unstriped.stats.admitted, striped.stats.admitted);
  EXPECT_EQ(unstriped.stats.rejected, striped.stats.rejected);
  EXPECT_EQ(unstriped.stats.evicted, striped.stats.evicted);
  EXPECT_EQ(unstriped.stats.invalidated, striped.stats.invalidated);
  EXPECT_EQ(unstriped.entries, striped.entries);
  EXPECT_EQ(unstriped.bytes, striped.bytes);
  EXPECT_EQ(unstriped.content, striped.content);
}

TEST(StripedParityTest, Fig4StyleUnlimitedSubsumption) {
  // Q11 (intra-query commonality) + Q18 (inter-query) + Q19 (subsumable
  // selections), KEEPALL/unlimited: the fig4 setting.
  Batch b = MakeBatch({11, 18, 19}, 6, 42);
  RecyclerConfig cfg;  // defaults: KEEPALL, unlimited, subsumption on
  cfg.pool_stripes = 16;
  RunOutcome u = RunUnstriped(b, cfg);
  RunOutcome s = RunStriped(b, cfg);
  ExpectSameDecisions(u, s);
  EXPECT_GT(s.stats.hits, 0u);
  EXPECT_GT(s.stats.subsumed_hits + s.stats.combined_hits, 0u)
      << "workload never exercised the subsumption path";
}

TEST(StripedParityTest, Fig10StyleBoundedEntriesLru) {
  // Entry-budget eviction (the fig10 setting, LRU policy — deterministic
  // victim order via the logical clock). One stripe's slot holds the whole
  // budget and evicts exactly like the unstriped pool; with more stripes
  // victims are chosen stripe-locally (covered by pool_budget_test).
  Batch b = MakeBatch({4, 12, 19}, 8, 7);
  RecyclerConfig cfg;
  cfg.max_entries = 24;
  cfg.eviction = EvictionKind::kLru;
  cfg.pool_stripes = 1;
  RunOutcome u = RunUnstriped(b, cfg);
  RunOutcome s = RunStriped(b, cfg);
  ExpectSameDecisions(u, s);
  EXPECT_GT(s.stats.evicted, 0u) << "budget never forced an eviction";
  EXPECT_LE(s.entries, cfg.max_entries);
}

TEST(StripedParityTest, BoundedBytesAndCreditLedger) {
  // Byte budget + CREDIT admission: eviction refunds flow through the
  // shared concurrent ledger; decisions must still replay exactly.
  Batch b = MakeBatch({4, 12}, 10, 11);
  RecyclerConfig cfg;
  cfg.admission = AdmissionKind::kCredit;
  cfg.credits = 3;
  cfg.max_bytes = 96 * 1024;
  cfg.eviction = EvictionKind::kLru;
  cfg.pool_stripes = 1;
  RunOutcome u = RunUnstriped(b, cfg);
  RunOutcome s = RunStriped(b, cfg);
  ExpectSameDecisions(u, s);
  EXPECT_GT(s.stats.rejected, 0u) << "credits never ran out";
  EXPECT_LE(s.bytes, cfg.max_bytes);
}

// --- credit-regime hit path stays on the shared lock ------------------------

Program BuildRangeSum(Catalog* cat) {
  (void)cat;
  PlanBuilder pb("range_sum");
  int lo = pb.Param("A0");
  int hi = pb.Param("A1");
  int a = pb.Bind("t", "a");
  int sel = pb.Select(a, lo, hi, true, true);
  int cand = pb.Reverse(pb.MarkT(sel, 0));
  int bb = pb.Join(cand, pb.Bind("t", "b"));
  pb.ExportValue(pb.AggrSum(bb), "s");
  Program p = pb.Build();
  MarkForRecycling(&p);
  return p;
}

std::unique_ptr<Catalog> MakeSmallDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"a", TypeTag::kInt}, {"b", TypeTag::kInt}});
  Rng rng(6);
  std::vector<int32_t> a(2000), b(2000);
  for (int i = 0; i < 2000; ++i) {
    a[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
    b[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
  }
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "a", std::move(a)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "b", std::move(b)).ok());
  return cat;
}

class CreditHitPathTest : public ::testing::TestWithParam<AdmissionKind> {};

TEST_P(CreditHitPathTest, ExactHitsNeverTakeTheExclusiveLock) {
  auto cat = MakeSmallDb();
  Program prog = BuildRangeSum(cat.get());

  RecyclerConfig cfg;
  cfg.admission = GetParam();
  cfg.credits = 5;
  ConcurrentRecycler rec(cfg);
  auto session = rec.NewSession();
  Interpreter interp(cat.get(), session.get());

  auto excl_total = [&rec] {
    uint64_t n = 0;
    for (const auto& st : rec.stripe_stats()) n += st.excl_acquisitions;
    return n;
  };

  // First run admits (exclusive acquisitions happen here).
  std::vector<Scalar> params{Scalar::Int(100), Scalar::Int(400)};
  auto r0 = interp.Run(prog, params);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  uint64_t excl_after_admission = excl_total();
  EXPECT_GT(excl_after_admission, 0u);
  uint64_t hits_before = rec.stats().hits;

  // Replays are pure exact hits: under the concurrent credit ledger they
  // must resolve entirely under the shared lock — the regression guard for
  // "CREDIT/ADAPT hits no longer upgrade to exclusive".
  for (int i = 0; i < 20; ++i) {
    auto r = interp.Run(prog, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(excl_total(), excl_after_admission)
      << "a credit-regime exact hit took a stripe's exclusive lock";
  EXPECT_GT(rec.stats().hits, hits_before);
  uint64_t shared_total = 0;
  for (const auto& st : rec.stripe_stats())
    shared_total += st.shared_acquisitions;
  EXPECT_GT(shared_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Regimes, CreditHitPathTest,
                         ::testing::Values(AdmissionKind::kCredit,
                                           AdmissionKind::kAdaptiveCredit,
                                           AdmissionKind::kKeepAll));

// --- cross-stripe update propagation (§6.3) ---------------------------------

TEST(StripedRecyclerTest, PropagateUpdateRefreshesAcrossStripes) {
  // The select entry and the bind entry that produced its argument hash into
  // (usually) different stripes; propagation must still find the producer,
  // refresh the select over the insert delta, and re-admit it under the
  // fresh bind's (possibly different) stripe key.
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("orders", {{"o_orderkey", TypeTag::kOid},
                              {"o_orderdate", TypeTag::kDate},
                              {"o_totalprice", TypeTag::kDbl}});
  Rng rng(17);
  const int kRows = 1500;
  std::vector<Oid> keys(kRows);
  std::vector<int32_t> dates(kRows);
  std::vector<double> prices(kRows);
  for (int i = 0; i < kRows; ++i) {
    keys[i] = static_cast<Oid>(i);
    dates[i] = static_cast<int32_t>(rng.UniformRange(0, 2000));
    prices[i] = rng.UniformDouble(1, 1000);
  }
  ASSERT_TRUE(cat->LoadColumn<Oid>("orders", "o_orderkey", std::move(keys),
                                   true, true)
                  .ok());
  ASSERT_TRUE(
      cat->LoadColumn<int32_t>("orders", "o_orderdate", std::move(dates)).ok());
  ASSERT_TRUE(
      cat->LoadColumn<double>("orders", "o_totalprice", std::move(prices))
          .ok());

  PlanBuilder b("range_count");
  int lo = b.Param("A0");
  int hi = b.Param("A1");
  int date_col = b.Bind("orders", "o_orderdate");
  int sel = b.Select(date_col, lo, hi, true, false);
  int fetched = b.Join(b.Reverse(b.MarkT(sel, 0)),
                       b.Bind("orders", "o_totalprice"));
  b.ExportValue(b.AggrCount(fetched), "cnt");
  Program prog = b.Build();
  MarkForRecycling(&prog);

  ConcurrentRecycler rec(RecyclerConfig{});
  cat->SetUpdateListener([&](const std::vector<ColumnId>& cols, Catalog::UpdateKind) {
    rec.PropagateUpdate(cat.get(), cols);
  });
  auto session = rec.NewSession();
  Interpreter interp(cat.get(), session.get());

  std::vector<Scalar> params{Scalar::DateVal(0), Scalar::DateVal(1000)};
  auto before = interp.Run(prog, params);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Insert one row inside the cached range.
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(cat->Append(&ws, "orders",
                          {{Scalar::OidVal(77777), Scalar::DateVal(500),
                            Scalar::Dbl(3.0)}})
                  .ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  EXPECT_GT(rec.stats().propagated, 0u) << "no select entry was refreshed";

  uint64_t hits_before_rerun = rec.stats().hits;
  auto after = interp.Run(prog, params);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(rec.stats().hits, hits_before_rerun)
      << "the refreshed entry was never found by the re-run";
  EXPECT_EQ(after.value().Find("cnt")->scalar().AsLng(),
            before.value().Find("cnt")->scalar().AsLng() + 1)
      << "refreshed intermediate missed the inserted row";
}

// --- stripe keying ----------------------------------------------------------

TEST(StripeKeyTest, SubsumptionCandidatesColocateAndKeysSpread) {
  ConcurrentRecycler rec(RecyclerConfig{});
  ASSERT_EQ(rec.num_stripes(), 16u);

  auto bat = Bat::DenseHead(
      Column::Make(TypeTag::kLng, std::vector<int64_t>(8, 1)));
  std::vector<MalValue> sel_args{MalValue(bat), MalValue(Scalar::Int(1)),
                                 MalValue(Scalar::Int(5))};
  std::vector<MalValue> usel_args{MalValue(bat), MalValue(Scalar::Int(2)),
                                  MalValue(Scalar::Int(9))};
  // kSelect and kUselect over the same column share kSelect's candidate set
  // (Algorithm 1 subsumption), so they MUST share a stripe regardless of
  // their differing predicate arguments.
  EXPECT_EQ(rec.StripeOf(Opcode::kSelect, sel_args),
            rec.StripeOf(Opcode::kUselect, usel_args));
  EXPECT_EQ(rec.StripeOf(Opcode::kSelect, sel_args),
            rec.StripeOf(Opcode::kSelect, usel_args));

  // Distinct first-argument bats spread across stripes.
  std::set<size_t> seen;
  for (int i = 0; i < 64; ++i) {
    auto b = Bat::DenseHead(
        Column::Make(TypeTag::kLng, std::vector<int64_t>(4, i)));
    std::vector<MalValue> args{MalValue(b), MalValue(Scalar::Int(0))};
    seen.insert(rec.StripeOf(Opcode::kSelect, args));
  }
  EXPECT_GT(seen.size(), 8u) << "stripe key funnels everything together";
}

}  // namespace
}  // namespace recycledb
