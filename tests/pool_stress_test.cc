// Randomized stress tests for the recycle pool's bookkeeping invariants:
// whatever sequence of admissions, hits, evictions and invalidations occurs,
// the memory accounting, lineage counters and index structures must stay
// mutually consistent.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "core/concurrent_recycler.h"
#include "core/policies.h"
#include "core/recycle_pool.h"
#include "core/recycler.h"
#include "core/recycler_optimizer.h"
#include "interp/interpreter.h"
#include "mal/plan_builder.h"
#include "util/rng.h"
#include "util/timer.h"

namespace recycledb {
namespace {

BatPtr FreshBat(size_t n) {
  return Bat::DenseHead(
      Column::Make(TypeTag::kLng, std::vector<int64_t>(n, 1)));
}

/// Recomputes what total_bytes() should be by walking every live entry's
/// result columns (deduplicated, non-persistent).
size_t ExpectedBytes(const RecyclePool& pool) {
  std::map<const Column*, size_t> cols;
  for (const PoolEntry* e : pool.Entries()) {
    for (const MalValue& v : e->results) {
      if (!v.is_bat()) continue;
      const Column* h = v.bat()->head().col.get();
      const Column* t = v.bat()->tail().col.get();
      if (h && !h->persistent()) cols[h] = h->MemoryBytes();
      if (t && !t->persistent()) cols[t] = t->MemoryBytes();
    }
  }
  size_t total = 0;
  for (auto& [c, b] : cols) total += b;
  return total;
}

class PoolStress : public ::testing::TestWithParam<int> {};

TEST_P(PoolStress, AccountingStaysConsistentUnderRandomOps) {
  Rng rng(GetParam());
  RecyclePool pool;
  std::vector<uint64_t> ids;
  std::vector<BatPtr> live_bats;  // candidate argument bats

  ColumnId col_a{0, 0}, col_b{0, 1}, col_c{1, 0};

  for (int step = 0; step < 400; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.55 || ids.empty()) {
      // Admit: randomly chain off an existing result or start fresh.
      PoolEntry e;
      e.op = rng.Bernoulli(0.5) ? Opcode::kSelectNotNil : Opcode::kKunique;
      BatPtr arg;
      if (!live_bats.empty() && rng.Bernoulli(0.6)) {
        arg = live_bats[rng.Uniform(live_bats.size())];
      } else {
        arg = FreshBat(rng.Uniform(64) + 1);
      }
      e.args.emplace_back(arg);
      e.args.emplace_back(Scalar::Int(static_cast<int32_t>(step)));
      BatPtr result;
      if (rng.Bernoulli(0.25)) {
        // viewpoint-style result sharing the argument's column
        result = Bat::Make(arg->tail(), arg->head(), arg->size());
      } else {
        result = FreshBat(rng.Uniform(128) + 1);
      }
      e.results.emplace_back(result);
      e.result_rows = result->size();
      e.cost_ms = rng.NextDouble();
      e.deps = {rng.Bernoulli(0.5) ? col_a
                                   : (rng.Bernoulli(0.5) ? col_b : col_c)};
      e.admit_query = 1;
      e.last_query = 1;
      e.last_use_seq = static_cast<uint64_t>(step);
      ids.push_back(pool.Admit(std::move(e)));
      live_bats.push_back(result);
    } else if (dice < 0.8) {
      // Evict one leaf via a random policy.
      EvictionKind kind = static_cast<EvictionKind>(rng.Uniform(3));
      if (pool.num_entries() > 0) {
        EvictForEntries(&pool, kind, pool.num_entries(), 1,
                        /*protected_query=*/99, NowMillis(),
                        [](const PoolEntry&) {});
      }
    } else if (dice < 0.92) {
      // Touch a random entry (simulated hit).
      uint64_t id = ids[rng.Uniform(ids.size())];
      if (PoolEntry* e = pool.Get(id)) {
        ++e->reuses;
        e->global_reuse = true;
        e->last_use_seq = static_cast<uint64_t>(1000 + step);
      }
    } else {
      // Invalidate one column.
      pool.InvalidateColumns({rng.Bernoulli(0.5) ? col_a : col_c});
    }

    // --- invariants ---------------------------------------------------------
    ASSERT_EQ(pool.total_bytes(), ExpectedBytes(pool)) << "step " << step;
    size_t leaves = 0;
    for (const PoolEntry* e :
         const_cast<const RecyclePool&>(pool).Entries()) {
      ASSERT_GE(e->children, 0);
      if (e->IsLeaf()) ++leaves;
      // every live entry is reachable through FindExact by its own key
      ASSERT_NE(pool.FindExact(e->op, e->args), nullptr);
    }
    if (pool.num_entries() > 0) ASSERT_GT(leaves, 0u) << "step " << step;
  }

  // Drain completely through eviction: accounting must return to zero.
  while (pool.num_entries() > 0) {
    size_t before = pool.num_entries();
    EvictForEntries(&pool, EvictionKind::kLru, before, 1, 99, NowMillis(),
                    [](const PoolEntry&) {});
    ASSERT_LT(pool.num_entries(), before) << "eviction must make progress";
  }
  EXPECT_EQ(pool.total_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolStress,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class StripedPoolStressTest : public ::testing::TestWithParam<EvictionKind> {};

TEST_P(StripedPoolStressTest, MixedOpsRespectBudgetAndRollUp) {
  // Mixed admission/eviction/invalidation churn from several threads over a
  // striped pool with a byte budget (per-stripe budget slots, stripe-local
  // eviction, borrow/rebalance through the atomic ledger), once per
  // eviction policy that picks the stripe-local victims. Argument bats
  // are pre-selected to pin work onto several distinct stripes. At every
  // quiescent point: the budget holds across stripes, and the rolled-up
  // statistics equal the per-stripe sums exactly.
  RecyclerConfig cfg;
  cfg.pool_stripes = 8;
  cfg.max_bytes = 24 * 1024;
  cfg.eviction = GetParam();
  cfg.enable_subsumption = false;  // synthetic instructions, no candidates
  ConcurrentRecycler rec(cfg);
  ASSERT_EQ(rec.num_stripes(), 8u);

  PlanBuilder pb("stress");
  pb.ExportValue(pb.ConstInt(1), "x");
  Program prog = pb.Build();

  ColumnId col_a{0, 0}, col_b{0, 1};

  // Fixed argument bats covering at least half the stripes, so admissions,
  // hits and evictions demonstrably cross stripe boundaries.
  std::vector<BatPtr> arg_bats;
  std::set<size_t> covered;
  for (int i = 0; i < 64 && (covered.size() < 4 || arg_bats.size() < 8); ++i) {
    BatPtr b = FreshBat(32);
    std::vector<MalValue> probe{MalValue(b), MalValue(Scalar::Int(0))};
    covered.insert(rec.StripeOf(Opcode::kSelectNotNil, probe));
    arg_bats.push_back(b);
  }
  ASSERT_GE(covered.size(), 4u);

  const int kThreads = 4;
  const int kPhases = 3;
  const int kIters = 250;
  for (int phase = 0; phase < kPhases; ++phase) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, phase, t] {
        auto session = rec.NewSession();
        Rng rng(1000 * phase + t);
        session->BeginQuery(prog);
        for (int i = 0; i < kIters; ++i) {
          BatPtr arg = arg_bats[rng.Uniform(arg_bats.size())];
          std::vector<MalValue> args{
              MalValue(arg),
              MalValue(Scalar::Int(static_cast<int32_t>(rng.Uniform(48))))};
          RecyclerHook::InstrView view{&prog, static_cast<int>(rng.Uniform(8)),
                                       Opcode::kSelectNotNil, &args};
          std::vector<MalValue> rets;
          if (!session->OnEntry(view, &rets)) {
            std::vector<MalValue> results{
                MalValue(FreshBat(rng.Uniform(96) + 1))};
            session->OnExit(view, results, 0.01,
                            {rng.Bernoulli(0.5) ? col_a : col_b});
          }
          if (rng.Bernoulli(0.02)) rec.OnCatalogUpdate({col_a});
          if (i % 100 == 99) {
            session->EndQuery();
            session->BeginQuery(prog);
          }
        }
        session->EndQuery();
      });
    }
    for (auto& th : threads) th.join();

    // --- quiescent invariants ----------------------------------------------
    EXPECT_LE(rec.pool_bytes(), cfg.max_bytes)
        << "eviction (" << EvictionName(cfg.eviction)
        << ") violated the byte budget";
    RecyclerStats total = rec.stats();
    uint64_t sum_hits = 0, sum_admitted = 0, sum_evicted = 0;
    size_t sum_entries = 0, sum_bytes = 0;
    for (const auto& st : rec.stripe_stats()) {
      sum_hits += st.hits;
      sum_admitted += st.admitted;
      sum_evicted += st.evicted;
      sum_entries += st.entries;
      sum_bytes += st.bytes;
    }
    EXPECT_EQ(total.hits, sum_hits);
    EXPECT_EQ(total.admitted, sum_admitted);
    EXPECT_EQ(total.evicted, sum_evicted);
    EXPECT_EQ(rec.pool_entries(), sum_entries);
    EXPECT_EQ(rec.pool_bytes(), sum_bytes);
  }

  // The workload must actually have exercised all three op classes, across
  // more than one stripe.
  RecyclerStats s = rec.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evicted, 0u) << "budget never forced an eviction";
  EXPECT_GT(s.invalidated, 0u);
  size_t stripes_touched = 0;
  for (const auto& st : rec.stripe_stats())
    if (st.admitted > 0) ++stripes_touched;
  EXPECT_GE(stripes_touched, 2u) << "work never spread across stripes";
}

INSTANTIATE_TEST_SUITE_P(BudgetModes, StripedPoolStressTest,
                         ::testing::Values(EvictionKind::kLru,
                                           EvictionKind::kBenefit));

TEST(InvalidationClosureTest, RandomWorkloadSurvivesRandomInvalidation) {
  // Interleave query execution with invalidation of random columns and
  // assert the interpreter keeps producing correct results.
  auto make_cat = [] {
    auto cat = std::make_unique<Catalog>();
    cat->CreateTable("t", {{"a", TypeTag::kInt}, {"b", TypeTag::kInt}});
    Rng rng(6);
    std::vector<int32_t> a(3000), b(3000);
    for (int i = 0; i < 3000; ++i) {
      a[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
      b[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
    }
    EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "a", std::move(a)).ok());
    EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "b", std::move(b)).ok());
    return cat;
  };
  auto cat = make_cat();
  auto cat2 = make_cat();

  PlanBuilder pb("q");
  int lo = pb.Param("A0");
  int hi = pb.Param("A1");
  int a = pb.Bind("t", "a");
  int sel = pb.Select(a, lo, hi, true, true);
  int cand = pb.Reverse(pb.MarkT(sel, 0));
  int bb = pb.Join(cand, pb.Bind("t", "b"));
  pb.ExportValue(pb.AggrSum(bb), "s");
  Program p = pb.Build();
  MarkForRecycling(&p);

  Recycler rec;
  Interpreter recycled(cat.get(), &rec);
  Interpreter plain(cat2.get());
  ColumnId ca = cat->GetColumnId("t", "a").ValueOrDie();
  ColumnId cb = cat->GetColumnId("t", "b").ValueOrDie();

  Rng rng(77);
  for (int i = 0; i < 80; ++i) {
    int l = static_cast<int>(rng.UniformRange(0, 900));
    int h = l + static_cast<int>(rng.UniformRange(0, 300));
    auto r1 = recycled.Run(p, {Scalar::Int(l), Scalar::Int(h)}).ValueOrDie();
    auto r2 = plain.Run(p, {Scalar::Int(l), Scalar::Int(h)}).ValueOrDie();
    ASSERT_EQ(r1.Find("s")->scalar(), r2.Find("s")->scalar());
    if (rng.Bernoulli(0.2)) {
      rec.OnCatalogUpdate({rng.Bernoulli(0.5) ? ca : cb});
    }
  }
  EXPECT_GT(rec.stats().invalidated, 0u);
  EXPECT_GT(rec.stats().hits, 0u);
}

}  // namespace
}  // namespace recycledb
