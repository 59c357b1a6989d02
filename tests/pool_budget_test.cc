// The recycle pool's budget ledger (PoolBudget: slots, borrowing, pressure
// and slack epochs, conservation) and the ConcurrentRecycler's per-stripe
// budgets built on it — budgeted admission without any all-stripe lock,
// stripe-local eviction, borrow/rebalance under skewed stripe load, and the
// budget invariant under concurrent churn (a TSan target).

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/concurrent_recycler.h"
#include "core/pool_budget.h"
#include "pool_test_driver.h"
#include "util/rng.h"

namespace recycledb {
namespace {

using testutil::BoundedCfg;
using testutil::ColdBats;
using testutil::FreshBat;
using testutil::SynthDriver;

// ---------------------------------------------------------------------------
// Budget ledger semantics.
// ---------------------------------------------------------------------------

TEST(GovernorLedgerTest, AcquireReleaseConservesTheBudget) {
  PoolBudget budget(/*max_bytes=*/1000, /*max_entries=*/10, /*num_slots=*/2);
  PoolBudget::Slot& a = budget.slot(0);  // base 500 B / 5 entries
  PoolBudget::Slot& b = budget.slot(1);

  EXPECT_EQ(a.AcquireBytesUpTo(400), 400u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(a.TryAcquireEntry());
  EXPECT_EQ(budget.free_bytes(), 600u);
  EXPECT_EQ(budget.free_entries(), 6u);
  EXPECT_EQ(a.borrows(), 0u);  // within base: not a borrow

  // b takes everything that is left — beyond its base share: a borrow.
  EXPECT_EQ(b.AcquireBytesUpTo(600), 600u);
  EXPECT_EQ(b.borrows(), 1u);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(b.TryAcquireEntry());
  EXPECT_EQ(budget.free_bytes(), 0u);

  // Conservation at every instant: free + Σ held == max.
  EXPECT_EQ(budget.free_bytes() + a.held_bytes() + b.held_bytes(), 1000u);
  EXPECT_EQ(budget.free_entries() + a.held_entries() + b.held_entries(), 10u);

  // An under-base slot starving raises the pressure epoch...
  EXPECT_EQ(a.AcquireBytesUpTo(1), 0u);
  EXPECT_EQ(a.denied(), 1u);
  EXPECT_GE(budget.pressure_epoch(), 1u);
  // ...which only the beyond-base holder observes, and only once per epoch.
  EXPECT_FALSE(a.SeesPressure());
  EXPECT_TRUE(b.SeesPressure());
  EXPECT_FALSE(b.SeesPressure());

  b.Release(600, 6);
  EXPECT_EQ(a.AcquireBytesUpTo(100), 100u);
  EXPECT_TRUE(a.TryAcquireEntry());

  // Over-release clamps at held: a caller bug must not mint capacity.
  a.Release(100000, 1000);
  b.Release(100000, 1000);
  EXPECT_EQ(budget.free_bytes(), 1000u);
  EXPECT_EQ(budget.free_entries(), 10u);
}

TEST(GovernorLedgerTest, PartialByteGrantsDrainTheLedgerExactly) {
  PoolBudget budget(/*max_bytes=*/100, /*max_entries=*/0, /*num_slots=*/2);
  PoolBudget::Slot& l = budget.slot(0);  // base 50 B
  EXPECT_EQ(l.AcquireBytesUpTo(70), 70u);
  EXPECT_EQ(l.AcquireBytesUpTo(70), 30u);  // only 30 left
  EXPECT_EQ(l.AcquireBytesUpTo(70), 0u);
  EXPECT_EQ(l.held_bytes(), 100u);
  EXPECT_EQ(budget.free_bytes(), 0u);
  EXPECT_GE(l.borrows(), 1u);
}

TEST(GovernorLedgerTest, UnlimitedResourceAlwaysGrants) {
  // Bytes unlimited; 4 entries split into two slots of base 2.
  PoolBudget budget(/*max_bytes=*/0, /*max_entries=*/4, /*num_slots=*/2);
  PoolBudget::Slot& l = budget.slot(0);
  EXPECT_EQ(l.AcquireBytesUpTo(1 << 30), size_t{1} << 30);
  EXPECT_EQ(l.AcquireBytesUpTo(1 << 30), size_t{1} << 30);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(l.TryAcquireEntry());
  EXPECT_FALSE(l.TryAcquireEntry());  // entries ARE limited
  EXPECT_EQ(l.held_entries(), 4u);
}

// A standalone Recycler's budget is one slot holding the whole budget: a
// short ledger always means the slot is at its base, so starvation asks
// only for slack and never raises pressure.
TEST(PoolBudgetTest, SingleSlotNeverRaisesPressure) {
  PoolBudget budget(/*max_bytes=*/100, /*max_entries=*/2, /*num_slots=*/1);
  PoolBudget::Slot& s = budget.slot(0);
  EXPECT_EQ(s.base_bytes(), 100u);
  EXPECT_EQ(s.base_entries(), 2u);
  EXPECT_EQ(s.AcquireBytesUpTo(60), 60u);
  EXPECT_EQ(s.AcquireBytesUpTo(60), 40u);
  EXPECT_TRUE(s.TryAcquireEntry());
  EXPECT_TRUE(s.TryAcquireEntry());
  EXPECT_FALSE(s.TryAcquireEntry());
  EXPECT_EQ(s.AcquireBytesUpTo(1), 0u);
  EXPECT_EQ(budget.pressure_epoch(), 0u);
  EXPECT_TRUE(s.SeesSlackRequest());
  EXPECT_FALSE(s.SeesPressure());
  EXPECT_EQ(s.borrows(), 0u);
  EXPECT_EQ(budget.free_bytes() + s.held_bytes(), 100u);
  EXPECT_EQ(budget.free_entries() + s.held_entries(), 2u);
}

// ---------------------------------------------------------------------------
// Per-stripe budgeted admission on a striped pool.
// ---------------------------------------------------------------------------

// A budgeted admission-heavy workload performs ZERO all-stripe lock
// acquisitions: each admission charges its own stripe's budget slot and
// evicts within that stripe, under that stripe's lock alone.
TEST(PerStripeBudgetTest, BudgetedAdmissionTakesNoAllStripeLock) {
  RecyclerConfig cfg = BoundedCfg(48 * 1024);
  ConcurrentRecycler rec(cfg);
  SynthDriver d(&rec);
  Rng rng(99);
  std::vector<BatPtr> bats;
  for (int i = 0; i < 12; ++i) bats.push_back(FreshBat(4));
  for (int i = 0; i < 400; ++i)
    d.Step(bats[rng.Uniform(bats.size())], static_cast<int>(rng.Uniform(40)),
           128);

  EXPECT_EQ(rec.all_stripe_ops(), 0u)
      << "a budgeted admission locked every stripe";
  EXPECT_LE(rec.pool_bytes(), cfg.max_bytes);
  EXPECT_GT(rec.stats().evicted, 0u) << "budget never forced an eviction";
}

// Skewed stripe load under a small per-stripe budget. One stripe receives
// ~10x the bytes of any other; the hot stripe borrows the idle stripes'
// unused share through the ledger, so its replay hit ratio stays high.
// A slot hard-capped at its max/N share (12 KB, 6 hot entries) could
// replay at most 6 of the 40 hot entries; borrowing must replay over 30.
// The budget must hold THROUGHOUT the run.
TEST(PerStripeBudgetTest, SkewedLoadBorrowBeatsTheNoBorrowAblation) {
  constexpr size_t kBudget = 96 * 1024;
  constexpr int kHot = 40;       // hot-stripe entries ...
  constexpr size_t kRows = 256;  // ... of ~2 KB each: ~80 KB on one stripe

  ConcurrentRecycler rec(BoundedCfg(kBudget));
  SynthDriver d(&rec);
  BatPtr hot = FreshBat(4);  // all keys over one bat: one stripe
  std::vector<BatPtr> cold = ColdBats(rec, hot, 6);

  uint64_t replay_hits = 0;
  for (int wave = 0; wave < 2; ++wave) {
    uint64_t hits = 0;
    for (int i = 0; i < kHot; ++i) {
      if (d.Step(hot, i, kRows)) ++hits;
      ASSERT_LE(rec.pool_bytes(), kBudget) << "budget violated mid-workload";
    }
    for (size_t c = 0; c < cold.size(); ++c) {
      d.Step(cold[c], 0, 16);  // light cold traffic on other stripes
      ASSERT_LE(rec.pool_bytes(), kBudget);
    }
    if (wave == 1) replay_hits = hits;
  }
  uint64_t borrows = 0;
  for (const auto& st : rec.stripe_stats()) borrows += st.borrows;

  EXPECT_EQ(rec.all_stripe_ops(), 0u);
  EXPECT_GT(borrows, 0u) << "the hot stripe never borrowed";
  EXPECT_GT(replay_hits, static_cast<uint64_t>(kHot) * 3 / 4)
      << "borrowing stripe should hold nearly the whole hot set";
}

// Pressure/rebalance: a hot stripe that borrowed most of the budget sheds
// back to its fair share when an under-share stripe starves.
TEST(PerStripeBudgetTest, PressureRebalancesTheBorrowingStripe) {
  constexpr size_t kBudget = 32 * 1024;  // base = 4 KB per stripe
  ConcurrentRecycler rec(BoundedCfg(kBudget));
  // ~28 KB borrowed by one stripe, then cold stripes starve and raise
  // pressure; the hot stripe sheds at its next admission.
  testutil::DriveStripeSkew(&rec);

  uint64_t rebalances = 0;
  for (const auto& st : rec.stripe_stats()) rebalances += st.rebalances;
  EXPECT_GT(rebalances, 0u) << "pressure never triggered a shed";
  EXPECT_LE(rec.pool_bytes(), kBudget);
  EXPECT_EQ(rec.all_stripe_ops(), 0u);
}

// A stripe that stops admitting but keeps serving hits must still answer
// the budget from the PROBE path: after an under-share stripe starves, the
// borrowing hit-only stripe sheds to base and the capacity reappears in
// the free ledger.
TEST(PerStripeBudgetTest, HitOnlyStripeShedsOnPressureFromTheProbePath) {
  constexpr size_t kBudget = 32 * 1024;  // base = 4 KB per stripe
  ConcurrentRecycler rec(BoundedCfg(kBudget));
  SynthDriver d(&rec);

  BatPtr hot = FreshBat(4);
  for (int i = 0; i < 14; ++i) d.Step(hot, i, 256);  // borrow ~28 KB

  // Under-base stripes starve on the dry ledger: pressure is raised.
  std::vector<BatPtr> cold = ColdBats(rec, hot, 4);
  for (size_t c = 0; c < cold.size(); ++c) d.Step(cold[c], 0, 256);

  // The hot stripe now sees PROBE traffic only (replays are hits or, after
  // the shed, misses that re-admit) — no all-stripe op ever runs, yet the
  // shed must fire and return capacity to the ledger.
  uint64_t rebal_before = 0;
  for (const auto& st : rec.stripe_stats()) rebal_before += st.rebalances;
  for (int i = 0; i < 3; ++i) d.Step(hot, 13, 256);
  uint64_t rebal_after = 0;
  for (const auto& st : rec.stripe_stats()) rebal_after += st.rebalances;
  EXPECT_GT(rebal_after, rebal_before)
      << "the probe path never serviced budget pressure";
  EXPECT_LE(rec.pool_bytes(), kBudget);
  EXPECT_EQ(rec.all_stripe_ops(), 0u);
  ASSERT_NE(rec.budget(), nullptr);
  EXPECT_GT(rec.budget()->free_bytes(), 0u)
      << "shed capacity never hit the ledger";
}

// Concurrent churn with skew: the budget invariant must hold at every
// quiescent point while threads admit/hit/evict across stripes and commits
// invalidate. (Mid-run, a non-atomic sum over stripes is not an instant
// snapshot — capacity legitimately migrates between stripes through the
// ledger — so the check lands at the phase barriers, exactly like the
// striped mixed-ops stress.) Run under TSan in CI.
TEST(PerStripeBudgetTest, ConcurrentSkewedChurnHoldsTheBudget) {
  constexpr size_t kBudget = 48 * 1024;
  ConcurrentRecycler rec(BoundedCfg(kBudget));

  BatPtr hot = FreshBat(4);
  std::vector<BatPtr> cold;
  for (int i = 0; i < 8; ++i) cold.push_back(FreshBat(4));

  // Recently produced result bats, shared across threads: feeding one back
  // as an argument creates a cross-stripe lineage edge onto its producer's
  // entry, so stripe-local evictions race against re-parenting admissions —
  // the regression surface for leaves-only eviction without all-stripe
  // locks.
  std::mutex ring_mu;
  std::vector<BatPtr> ring;

  const int kThreads = 4;
  for (int phase = 0; phase < 3; ++phase) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, phase, t] {
        SynthDriver d(&rec);
        Rng rng(500 + 10 * phase + t);
        for (int i = 0; i < 300; ++i) {
          bool hot_op = rng.Bernoulli(0.7);  // skew towards one stripe
          BatPtr arg = hot_op ? hot : cold[rng.Uniform(cold.size())];
          if (rng.Bernoulli(0.3)) {
            std::lock_guard<std::mutex> lock(ring_mu);
            if (!ring.empty()) arg = ring[rng.Uniform(ring.size())];
          }
          BatPtr produced;
          d.Step(arg, static_cast<int>(rng.Uniform(60)), hot_op ? 192 : 24,
                 &produced);
          if (produced != nullptr) {
            std::lock_guard<std::mutex> lock(ring_mu);
            ring.push_back(std::move(produced));
            if (ring.size() > 32) ring.erase(ring.begin());
          }
          if (rng.Bernoulli(0.01)) rec.OnCatalogUpdate({ColumnId{0, 0}});
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_LE(rec.pool_bytes(), kBudget) << "phase " << phase;
    // Conservation at the barrier: free + Σ held == budget.
    size_t held = 0;
    for (const auto& st : rec.stripe_stats()) held += st.budget_held_bytes;
    EXPECT_EQ(rec.budget()->free_bytes() + held, kBudget) << "phase " << phase;
  }

  RecyclerStats s = rec.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evicted, 0u);
  uint64_t borrows = 0;
  for (const auto& st : rec.stripe_stats()) borrows += st.borrows;
  EXPECT_GT(borrows, 0u);

  // Roll-up stays exact.
  size_t sum_bytes = 0, sum_entries = 0;
  for (const auto& st : rec.stripe_stats()) {
    sum_bytes += st.bytes;
    sum_entries += st.entries;
  }
  EXPECT_EQ(rec.pool_bytes(), sum_bytes);
  EXPECT_EQ(rec.pool_entries(), sum_entries);
}

}  // namespace
}  // namespace recycledb
