// Unified memory governance: ResourceGovernor ledger semantics (leases,
// borrowing, pressure epochs, conservation), and the ConcurrentRecycler's
// per-stripe budgets built on it — budgeted admission without any
// all-stripe lock, stripe-local eviction, borrow/rebalance under skewed
// stripe load, and the budget invariant under concurrent churn (a TSan
// target).

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/concurrent_recycler.h"
#include "core/recycler.h"
#include "core/resource_governor.h"
#include "mal/plan_builder.h"
#include "util/rng.h"

namespace recycledb {
namespace {

// ---------------------------------------------------------------------------
// Governor ledger semantics.
// ---------------------------------------------------------------------------

TEST(GovernorLedgerTest, AcquireReleaseConservesTheBudget) {
  ResourceGovernor gov;
  ResourceGovernor::Domain* d = gov.AddDomain("d", {1000, 10});
  ResourceGovernor::Lease* a = d->CreateLease("a", 500, 5);
  ResourceGovernor::Lease* b = d->CreateLease("b", 500, 5);

  EXPECT_TRUE(a->TryAcquire(400, 4));
  EXPECT_EQ(d->free_bytes(), 600u);
  EXPECT_EQ(d->free_entries(), 6u);
  EXPECT_EQ(a->borrows(), 0u);  // within base: not a borrow

  // b takes everything that is left — beyond its base share: a borrow.
  EXPECT_TRUE(b->TryAcquire(600, 6));
  EXPECT_EQ(b->borrows(), 1u);
  EXPECT_EQ(d->free_bytes(), 0u);

  // Conservation at every instant: free + Σ held == max.
  EXPECT_EQ(d->free_bytes() + a->held_bytes() + b->held_bytes(), 1000u);
  EXPECT_EQ(d->free_entries() + a->held_entries() + b->held_entries(), 10u);

  // An under-base lease starving raises the pressure epoch...
  EXPECT_FALSE(a->TryAcquire(1, 0));
  EXPECT_EQ(a->denied(), 1u);
  EXPECT_GE(d->pressure_epoch(), 1u);
  // ...which only the beyond-base holder observes, and only once per epoch.
  EXPECT_FALSE(a->SeesPressure());
  EXPECT_TRUE(b->SeesPressure());
  EXPECT_FALSE(b->SeesPressure());

  b->Release(600, 6);
  EXPECT_TRUE(a->TryAcquire(100, 1));

  // Over-release clamps at held: a consumer bug must not mint capacity.
  a->Release(100000, 1000);
  b->Release(100000, 1000);
  EXPECT_EQ(d->free_bytes(), 1000u);
  EXPECT_EQ(d->free_entries(), 10u);
}

TEST(GovernorLedgerTest, PartialByteGrantsDrainTheLedgerExactly) {
  ResourceGovernor gov;
  ResourceGovernor::Domain* d = gov.AddDomain("d", {100, 0});
  ResourceGovernor::Lease* l = d->CreateLease("l", 50, 0);
  EXPECT_EQ(l->AcquireBytesUpTo(70), 70u);
  EXPECT_EQ(l->AcquireBytesUpTo(70), 30u);  // only 30 left
  EXPECT_EQ(l->AcquireBytesUpTo(70), 0u);
  EXPECT_EQ(l->held_bytes(), 100u);
  EXPECT_EQ(d->free_bytes(), 0u);
  EXPECT_GE(l->borrows(), 1u);
}

TEST(GovernorLedgerTest, UnlimitedResourceAlwaysGrants) {
  ResourceGovernor gov;
  ResourceGovernor::Domain* d = gov.AddDomain("d", {0, 4});  // bytes unlimited
  ResourceGovernor::Lease* l = d->CreateLease("l", 0, 2);
  EXPECT_TRUE(l->TryAcquire(1 << 30, 2));
  EXPECT_TRUE(l->TryAcquire(1 << 30, 2));
  EXPECT_FALSE(l->TryAcquire(0, 1));  // entries ARE limited
  EXPECT_EQ(l->held_entries(), 4u);
}

// ---------------------------------------------------------------------------
// Per-stripe budgeted admission on a striped pool.
// ---------------------------------------------------------------------------

BatPtr FreshBat(size_t n) {
  return Bat::DenseHead(
      Column::Make(TypeTag::kLng, std::vector<int64_t>(n, 1)));
}

/// Synthetic single-threaded pool driver (the pool never executes
/// instructions itself, so opcode/args only need a consistent identity).
struct SynthDriver {
  Program prog;
  std::unique_ptr<ConcurrentRecycler::Session> session;

  explicit SynthDriver(ConcurrentRecycler* rec) {
    PlanBuilder pb("synth");
    pb.ExportValue(pb.ConstInt(1), "x");
    prog = pb.Build();
    session = rec->NewSession();
    session->BeginQuery(prog);
  }
  ~SynthDriver() { session->EndQuery(); }

  /// Offers (op over `arg`, keyed by `key`); returns true on a pool hit,
  /// otherwise admits a fresh `result_rows`-row result (8 B/row) and, if
  /// `produced` is given, hands that result bat back — feeding it into a
  /// later Step as the argument creates a cross-stripe lineage (children)
  /// edge onto this admission's entry.
  bool Step(const BatPtr& arg, int key, size_t result_rows,
            BatPtr* produced = nullptr) {
    std::vector<MalValue> args{MalValue(arg), MalValue(Scalar::Int(key))};
    RecyclerHook::InstrView view{&prog, key % 7, Opcode::kSelectNotNil, &args};
    std::vector<MalValue> rets;
    if (session->OnEntry(view, &rets)) return true;
    BatPtr out = FreshBat(result_rows);
    if (produced != nullptr) *produced = out;
    std::vector<MalValue> results{MalValue(std::move(out))};
    session->OnExit(view, results, 0.01, {ColumnId{0, 0}});
    return false;
  }
};

/// `n` fresh bats whose Steps land on distinct stripes other than `hot`'s:
/// the cold traffic of the skew tests must never admit into the hot stripe
/// (which stripe a bat hashes to depends on its process-wide id).
std::vector<BatPtr> ColdBats(const ConcurrentRecycler& rec, const BatPtr& hot,
                             size_t n) {
  auto stripe_of = [&rec](const BatPtr& b) {
    std::vector<MalValue> args{MalValue(b), MalValue(Scalar::Int(0))};
    return rec.StripeOf(Opcode::kSelectNotNil, args);
  };
  std::set<size_t> used{stripe_of(hot)};
  std::vector<BatPtr> out;
  while (out.size() < n) {
    BatPtr b = FreshBat(4);
    if (used.insert(stripe_of(b)).second) out.push_back(std::move(b));
  }
  return out;
}

RecyclerConfig BoundedCfg(size_t max_bytes) {
  RecyclerConfig cfg;
  cfg.pool_stripes = 8;
  cfg.max_bytes = max_bytes;
  cfg.eviction = EvictionKind::kLru;
  cfg.enable_subsumption = false;  // synthetic instructions, no candidates
  return cfg;
}

// A budgeted admission-heavy workload performs ZERO all-stripe lock
// acquisitions: each admission charges its own stripe's lease and evicts
// within that stripe, under that stripe's lock alone.
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
// ~10x the bytes of any other; the hot stripe leases the idle stripes'
// unused share through the governor, so its replay hit ratio stays high.
// A lease hard-capped at its max/N share (12 KB, 6 hot entries) could
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
  SynthDriver d(&rec);

  BatPtr hot = FreshBat(4);
  for (int i = 0; i < 14; ++i) d.Step(hot, i, 256);  // ~28 KB borrowed

  // Cold stripes now admit 2 KB entries each: their under-base acquisitions
  // starve on the dry ledger and raise pressure; the hot stripe sheds at
  // its next admission.
  std::vector<BatPtr> cold = ColdBats(rec, hot, 6);
  for (int round = 0; round < 3; ++round) {
    for (size_t c = 0; c < cold.size(); ++c)
      d.Step(cold[c], 100 + round, 256);
    d.Step(hot, 1000 + round, 256);  // gives the hot stripe a shed point
  }

  uint64_t rebalances = 0;
  for (const auto& st : rec.stripe_stats()) rebalances += st.rebalances;
  EXPECT_GT(rebalances, 0u) << "pressure never triggered a shed";
  EXPECT_LE(rec.pool_bytes(), kBudget);
  EXPECT_EQ(rec.all_stripe_ops(), 0u);
}

// A stripe that stops admitting but keeps serving hits must still answer
// the governor from the PROBE path: after an under-share stripe starves,
// the borrowing hit-only stripe sheds to base and the capacity reappears
// in the domain's free ledger.
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
      << "the probe path never serviced governor pressure";
  EXPECT_LE(rec.pool_bytes(), kBudget);
  EXPECT_EQ(rec.all_stripe_ops(), 0u);
  ASSERT_NE(rec.governor(), nullptr);
  auto domains = rec.governor()->stats();
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_GT(domains[0].free_bytes, 0u) << "shed capacity never hit the ledger";
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
