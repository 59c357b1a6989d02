// Plan-template cache: unit semantics (lookup/insert/invalidate), epoch
// semantics of data commits (cached plans survive and see the new rows)
// versus DDL-driven invalidation through the query service (plans over
// a dropped/updated table are recompiled or rejected, never executed
// stale), remembered statement texts (bound like BindLiterals, dropped with
// their plan, capped per plan), and a concurrent Submit/ApplyUpdate stress
// for the TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "server/plan_cache.h"
#include "server/query_service.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "util/rng.h"
#include "util/str.h"

namespace recycledb {
namespace {

PlanCache::Entry MakeEntry(std::vector<int32_t> tables) {
  PlanCache::Entry e;
  e.prog = std::make_shared<const Program>();
  e.table_ids = std::move(tables);
  return e;
}

TEST(PlanCacheUnitTest, LookupInsertAndStats) {
  PlanCache cache;
  EXPECT_EQ(cache.Lookup("q1"), nullptr);
  auto e1 = cache.Insert("q1", MakeEntry({0}));
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(cache.Lookup("q1"), e1);
  EXPECT_EQ(cache.size(), 1u);

  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(s.invalidations, 0u);
}

TEST(PlanCacheUnitTest, FirstInsertWinsUnderRace) {
  PlanCache cache;
  auto winner = cache.Insert("q", MakeEntry({0}));
  auto loser = cache.Insert("q", MakeEntry({0}));
  EXPECT_EQ(winner, loser);  // the second insert returns the cached winner
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().compiles, 2u);  // both compiles are counted
}

TEST(PlanCacheUnitTest, InvalidateDropsOnlyAffectedPlans) {
  PlanCache cache;
  cache.Insert("a", MakeEntry({0}));
  cache.Insert("b", MakeEntry({1}));
  cache.Insert("ab", MakeEntry({0, 1}));
  cache.Invalidate({{1, 0}, {1, 3}});  // table 1 changed
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.Lookup("ab"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Capacity: LRU eviction at a plan-count bound.
// ---------------------------------------------------------------------------

TEST(PlanCacheCapacityTest, DistinctFingerprintsStayAtCapacityInLruOrder) {
  PlanCache cache(/*max_plans=*/3);

  auto a = cache.Insert("a", MakeEntry({0}));
  cache.Insert("b", MakeEntry({0}));
  cache.Insert("c", MakeEntry({0}));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // touch: b becomes the LRU entry

  cache.Insert("d", MakeEntry({0}));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup("b"), nullptr) << "LRU order ignored";
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // A flood of distinct fingerprints can never exceed the capacity.
  for (int i = 0; i < 40; ++i) {
    cache.Insert("flood" + std::to_string(i), MakeEntry({0}));
    EXPECT_LE(cache.size(), 3u);
  }
  // The evicted entry a client still holds stays usable (shared_ptr).
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a->prog, nullptr);
}

TEST(PlanCacheCapacityTest, InvalidationReturnsLeasedCapacity) {
  PlanCache cache(/*max_plans=*/2);
  cache.Insert("t0", MakeEntry({0}));
  cache.Insert("t1", MakeEntry({1}));
  cache.Invalidate({{0, 0}});  // drops t0, frees its slot
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert("t2", MakeEntry({2}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u)
      << "insert after invalidation must reuse the freed slot, not evict";
}

// ---------------------------------------------------------------------------
// Statement texts: a remembered text dies with its plan and stays bounded.
// ---------------------------------------------------------------------------

TEST(PlanCacheTextTest, TextHitReturnsRememberedParamsAndCounts) {
  PlanCache cache;
  auto e = cache.Insert("fp", MakeEntry({0}));
  cache.RememberText("q 7", "fp", e, {Scalar::Int(7)});
  std::vector<Scalar> params;
  EXPECT_EQ(cache.LookupText("q 8", &params), nullptr);
  EXPECT_EQ(cache.LookupText("q 7", &params), e);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0], Scalar::Int(7));
  // A text miss counts nothing; a text hit is one lookup and one hit.
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.text_hits, 1u);
}

TEST(PlanCacheTextTest, TextsDieWithInvalidationEvictionAndClear) {
  PlanCache cache(/*max_plans=*/2);
  auto a = cache.Insert("a", MakeEntry({0}));
  auto b = cache.Insert("b", MakeEntry({1}));
  cache.RememberText("ta", "a", a, {});
  cache.RememberText("tb", "b", b, {});
  EXPECT_EQ(cache.text_count(), 2u);
  std::vector<Scalar> params;

  cache.Invalidate({{1, 0}});  // drops b
  EXPECT_EQ(cache.LookupText("tb", &params), nullptr);
  EXPECT_NE(cache.LookupText("ta", &params), nullptr);
  EXPECT_EQ(cache.text_count(), 1u);

  cache.Insert("c", MakeEntry({2}));
  cache.Insert("d", MakeEntry({2}));  // evicts a, the LRU plan
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.LookupText("ta", &params), nullptr);
  EXPECT_EQ(cache.text_count(), 0u);

  auto c = cache.Lookup("c");
  cache.RememberText("tc", "c", c, {});
  cache.Clear();
  EXPECT_EQ(cache.LookupText("tc", &params), nullptr);
  EXPECT_EQ(cache.text_count(), 0u);
}

TEST(PlanCacheTextTest, DroppedPlanTakesNoTexts) {
  PlanCache cache;
  auto old_entry = cache.Insert("fp", MakeEntry({0}));
  cache.Invalidate({{0, 0}});
  auto fresh = cache.Insert("fp", MakeEntry({0}));
  // A text bound onto the dropped plan is not remembered under its
  // successor, nor under a fingerprint that is gone.
  cache.RememberText("t", "fp", old_entry, {});
  cache.RememberText("u", "gone", fresh, {});
  EXPECT_EQ(cache.text_count(), 0u);
  cache.RememberText("t", "fp", fresh, {});
  std::vector<Scalar> params;
  EXPECT_EQ(cache.LookupText("t", &params), fresh);
}

TEST(PlanCacheTextTest, EachPlanKeepsItsNewestTexts) {
  PlanCache cache;
  auto e = cache.Insert("fp", MakeEntry({0}));
  const size_t n = 3 * PlanCache::kMaxTextsPerPlan;
  for (size_t i = 0; i < n; ++i)
    cache.RememberText("q" + std::to_string(i), "fp", e, {});
  EXPECT_EQ(cache.text_count(), PlanCache::kMaxTextsPerPlan);
  std::vector<Scalar> params;
  EXPECT_EQ(cache.LookupText("q0", &params), nullptr);  // oldest out first
  EXPECT_EQ(cache.LookupText("q" + std::to_string(n - 1), &params), e);
}

// ---------------------------------------------------------------------------
// Service-level invalidation semantics.
// ---------------------------------------------------------------------------

class PlanCacheServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cat = std::make_unique<Catalog>();
    cat->CreateTable("t", {{"k", TypeTag::kOid}, {"v", TypeTag::kInt}});
    ASSERT_TRUE(cat->LoadColumn<Oid>("t", "k", {0, 1, 2}, true, true).ok());
    ASSERT_TRUE(cat->LoadColumn<int32_t>("t", "v", {10, 20, 30}).ok());
    cat->CreateTable("u", {{"k", TypeTag::kOid}, {"w", TypeTag::kInt}});
    ASSERT_TRUE(cat->LoadColumn<Oid>("u", "k", {0, 1}, true, true).ok());
    ASSERT_TRUE(cat->LoadColumn<int32_t>("u", "w", {7, 8}).ok());
    ServiceConfig cfg;
    cfg.num_workers = 2;
    svc_ = std::make_unique<QueryService>(std::move(cat), cfg);
  }

  Result<QueryResult> RunSql(const std::string& text) {
    return testutil::RunSql(svc_.get(), &session_, text);
  }

  int64_t CountT() {
    auto r = RunSql("select count(*) from t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().Find("count")->scalar().ToInt64() : -1;
  }

  std::unique_ptr<QueryService> svc_;
  Session session_;
};

TEST_F(PlanCacheServiceTest, DataCommitKeepsPlanAndSeesNewRows) {
  EXPECT_EQ(CountT(), 3);
  EXPECT_EQ(CountT(), 3);
  ServiceStats s = svc_->SnapshotStats();
  EXPECT_EQ(s.plan_compiles, 1u);
  EXPECT_EQ(s.plan_hits, 1u);

  ASSERT_TRUE(svc_->ApplyUpdate([](Catalog* cat) {
                    TxnWriteSet ws = cat->BeginWrite();
                    RDB_RETURN_NOT_OK(cat->Append(
                        &ws, "t", {{Scalar::OidVal(3), Scalar::Int(40)}}));
                    return cat->CommitWrite(&ws);
                  })
                  .ok());

  // Epoch semantics: the data commit leaves the cached plan in place (binds
  // resolve by name at run time), and its very next execution — a cache
  // hit, no recompile — already reads the new epoch and sees the new row.
  s = svc_->SnapshotStats();
  EXPECT_EQ(s.plan_invalidations, 0u);
  EXPECT_EQ(CountT(), 4);
  s = svc_->SnapshotStats();
  EXPECT_EQ(s.plan_compiles, 1u);
  EXPECT_EQ(s.plan_hits, 2u);
}

TEST_F(PlanCacheServiceTest, DataCommitLeavesEveryPlanCached) {
  EXPECT_EQ(CountT(), 3);
  auto r = RunSql("select count(*) from u");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(svc_->plan_cache().size(), 2u);

  ASSERT_TRUE(svc_->ApplyUpdate([](Catalog* cat) {
                    TxnWriteSet ws = cat->BeginWrite();
                    RDB_RETURN_NOT_OK(cat->Append(
                        &ws, "u", {{Scalar::OidVal(2), Scalar::Int(9)}}));
                    return cat->CommitWrite(&ws);
                  })
                  .ok());

  // Neither plan was dropped: data commits never evict, and the u plan's
  // next run sees the committed row without a recompile.
  EXPECT_EQ(svc_->plan_cache().size(), 2u);
  EXPECT_EQ(CountT(), 3);
  r = RunSql("select count(*) from u");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 3);
  ServiceStats s = svc_->SnapshotStats();
  EXPECT_EQ(s.plan_compiles, 2u);  // no recompiles at all
  EXPECT_EQ(s.plan_invalidations, 0u);
}

TEST_F(PlanCacheServiceTest, DropTableRejectsCachedPattern) {
  EXPECT_EQ(CountT(), 3);
  EXPECT_EQ(svc_->plan_cache().size(), 1u);

  ASSERT_TRUE(
      svc_->ApplyUpdate([](Catalog* cat) { return cat->DropTable("t"); })
          .ok());

  // The entry is gone and a resubmission recompiles against the changed
  // catalog, yielding a clean NotFound — never the stale plan's answer.
  EXPECT_EQ(svc_->plan_cache().size(), 0u);
  auto r = RunSql("select count(*) from t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  ServiceStats s = svc_->SnapshotStats();
  EXPECT_GE(s.plan_invalidations, 1u);
}

TEST_F(PlanCacheServiceTest, SqlErrorsDoNotPoisonTheCache) {
  auto r = RunSql("select nosuch from t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(svc_->plan_cache().size(), 0u);
  // Compile rejections are visible in the service counters.
  ServiceStats s = svc_->SnapshotStats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(CountT(), 3);  // the table itself is fine
}

// A text hit must bind exactly what parsing and BindLiterals would: the
// first submission compiles and remembers its own parameters, which the
// text probe then hands back.
TEST_F(PlanCacheServiceTest, TextHitBindsWhatBindLiteralsGives) {
  const char* texts[] = {
      "select count(*) from t where v >= 15",
      "select count(*) from t where v between 12 and 25",
      "select count(*) from t where k >= 1 and v < 30",
      "select sum(w) from u where w > 7",
  };
  for (const char* text : texts) {
    ASSERT_TRUE(RunSql(text).ok()) << text;
    std::vector<Scalar> remembered;
    PlanCache::EntryPtr entry =
        svc_->plan_cache().LookupText(text, &remembered);
    ASSERT_NE(entry, nullptr) << text;
    auto parsed = sql::ParseStatement(text);
    ASSERT_TRUE(parsed.ok());
    auto bound = sql::BindLiterals(parsed.value().select, entry->param_types);
    ASSERT_TRUE(bound.ok()) << text;
    EXPECT_EQ(remembered, bound.value()) << text;
  }
}

TEST_F(PlanCacheServiceTest, TracedAndUncoercibleTextsAreNeverRemembered) {
  ASSERT_TRUE(RunSql("trace select count(*) from t where v >= 15").ok());
  EXPECT_EQ(svc_->plan_cache().size(), 1u);
  EXPECT_EQ(svc_->plan_cache().text_count(), 0u);

  // Same fingerprint, but the literal overflows the plan's int parameter.
  const char* bad = "select count(*) from t where v >= 99999999999";
  for (int i = 0; i < 2; ++i) {
    auto r = RunSql(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(svc_->plan_cache().text_count(), 0u);
  EXPECT_EQ(svc_->SnapshotStats().plan_text_hits, 0u);
}

TEST_F(PlanCacheServiceTest, TextHitsSurviveCommitsAndDieWithTheSchema) {
  EXPECT_EQ(CountT(), 3);
  EXPECT_EQ(CountT(), 3);
  EXPECT_EQ(svc_->SnapshotStats().plan_text_hits, 1u);
  ASSERT_TRUE(svc_->ApplyUpdate([](Catalog* cat) {
                    TxnWriteSet ws = cat->BeginWrite();
                    RDB_RETURN_NOT_OK(cat->Append(
                        &ws, "t", {{Scalar::OidVal(3), Scalar::Int(40)}}));
                    return cat->CommitWrite(&ws);
                  })
                  .ok());
  // The binding outlives the data commit, and the text hit still reads the
  // newest snapshot.
  EXPECT_EQ(CountT(), 4);
  EXPECT_EQ(svc_->SnapshotStats().plan_text_hits, 2u);

  ASSERT_TRUE(
      svc_->ApplyUpdate([](Catalog* cat) { return cat->DropTable("t"); })
          .ok());
  EXPECT_EQ(svc_->plan_cache().text_count(), 0u);
  auto r = RunSql("select count(*) from t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(PlanCacheServiceTest, FreshLiteralsStayWithinThePerPlanCap) {
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(RunSql(StrFormat("select count(*) from t where v >= %d", i))
                    .ok());
  EXPECT_EQ(svc_->plan_cache().size(), 1u);
  EXPECT_EQ(svc_->plan_cache().text_count(), PlanCache::kMaxTextsPerPlan);
  EXPECT_EQ(svc_->SnapshotStats().plan_text_hits, 0u);
}

TEST_F(PlanCacheServiceTest, ConcurrentSubmitSqlAndCommits) {
  // Hammer SubmitSql from several threads while data commits land under the
  // plans. Every query must come back OK (counts grow monotonically), the
  // plans must survive every commit, and the service must stay consistent —
  // this is the TSan target for the plan-cache locking protocol.
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([this, c, &stop, &failures] {
      Rng rng(1000 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        std::string text =
            rng.Bernoulli(0.5)
                ? "select count(*) from t"
                : StrFormat("select count(*) from t where v >= %d",
                            static_cast<int>(rng.Uniform(50)));
        auto r = RunSql(text);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    Oid next = 3 + static_cast<Oid>(i);
    ASSERT_TRUE(svc_->ApplyUpdate([next](Catalog* cat) {
                      TxnWriteSet ws = cat->BeginWrite();
                      RDB_RETURN_NOT_OK(cat->Append(
                          &ws, "t",
                          {{Scalar::OidVal(next),
                            Scalar::Int(static_cast<int32_t>(next))}}));
                      return cat->CommitWrite(&ws);
                    })
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(CountT(), 11);
  ServiceStats s = svc_->SnapshotStats();
  EXPECT_EQ(s.plan_invalidations, 0u);
  EXPECT_GT(s.plan_hits, 0u);
}

// ---------------------------------------------------------------------------
// Eviction racing replay (regression): a Program held by shared_ptr must
// survive both an LRU eviction and a commit invalidation of its cache entry
// — deterministically first, then under concurrent churn for the TSan job.
// ---------------------------------------------------------------------------

std::unique_ptr<Catalog> MakeTinyDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"k", TypeTag::kOid}, {"v", TypeTag::kInt}});
  EXPECT_TRUE(cat->LoadColumn<Oid>("t", "k", {0, 1, 2}, true, true).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "v", {10, 20, 30}).ok());
  return cat;
}

TEST(PlanCacheEvictionRaceTest, HeldProgramSurvivesEvictionAndInvalidation) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.plan_cache_capacity = 2;
  QueryService svc(MakeTinyDb(), cfg);
  Session sess;

  const char* q = "select count(*) from t";
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, q).ok());
  auto compiled = sql::CompileSql(svc.catalog(), q);
  ASSERT_TRUE(compiled.ok());
  PlanCache::EntryPtr held = svc.plan_cache().Lookup(compiled.value().fingerprint);
  ASSERT_NE(held, nullptr);

  // Flood with structurally distinct patterns: capacity 2 forces the held
  // entry out of the cache...
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, "select v from t").ok());
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, "select k from t").ok());
  ASSERT_TRUE(
      testutil::RunSql(&svc, &sess, "select count(*) from t where v >= 5")
          .ok());
  EXPECT_GT(svc.SnapshotStats().plan_evictions, 0u);
  EXPECT_EQ(svc.plan_cache().Lookup(compiled.value().fingerprint), nullptr)
      << "the held entry should have been LRU-evicted";

  // ...and a data commit lands under it (which must not disturb it).
  ASSERT_TRUE(svc.ApplyUpdate([](Catalog* cat) {
                   TxnWriteSet ws = cat->BeginWrite();
                   RDB_RETURN_NOT_OK(cat->Append(
                       &ws, "t", {{Scalar::OidVal(3), Scalar::Int(40)}}));
                   return cat->CommitWrite(&ws);
                 })
                  .ok());

  // The held Program executes regardless — binds resolve by name at run
  // time, so it even sees the committed row.
  auto r = svc.Submit(held->prog.get(), {}).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 4);
}

TEST(PlanCacheEvictionRaceTest, ConcurrentChurnOverTinyCapacityIsSafe) {
  // Three clients cycle four distinct patterns through a capacity-2 cache
  // (every submission may race an eviction of the plan another worker is
  // replaying) while a writer commits — the TSan target for LRU eviction
  // vs. in-flight execution.
  ServiceConfig cfg;
  cfg.num_workers = 3;
  cfg.plan_cache_capacity = 2;
  QueryService svc(MakeTinyDb(), cfg);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  const char* patterns[] = {
      "select count(*) from t",
      "select v from t",
      "select k, v from t",
      "select count(*) from t where v >= 15",
  };
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&svc, c, &stop, &failures, &patterns] {
      Session sess;  // one session per client, like a real connection
      int i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = testutil::RunSql(&svc, &sess, patterns[i++ % 4]);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 6; ++i) {
    Oid next = 3 + static_cast<Oid>(i);
    ASSERT_TRUE(svc.ApplyUpdate([next](Catalog* cat) {
                     TxnWriteSet ws = cat->BeginWrite();
                     RDB_RETURN_NOT_OK(cat->Append(
                         &ws, "t",
                         {{Scalar::OidVal(next),
                           Scalar::Int(static_cast<int32_t>(next))}}));
                     return cat->CommitWrite(&ws);
                   })
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  ServiceStats s = svc.SnapshotStats();
  EXPECT_GT(s.plan_evictions, 0u) << "capacity churn never evicted";
  EXPECT_LE(svc.plan_cache().size(), 2u);
}

}  // namespace
}  // namespace recycledb
