// Concurrency tests for the query service and the shared recycle pool:
// N workers hammering one pool must produce exactly the serial results, keep
// sharing intermediates across sessions (hit rate > 0), survive Clear() and
// ResetStats() mid-flight, and never return stale results when catalog
// updates interleave with query execution; remembered statement texts stay
// correct under concurrent sessions and read each session's snapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/concurrent_recycler.h"
#include "core/recycler_optimizer.h"
#include "interp/interpreter.h"
#include "mal/plan_builder.h"
#include "server/query_service.h"
#include "sql_test_util.h"
#include "util/rng.h"

namespace recycledb {
namespace {

/// A small two-column database; deterministic for a given seed so a shadow
/// copy built with the same seed is value-identical.
std::unique_ptr<Catalog> MakeDb(uint64_t seed = 6, int rows = 3000) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"a", TypeTag::kInt}, {"b", TypeTag::kInt}});
  Rng rng(seed);
  std::vector<int32_t> a(rows), b(rows);
  for (int i = 0; i < rows; ++i) {
    a[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
    b[i] = static_cast<int32_t>(rng.UniformRange(0, 999));
  }
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "a", std::move(a)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("t", "b", std::move(b)).ok());
  return cat;
}

/// sum(b) over rows with a in [A0, A1].
Program BuildSumTemplate() {
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

/// count(*) over rows with a in [A0, A1].
Program BuildCountTemplate() {
  PlanBuilder pb("range_count");
  int lo = pb.Param("A0");
  int hi = pb.Param("A1");
  int a = pb.Bind("t", "a");
  int sel = pb.Select(a, lo, hi, true, true);
  pb.ExportValue(pb.AggrCount(sel), "c");
  Program p = pb.Build();
  MarkForRecycling(&p);
  return p;
}

/// sum(b) over the whole table (parameter-independent: fully recyclable,
/// and fully invalidated by any update of t).
Program BuildTotalTemplate() {
  PlanBuilder pb("total_sum");
  int b = pb.Bind("t", "b");
  pb.ExportValue(pb.AggrSum(b), "s");
  Program p = pb.Build();
  MarkForRecycling(&p);
  return p;
}

/// A repeated workload over a small parameter space, so concurrent sessions
/// keep re-encountering each other's intermediates.
std::vector<QueryRequest> MakeWorkload(const Program* sum_prog,
                                       const Program* count_prog, int n,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    int lo = 100 * static_cast<int>(rng.UniformRange(0, 8));
    int hi = lo + 100 + 50 * static_cast<int>(rng.UniformRange(0, 3));
    QueryRequest q;
    q.prog = rng.Bernoulli(0.5) ? sum_prog : count_prog;
    q.params = {Scalar::Int(lo), Scalar::Int(hi)};
    out.push_back(std::move(q));
  }
  return out;
}

const Scalar& ResultScalar(const Result<QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& qr = r.value();
  EXPECT_EQ(qr.values.size(), 1u);
  return qr.values[0].second.scalar();
}

TEST(QueryServiceTest, ConcurrentMatchesSerialAndSharesPool) {
  Program sum_prog = BuildSumTemplate();
  Program count_prog = BuildCountTemplate();
  std::vector<QueryRequest> workload =
      MakeWorkload(&sum_prog, &count_prog, 200, 99);

  // Serial ground truth on an identical shadow database, no recycler.
  auto shadow = MakeDb();
  Interpreter serial(shadow.get());
  std::vector<Scalar> expected;
  expected.reserve(workload.size());
  for (const QueryRequest& q : workload) {
    auto r = serial.Run(*q.prog, q.params).ValueOrDie();
    expected.push_back(r.values[0].second.scalar());
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeDb(), cfg);
  std::vector<Result<QueryResult>> results = svc.RunBatch(workload);

  ASSERT_EQ(results.size(), workload.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(ResultScalar(results[i]), expected[i]) << "query " << i;
  }

  RecyclerStats rs = svc.recycler().stats();
  EXPECT_GT(rs.hits, 0u) << "shared pool produced no reuse";
  EXPECT_GT(rs.global_hits, 0u) << "no reuse across invocations";
  ServiceStats ss = svc.SnapshotStats();
  EXPECT_EQ(ss.completed, workload.size());
  EXPECT_EQ(ss.failed, 0u);
  EXPECT_GT(ss.pool_hits, 0u);
}

// Statement texts bound before: sessions racing repeated texts and fresh
// literals (which push older texts out of the per-plan cap) all get the
// serial answers, and the repeats are served by text hits.
TEST(QueryServiceTest, ConcurrentTextHitsMatchSerialResults) {
  auto text = [](int lo, int width) {
    return "select count(*) from t where a between " + std::to_string(lo) +
           " and " + std::to_string(lo + width);
  };
  QueryService shadow(MakeDb(), ServiceConfig{});
  Session shadow_sess;
  constexpr int kTexts = 8;
  std::vector<Scalar> expected;
  for (int i = 0; i < kTexts; ++i)
    expected.push_back(
        ResultScalar(testutil::RunSql(&shadow, &shadow_sess, text(i, 100))));

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeDb(), cfg);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      Session sess;
      Rng rng(70 + c);
      for (int i = 0; i < 150; ++i) {
        if (i % 5 == 4) {  // fresh literal: remembered, then crowded out
          auto r = testutil::RunSql(&svc, &sess, text(500 + 150 * c + i, 7));
          if (!r.ok()) wrong.fetch_add(1);
          continue;
        }
        const int k = static_cast<int>(rng.Uniform(kTexts));
        auto r = testutil::RunSql(&svc, &sess, text(k, 100));
        if (!r.ok() || !(r.value().values[0].second.scalar() == expected[k]))
          wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  ServiceStats ss = svc.SnapshotStats();
  EXPECT_GT(ss.plan_text_hits, 0u);
  EXPECT_LE(ss.plan_compiles, 4u);  // racing first compiles, one plan
  EXPECT_EQ(svc.plan_cache().size(), 1u);
  EXPECT_EQ(ss.plan_lookups, 4u * 150u);
  EXPECT_LE(svc.plan_cache().text_count(), PlanCache::kMaxTextsPerPlan);
}

// A text hit skips only parse and bind: the snapshot is still the
// session's, so an open transaction reads its own writes through it.
TEST(QueryServiceTest, TextHitReadsTheSessionsSnapshot) {
  QueryService svc(MakeDb(), ServiceConfig{});
  Session writer, other;
  const char* q = "select count(*) from t where a = 4242";
  ASSERT_EQ(ResultScalar(testutil::RunSql(&svc, &other, q)).ToInt64(), 0);
  writer.set_autocommit(false);
  ASSERT_TRUE(
      testutil::RunSql(&svc, &writer, "insert into t values (4242, 1)").ok());
  const uint64_t hits = svc.SnapshotStats().plan_text_hits;
  EXPECT_EQ(ResultScalar(testutil::RunSql(&svc, &writer, q)).ToInt64(), 1);
  EXPECT_EQ(ResultScalar(testutil::RunSql(&svc, &other, q)).ToInt64(), 0);
  EXPECT_EQ(svc.SnapshotStats().plan_text_hits, hits + 2);
  ASSERT_TRUE(testutil::RunSql(&svc, &writer, "commit").ok());
  EXPECT_EQ(ResultScalar(testutil::RunSql(&svc, &other, q)).ToInt64(), 1);
}

TEST(QueryServiceTest, SubmitFutureResolvesWithResult) {
  Program total = BuildTotalTemplate();
  QueryService svc(MakeDb(), ServiceConfig{});
  auto f1 = svc.Submit(&total, {});
  auto f2 = svc.Submit(&total, {});
  Scalar s1 = ResultScalar(f1.get());
  Scalar s2 = ResultScalar(f2.get());
  EXPECT_EQ(s1, s2);
}

TEST(QueryServiceTest, SharedPoolSurvivesClearAndResetMidFlight) {
  Program sum_prog = BuildSumTemplate();
  Program count_prog = BuildCountTemplate();
  std::vector<QueryRequest> workload =
      MakeWorkload(&sum_prog, &count_prog, 300, 17);

  auto shadow = MakeDb();
  Interpreter serial(shadow.get());
  std::vector<Scalar> expected;
  for (const QueryRequest& q : workload) {
    auto r = serial.Run(*q.prog, q.params).ValueOrDie();
    expected.push_back(r.values[0].second.scalar());
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeDb(), cfg);

  // Hammer Clear()/ResetStats() while the batch runs: results must be
  // unaffected (the pool is a cache, never the source of truth).
  std::atomic<bool> done{false};
  std::thread clearer([&] {
    while (!done.load()) {
      svc.recycler().Clear();
      svc.recycler().ResetStats();
      std::this_thread::yield();
    }
  });
  std::vector<Result<QueryResult>> results = svc.RunBatch(workload);
  done.store(true);
  clearer.join();

  ASSERT_EQ(results.size(), workload.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(ResultScalar(results[i]), expected[i]) << "query " << i;
  }
}

TEST(QueryServiceTest, UpdatesInterleavedWithQueriesNeverStale) {
  Program total = BuildTotalTemplate();
  const int kCommits = 20;
  const int kRowsPerCommit = 5;

  // Precompute the only sums a query may legally observe: the state after
  // each commit. Any other value means a query saw a half-applied commit or
  // a stale (non-invalidated) pool entry.
  auto db = MakeDb();
  Interpreter probe(db.get());
  std::vector<int64_t> valid;
  valid.push_back(
      probe.Run(total, {}).ValueOrDie().values[0].second.scalar().AsLng());
  // Deterministic rows per commit; replayed identically below.
  auto rows_for = [](int commit) {
    std::vector<std::vector<Scalar>> rows;
    for (int r = 0; r < kRowsPerCommit; ++r) {
      rows.push_back({Scalar::Int(commit), Scalar::Int(1000 * commit + r)});
    }
    return rows;
  };
  for (int c = 1; c <= kCommits; ++c) {
    int64_t delta = 0;
    for (int r = 0; r < kRowsPerCommit; ++r) delta += 1000 * c + r;
    valid.push_back(valid.back() + delta);
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeDb(), cfg);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<int> bad{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto r = svc.Submit(&total, {}).get();
        if (!r.ok()) {
          ++bad;
          continue;
        }
        int64_t s = r.value().values[0].second.scalar().AsLng();
        if (std::find(valid.begin(), valid.end(), s) == valid.end()) ++bad;
      }
    });
  }

  for (int c = 1; c <= kCommits; ++c) {
    Status st = svc.ApplyUpdate([&](Catalog* cat) {
      TxnWriteSet ws = cat->BeginWrite();
      RDB_RETURN_NOT_OK(cat->Append(&ws, "t", rows_for(c)));
      return cat->CommitWrite(&ws);
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0) << "a query observed a stale or torn result";

  // After all commits, a fresh query must see the final state.
  auto last = svc.Submit(&total, {}).get();
  EXPECT_EQ(last.value().values[0].second.scalar().AsLng(), valid.back());

  RecyclerStats rs = svc.recycler().stats();
  EXPECT_GT(rs.invalidated, 0u) << "commits never invalidated pool entries";
  EXPECT_GT(rs.hits, 0u);
}

TEST(ConcurrentRecyclerTest, EpochProtectionTracksOldestActiveQuery) {
  Recycler rec;
  EXPECT_EQ(rec.ProtectedEpoch(), UINT64_MAX) << "idle pool: nothing protected";
  PlanBuilder pb("p");
  pb.ExportValue(pb.ConstInt(1), "x");
  Program prog = pb.Build();
  QueryCtx q1 = rec.BeginQueryCtx(prog);
  QueryCtx q2 = rec.BeginQueryCtx(prog);
  EXPECT_EQ(rec.ProtectedEpoch(), q1.query_id);
  rec.EndQueryCtx(q1);
  EXPECT_EQ(rec.ProtectedEpoch(), q2.query_id);
  rec.EndQueryCtx(q2);
  EXPECT_EQ(rec.ProtectedEpoch(), UINT64_MAX);
}

TEST(ConcurrentRecyclerTest, BoundedPoolUnderConcurrencyStaysConsistent) {
  // A tiny bounded pool forces constant admission/eviction churn from all
  // workers; the service must still produce exact results.
  Program sum_prog = BuildSumTemplate();
  Program count_prog = BuildCountTemplate();
  std::vector<QueryRequest> workload =
      MakeWorkload(&sum_prog, &count_prog, 200, 23);

  auto shadow = MakeDb();
  Interpreter serial(shadow.get());
  std::vector<Scalar> expected;
  for (const QueryRequest& q : workload) {
    auto r = serial.Run(*q.prog, q.params).ValueOrDie();
    expected.push_back(r.values[0].second.scalar());
  }

  ServiceConfig cfg;
  cfg.num_workers = 4;
  cfg.recycler.max_entries = 8;
  cfg.recycler.eviction = EvictionKind::kBenefit;
  QueryService svc(MakeDb(), cfg);
  std::vector<Result<QueryResult>> results = svc.RunBatch(workload);

  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(ResultScalar(results[i]), expected[i]) << "query " << i;
  }
  EXPECT_LE(svc.recycler().pool_entries(), 8u);
}

}  // namespace
}  // namespace recycledb
