// Query tracing end to end: TRACE SELECT grammar, the span tree over the
// statement lifecycle, per-instruction recycler decision records, and the
// acceptance identity — a traced query's decision records sum exactly to
// the deltas the same query leaves in the global service/recycler stats.
// Plus: 1-in-N sampling, the recent-trace ring, the metrics export, the
// governance event ring after DML, and a TSan-stressed traced/untraced mix.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "server/query_service.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "util/str.h"

namespace recycledb {
namespace {

// ---------------------------------------------------------------------------
// Small hand-loaded table (enough rows that selects materialise bytes).
// ---------------------------------------------------------------------------
std::unique_ptr<Catalog> MakeDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("item", {{"i_id", TypeTag::kOid},
                            {"i_qty", TypeTag::kInt},
                            {"i_price", TypeTag::kDbl}});
  std::vector<Oid> ids;
  std::vector<int32_t> qty;
  std::vector<double> price;
  for (int i = 0; i < 512; ++i) {
    ids.push_back(static_cast<Oid>(i));
    qty.push_back(i % 100);
    price.push_back(1.5 * (i % 7));
  }
  EXPECT_TRUE(
      cat->LoadColumn<Oid>("item", "i_id", std::move(ids), true, true).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("item", "i_qty", std::move(qty)).ok());
  EXPECT_TRUE(
      cat->LoadColumn<double>("item", "i_price", std::move(price)).ok());
  return cat;
}

ServiceConfig OneWorker() {
  ServiceConfig cfg;
  cfg.num_workers = 1;  // isolation: one query at a time leaves clean deltas
  return cfg;
}

const obs::QueryTrace::Span* FindSpan(const obs::QueryTrace::Span& root,
                                      const std::string& name) {
  for (const auto& c : root.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Grammar.
// ---------------------------------------------------------------------------

TEST(TraceParseTest, TraceSelectSetsFlagOutsideFingerprint) {
  auto st = sql::ParseStatement("trace select count(*) from item");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st.value().kind, sql::Statement::Kind::kSelect);
  EXPECT_TRUE(st.value().traced);

  auto plain = sql::ParseStatement("select count(*) from item");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().traced);
  // Same fingerprint: traced and untraced instances share one cached plan.
  EXPECT_EQ(sql::Fingerprint(st.value().select),
            sql::Fingerprint(plain.value().select));
}

TEST(TraceParseTest, TraceNonSelectIsAnError) {
  EXPECT_FALSE(sql::ParseStatement("trace insert into item values (1)").ok());
  EXPECT_FALSE(sql::ParseStatement("trace commit").ok());
  EXPECT_FALSE(sql::ParseStatement("trace").ok());
}

// ---------------------------------------------------------------------------
// End-to-end spans + decisions, and the stats-delta identity.
// ---------------------------------------------------------------------------

TEST(TraceServiceTest, SpanTreeCoversTheLifecycle) {
  QueryService svc(MakeDb(), OneWorker());
  Session sess;
  auto r = testutil::RunSql(
      &svc, &sess, "trace select count(*) from item where i_qty < 50");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().trace, nullptr);
  const obs::QueryTrace& t = *r.value().trace;
  EXPECT_FALSE(t.sampled());  // explicit TRACE, not sampling

  const obs::QueryTrace::Span& root = t.root();
  EXPECT_EQ(root.name, "statement");
  ASSERT_NE(FindSpan(root, "parse"), nullptr);
  const obs::QueryTrace::Span* plan = FindSpan(root, "plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(FindSpan(*plan, "cache_probe"), nullptr);
  EXPECT_EQ(FindSpan(*plan, "cache_probe")->note, "miss");  // first run
  EXPECT_NE(FindSpan(*plan, "compile"), nullptr);
  ASSERT_NE(FindSpan(root, "queue"), nullptr);
  ASSERT_NE(FindSpan(root, "execute"), nullptr);

  // Second run: plan-cache hit binds parameters instead of compiling.
  auto r2 = testutil::RunSql(
      &svc, &sess, "trace select count(*) from item where i_qty < 50");
  ASSERT_TRUE(r2.ok());
  const obs::QueryTrace::Span* plan2 =
      FindSpan(r2.value().trace->root(), "plan");
  ASSERT_NE(plan2, nullptr);
  EXPECT_EQ(FindSpan(*plan2, "cache_probe")->note, "hit");
  EXPECT_NE(FindSpan(*plan2, "bind_params"), nullptr);
  EXPECT_EQ(FindSpan(*plan2, "compile"), nullptr);

  // The rendering carries the table and totals (smoke, not format-lock).
  std::string s = t.ToString();
  EXPECT_NE(s.find("statement"), std::string::npos) << s;
  EXPECT_NE(s.find("totals:"), std::string::npos) << s;
  std::string json = t.ToJson();
  EXPECT_NE(json.find("\"decisions\""), std::string::npos) << json;
}

// Runs one statement in isolation and checks the acceptance identity: the
// trace's decision records sum exactly to the deltas the query left in the
// global ServiceStats/RecyclerStats.
void CheckDeltas(QueryService& svc, Session& sess, const std::string& sql) {
  svc.Drain();
  ServiceStats before = svc.SnapshotStats();
  RecyclerStats rbefore = svc.recycler().stats();
  auto r = testutil::RunSql(&svc, &sess, sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  svc.Drain();
  ServiceStats after = svc.SnapshotStats();
  RecyclerStats rafter = svc.recycler().stats();
  ASSERT_NE(r.value().trace, nullptr);
  obs::QueryTrace::Totals t = r.value().trace->totals();

  // Every monitored instruction yields exactly one entry-side record.
  EXPECT_EQ(t.exact_hits + t.subsumed_hits + t.misses,
            after.monitored - before.monitored)
      << sql;
  // Pool hits the interpreter counted == hit records in the trace.
  EXPECT_EQ(t.exact_hits + t.subsumed_hits, after.pool_hits - before.pool_hits)
      << sql;
  // Exit-side records match the recycler's own accounting.
  EXPECT_EQ(t.exact_hits, rafter.exact_hits - rbefore.exact_hits) << sql;
  EXPECT_EQ(t.subsumed_hits,
            (rafter.subsumed_hits + rafter.combined_hits) -
                (rbefore.subsumed_hits + rbefore.combined_hits))
      << sql;
  EXPECT_EQ(t.misses, (rafter.monitored - rafter.hits) -
                          (rbefore.monitored - rbefore.hits))
      << sql;
  EXPECT_EQ(t.admitted, rafter.admitted - rbefore.admitted) << sql;
  EXPECT_EQ(t.declined, rafter.rejected - rbefore.rejected) << sql;
  EXPECT_EQ(t.evicted, rafter.evicted - rbefore.evicted) << sql;

  // Each decision record carries a plausible instruction index.
  for (const obs::RecyclerDecision& d : r.value().trace->decisions())
    EXPECT_GE(d.pc, 0) << sql;
}

TEST(TraceServiceTest, DecisionsSumToStatsDeltas) {
  QueryService svc(MakeDb(), OneWorker());
  Session sess;
  const std::string q1 =
      "trace select count(*), sum(i_price) from item where i_qty "
      "between 10 and 90";
  const std::string q2 =
      "trace select count(*), sum(i_price) from item where i_qty "
      "between 20 and 80";
  CheckDeltas(svc, sess, q1);  // cold: misses + admissions
  CheckDeltas(svc, sess, q1);  // warm: exact hits
  CheckDeltas(svc, sess, q2);  // narrower range: subsumption candidates
  obs::QueryTrace::Totals warm =
      testutil::RunSql(&svc, &sess, q1).value().trace->totals();
  EXPECT_GT(warm.exact_hits, 0u);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_GT(warm.hit_bytes + warm.saved_ms, 0.0);
}

TEST(TraceServiceTest, DecisionDeltasUnderCreditAdmissionAndBudget) {
  // CREDIT admission (so decline records occur and credits are reported)
  // plus a tight byte budget (so admissions force evict-victim records).
  ServiceConfig cfg = OneWorker();
  cfg.recycler.admission = AdmissionKind::kCredit;
  cfg.recycler.credits = 2;
  cfg.recycler.max_bytes = 64 * 1024;
  QueryService svc(MakeDb(), cfg);
  Session sess;
  for (int i = 0; i < 8; ++i) {
    CheckDeltas(svc, sess,
                StrFormat("trace select count(*), sum(i_price) from item "
                          "where i_qty between %d and %d",
                          i, 30 + 7 * i));
  }
  // Credits were reported on at least one decision (policy != kKeepAll).
  auto r = testutil::RunSql(
      &svc, &sess, "trace select count(*) from item where i_qty < 3");
  ASSERT_TRUE(r.ok());
  bool saw_credits = false;
  for (const obs::RecyclerDecision& d : r.value().trace->decisions())
    saw_credits |= d.credits >= 0;
  EXPECT_TRUE(saw_credits);
}

// ---------------------------------------------------------------------------
// Sampling and the recent-trace ring.
// ---------------------------------------------------------------------------

TEST(TraceServiceTest, SamplingTracesOneInN) {
  ServiceConfig cfg = OneWorker();
  cfg.trace_sample_n = 4;
  QueryService svc(MakeDb(), cfg);
  Session sess;
  int traced = 0;
  for (int i = 0; i < 8; ++i) {
    auto r = testutil::RunSql(&svc, &sess, "select count(*) from item");
    ASSERT_TRUE(r.ok());
    if (r.value().trace != nullptr) {
      EXPECT_TRUE(r.value().trace->sampled());
      ++traced;
    }
  }
  EXPECT_EQ(traced, 2);  // every 4th submission
  EXPECT_EQ(svc.SnapshotStats().queries_traced, 2u);
}

TEST(TraceServiceTest, NoTracingByDefault) {
  QueryService svc(MakeDb(), OneWorker());
  Session sess;
  auto r = testutil::RunSql(&svc, &sess, "select count(*) from item");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().trace, nullptr);
  EXPECT_EQ(svc.SnapshotStats().queries_traced, 0u);
  EXPECT_TRUE(svc.RecentTraces().empty());
}

TEST(TraceServiceTest, RecentTracesKeepsABoundedRing) {
  QueryService svc(MakeDb(), OneWorker());
  Session sess;
  const size_t n = QueryService::kRecentTraceCap + 5;
  for (size_t i = 0; i < n; ++i) {
    const int qty = static_cast<int>(i);
    std::string sql =
        StrFormat("trace select count(*) from item where i_qty < %d", qty);
    ASSERT_TRUE(testutil::RunSql(&svc, &sess, sql).ok());
  }
  auto traces = svc.RecentTraces();
  ASSERT_EQ(traces.size(), QueryService::kRecentTraceCap);
  // Oldest first; the newest trace is the last statement submitted.
  EXPECT_NE(traces.back()->statement().find(
                StrFormat("i_qty < %d", static_cast<int>(n - 1))),
            std::string::npos);
  EXPECT_EQ(svc.SnapshotStats().queries_traced, n);
}

// ---------------------------------------------------------------------------
// Metrics export and governance events.
// ---------------------------------------------------------------------------

TEST(TraceServiceTest, MetricsExportCarriesTheServingStack) {
  QueryService svc(MakeDb(), OneWorker());
  Session sess;
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, "select count(*) from item").ok());
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, "select count(*) from item").ok());

  std::string json = svc.DumpMetricsJson();
  for (const char* name :
       {"queries_submitted", "queries_completed", "query_wall_us",
        "sql_parse_us", "plan_cache_hits", "pool_exact_hits", "pool_bytes",
        "\"events\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << " in " << json;
  }
  obs::RegistrySnapshot snap = svc.MetricsSnapshot();
  EXPECT_EQ(snap.Find("queries_submitted")->value, 2u);
  EXPECT_EQ(snap.Find("plan_cache_compiles")->value, 1u);
  EXPECT_EQ(snap.Find("query_wall_us")->hist.count, 2u);

  std::string prom = svc.DumpMetricsPrometheus();
  EXPECT_NE(prom.find("recycledb_queries_submitted 2"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("recycledb_query_wall_us_bucket"), std::string::npos);
}

TEST(TraceServiceTest, DmlCommitRecordsMaintenanceEvents) {
  QueryService svc(MakeDb(), OneWorker());
  Session sess;
  sess.set_autocommit(false);  // stage each DML until the explicit COMMIT
  // Warm a pool entry so commit maintenance has something to act on.
  auto run = [&](const char* sql) {
    return testutil::RunSql(&svc, &sess, sql).ok();
  };
  ASSERT_TRUE(run("select count(*) from item where i_qty < 50"));
  ASSERT_TRUE(run("insert into item values (900, 5, 9.5)"));
  ASSERT_TRUE(run("commit"));
  ASSERT_TRUE(run("delete from item where i_id = 900"));
  ASSERT_TRUE(run("commit"));

  bool saw_propagate_or_invalidate = false;
  bool saw_invalidate = false;
  for (const obs::Event& e : svc.events().Snapshot()) {
    if (e.kind == obs::EventKind::kPropagate) {
      saw_propagate_or_invalidate = true;
    }
    if (e.kind == obs::EventKind::kInvalidate) {
      saw_propagate_or_invalidate = true;
      saw_invalidate = true;
    }
  }
  EXPECT_TRUE(saw_propagate_or_invalidate);  // insert-only commit
  EXPECT_TRUE(saw_invalidate);               // delete commit must invalidate
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan in CI).
// ---------------------------------------------------------------------------

TEST(TraceServiceTest, ConcurrentTracedAndUntracedQueries) {
  ServiceConfig cfg;
  cfg.num_workers = 4;
  cfg.trace_sample_n = 8;
  QueryService svc(MakeDb(), cfg);
  Session sess;
  std::vector<std::future<Result<QueryResult>>> futs;
  for (int i = 0; i < 200; ++i) {
    std::string sql =
        StrFormat("select count(*) from item where i_qty < %d", i % 16);
    if (i % 5 == 0) sql = "trace " + sql;
    futs.push_back(testutil::SubmitSql(&svc, &sess, sql));
  }
  uint64_t traced = 0;
  for (auto& f : futs) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r.value().trace != nullptr) {
      ++traced;
      // A resolved future's trace is immutable and internally consistent:
      // entry-side records (hit or miss) are one per monitored execution.
      obs::QueryTrace::Totals t = r.value().trace->totals();
      uint64_t entry_records = 0;
      for (const obs::RecyclerDecision& d : r.value().trace->decisions()) {
        entry_records += d.kind == obs::RecyclerDecision::Kind::kExactHit ||
                         d.kind == obs::RecyclerDecision::Kind::kSubsumedHit ||
                         d.kind == obs::RecyclerDecision::Kind::kMiss;
      }
      EXPECT_EQ(t.exact_hits + t.subsumed_hits + t.misses, entry_records);
    }
  }
  EXPECT_GE(traced, 200u / 5);  // all explicit TRACEs
  EXPECT_EQ(svc.SnapshotStats().queries_traced, traced);
  EXPECT_FALSE(svc.DumpMetricsJson().empty());
}

}  // namespace
}  // namespace recycledb
