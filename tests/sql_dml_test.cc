// SQL DML (INSERT/DELETE/COMMIT): grammar and binder error paths with
// line:column positions, end-to-end update workloads through the
// Submit/Session API (a staging session with autocommit off plus a separate
// reader session for the other-session view), the §6.3 maintenance split
// (insert-only commits propagate the recycle pool, deletes invalidate it),
// and a TSan-stressed DML-vs-SELECT race over cached plans.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "server/query_service.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "util/str.h"

namespace recycledb {
namespace {

using sql::ParseStatement;
using sql::Statement;

// ---------------------------------------------------------------------------
// Small hand-loaded table: item(i_id oid, i_qty int, i_price dbl, i_name str).
// ---------------------------------------------------------------------------
std::unique_ptr<Catalog> MakeItemDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("item", {{"i_id", TypeTag::kOid},
                            {"i_qty", TypeTag::kInt},
                            {"i_price", TypeTag::kDbl},
                            {"i_name", TypeTag::kStr}});
  EXPECT_TRUE(
      cat->LoadColumn<Oid>("item", "i_id", {0, 1, 2, 3}, true, true).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("item", "i_qty", {10, 20, 30, 40}).ok());
  EXPECT_TRUE(
      cat->LoadColumn<double>("item", "i_price", {1.5, 2.5, 3.5, 4.5}).ok());
  EXPECT_TRUE(cat->LoadColumn<std::string>("item", "i_name",
                                           {"ant", "bee", "cat", "dog"})
                  .ok());
  return cat;
}

int64_t CountOf(const Result<QueryResult>& r, const char* label = "count") {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return -1;
  const MalValue* v = r.value().Find(label);
  EXPECT_NE(v, nullptr) << label;
  if (v == nullptr) return -1;
  return v->scalar().AsLng();
}

// ---------------------------------------------------------------------------
// Grammar.
// ---------------------------------------------------------------------------

TEST(SqlDmlParseTest, InsertForms) {
  auto st = ParseStatement("insert into item values (7, 50, 5.5, 'elk')");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_EQ(st.value().kind, Statement::Kind::kInsert);
  EXPECT_EQ(st.value().insert.table, "item");
  EXPECT_TRUE(st.value().insert.columns.empty());
  ASSERT_EQ(st.value().insert.rows.size(), 1u);
  EXPECT_EQ(st.value().insert.rows[0].size(), 4u);

  st = ParseStatement(
      "insert into item (i_name, i_id, i_qty, i_price) "
      "values ('elk', 7, 50, 5.5), ('fox', 8, 60, 6.5);");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st.value().insert.columns.size(), 4u);
  EXPECT_EQ(st.value().insert.rows.size(), 2u);

  // Negative numbers are literals too.
  st = ParseStatement("insert into item values (7, -50, -5.5, 'elk')");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st.value().insert.rows[0][1].i, -50);
}

TEST(SqlDmlParseTest, DeleteForms) {
  auto st = ParseStatement("delete from item");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_EQ(st.value().kind, Statement::Kind::kDelete);
  EXPECT_EQ(st.value().del.table, "item");
  EXPECT_TRUE(st.value().del.where.empty());

  st = ParseStatement(
      "delete from item where i_qty between 10 and 20 and i_name like 'a%'");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st.value().del.where.size(), 2u);
}

TEST(SqlDmlParseTest, CommitAndSelectDispatch) {
  auto st = ParseStatement("commit");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st.value().kind, Statement::Kind::kCommit);

  st = ParseStatement("select count(*) from item");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st.value().kind, Statement::Kind::kSelect);

  // ParseSelect stays SELECT-only.
  EXPECT_FALSE(sql::ParseSelect("commit").ok());
}

TEST(SqlDmlParseTest, GrammarErrors) {
  EXPECT_FALSE(ParseStatement("insert item values (1)").ok());
  EXPECT_FALSE(ParseStatement("insert into item (1) values (2)").ok());
  EXPECT_FALSE(ParseStatement("insert into item values 1, 2").ok());
  EXPECT_FALSE(ParseStatement("insert into item values (1,)").ok());
  EXPECT_FALSE(ParseStatement("delete item").ok());
  EXPECT_FALSE(ParseStatement("delete from item where").ok());
  EXPECT_FALSE(ParseStatement("commit work").ok());
  EXPECT_FALSE(ParseStatement("insert into item values (1) garbage").ok());
}

TEST(SqlDmlParseTest, ErrorsCarryLineColumnPositions) {
  // The offending token sits on line 2, column 8.
  auto st = ParseStatement("insert into item\nvalues 1");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("at 2:8"), std::string::npos)
      << st.status().ToString();

  // Lexer errors carry positions too.
  auto lexed = sql::Lex("select *\nfrom t where x = 'oops");
  ASSERT_FALSE(lexed.ok());
  EXPECT_NE(lexed.status().message().find("at 2:18"), std::string::npos)
      << lexed.status().ToString();

  EXPECT_EQ(sql::LineColAt("ab\ncd", 0), "1:1");
  EXPECT_EQ(sql::LineColAt("ab\ncd", 3), "2:1");
  EXPECT_EQ(sql::LineColAt("ab\ncd", 4), "2:2");
}

// ---------------------------------------------------------------------------
// Binder.
// ---------------------------------------------------------------------------

class SqlDmlBindTest : public ::testing::Test {
 protected:
  void SetUp() override { cat_ = MakeItemDb(); }

  Status Bind(const std::string& text) {
    auto st = ParseStatement(text);
    if (!st.ok()) return st.status();
    auto rows = sql::BindInsert(*cat_, st.value().insert);
    return rows.ok() ? Status::OK() : rows.status();
  }

  std::unique_ptr<Catalog> cat_;
};

TEST_F(SqlDmlBindTest, CoercionAndReordering) {
  EXPECT_TRUE(Bind("insert into item values (7, 50, 5.5, 'elk')").ok());
  // Integer literals widen to dbl and oid targets.
  EXPECT_TRUE(Bind("insert into item values (7, 50, 6, 'elk')").ok());
  // Explicit column list in any order.
  EXPECT_TRUE(
      Bind("insert into item (i_price, i_name, i_id, i_qty) "
           "values (5.5, 'elk', 7, 50)")
          .ok());
}

TEST_F(SqlDmlBindTest, TypeAndArityErrors) {
  EXPECT_EQ(Bind("insert into nosuch values (1)").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Bind("insert into item (i_id, i_nope, i_qty, i_price) "
                 "values (7, 1, 50, 5.5)")
                .code(),
            StatusCode::kNotFound);
  // String into an int column.
  EXPECT_EQ(Bind("insert into item values (7, 'fifty', 5.5, 'elk')").code(),
            StatusCode::kTypeMismatch);
  // Float literal cannot narrow into an int column.
  EXPECT_EQ(Bind("insert into item values (7, 50.5, 5.5, 'elk')").code(),
            StatusCode::kTypeMismatch);
  // Negative value for an oid column.
  EXPECT_EQ(Bind("insert into item values (-7, 50, 5.5, 'elk')").code(),
            StatusCode::kOutOfRange);
  // Arity mismatch.
  EXPECT_EQ(Bind("insert into item values (7, 50, 5.5)").code(),
            StatusCode::kInvalidArgument);
  // Duplicate and missing columns (no defaults to fill the gap).
  EXPECT_EQ(Bind("insert into item (i_id, i_id, i_qty, i_price) "
                 "values (7, 8, 50, 5.5)")
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      Bind("insert into item (i_id, i_qty, i_price) values (7, 50, 5.5)")
          .code(),
      StatusCode::kInvalidArgument);
  // A second bad row is still caught, with its row number in the message.
  Status st = Bind(
      "insert into item values (7, 50, 5.5, 'elk'), (8, 'x', 6.5, 'fox')");
  EXPECT_EQ(st.code(), StatusCode::kTypeMismatch);
  EXPECT_NE(st.message().find("row 2"), std::string::npos) << st.ToString();
}

TEST_F(SqlDmlBindTest, DeleteCompilesToVictimScan) {
  auto st = ParseStatement("delete from item where i_qty >= 30");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  std::vector<Scalar> params;
  auto plan = sql::CompileDelete(cat_.get(), st.value().del, &params);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(params.size(), 1u);
  EXPECT_EQ(plan.value().table_ids.size(), 1u);

  Interpreter interp(cat_.get());
  auto r = interp.Run(plan.value().prog, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MalValue* v = r.value().Find("victims");
  ASSERT_NE(v, nullptr);
  ASSERT_TRUE(v->is_bat());
  ASSERT_EQ(v->bat()->size(), 2u);
  EXPECT_EQ(v->bat()->TailAt(0).AsOid(), 2u);
  EXPECT_EQ(v->bat()->TailAt(1).AsOid(), 3u);

  // Unknown columns/tables fail cleanly.
  auto bad = ParseStatement("delete from item where nosuch = 1");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(sql::CompileDelete(cat_.get(), bad.value().del, &params).ok());
}

// ---------------------------------------------------------------------------
// End-to-end update workloads through the service.
// ---------------------------------------------------------------------------

class SqlDmlServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig cfg;
    cfg.num_workers = 2;
    svc_ = std::make_unique<QueryService>(MakeItemDb(), cfg);
    writer_.set_autocommit(false);  // stage DML until an explicit COMMIT
  }

  /// Runs on the staging session (sees its own pending writes).
  Result<QueryResult> Sql(const std::string& text) {
    return testutil::RunSql(svc_.get(), &writer_, text);
  }

  /// Committed-state row count as ANOTHER session observes it.
  int64_t Count() {
    return CountOf(
        testutil::RunSql(svc_.get(), &reader_, "select count(*) from item"));
  }

  /// Row count through the staging session's own transaction overlay.
  int64_t CountMine() { return CountOf(Sql("select count(*) from item")); }

  std::unique_ptr<QueryService> svc_;
  Session writer_;
  Session reader_;
};

TEST_F(SqlDmlServiceTest, InsertDeleteCommitRoundTrip) {
  EXPECT_EQ(Count(), 4);

  auto r = Sql("insert into item values (7, 50, 5.5, 'elk')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("rows_inserted")->scalar().AsLng(), 1);
  // Pending deltas are invisible to OTHER sessions until COMMIT, but the
  // writing session reads its own transaction overlay.
  EXPECT_EQ(Count(), 4);
  EXPECT_EQ(CountMine(), 5);

  r = Sql("commit");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Count(), 5);

  r = Sql("delete from item where i_qty <= 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("rows_deleted")->scalar().AsLng(), 2);
  EXPECT_EQ(Count(), 5);
  EXPECT_EQ(CountMine(), 3);
  ASSERT_TRUE(Sql("commit").ok());
  EXPECT_EQ(Count(), 3);

  // The surviving values are exactly the ones the predicate spared.
  auto names = Sql("select i_name from item");
  ASSERT_TRUE(names.ok());
  const MalValue* v = names.value().Find("i_name");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->bat()->size(), 3u);
  EXPECT_EQ(v->bat()->TailAt(0).AsStr(), "cat");
  EXPECT_EQ(v->bat()->TailAt(1).AsStr(), "dog");
  EXPECT_EQ(v->bat()->TailAt(2).AsStr(), "elk");

  ServiceStats s = svc_->SnapshotStats();
  EXPECT_EQ(s.dml_inserted_rows, 1u);
  EXPECT_EQ(s.dml_deleted_rows, 2u);
  EXPECT_EQ(s.dml_commits, 2u);
  EXPECT_EQ(s.failed, 0u);
}

TEST_F(SqlDmlServiceTest, DeleteEverythingAndRepopulate) {
  ASSERT_TRUE(Sql("delete from item").ok());
  ASSERT_TRUE(Sql("commit").ok());
  EXPECT_EQ(Count(), 0);

  ASSERT_TRUE(
      Sql("insert into item values (0, 1, 0.5, 'ox'), "
                   "(1, 2, 1.5, 'ram')")
          .ok());
  ASSERT_TRUE(Sql("commit").ok());
  EXPECT_EQ(Count(), 2);

  // COMMIT with nothing pending is a no-op, not an error.
  EXPECT_TRUE(Sql("commit").ok());
}

// Transaction semantics (PR 9): every statement in an open transaction —
// DELETE's victim scan included — runs against the session's overlay (its
// begin snapshot plus its own write set). A DELETE whose predicate matches
// a pending insert therefore removes the pending row before it was ever
// committed; other sessions never observe any of it. (The pre-transaction
// MVCC build scanned the committed state only and spared pending inserts.)
TEST_F(SqlDmlServiceTest, DeleteSeesOwnPendingInserts) {
  ASSERT_TRUE(Sql("insert into item values (7, 50, 5.5, 'elk')").ok());
  EXPECT_EQ(CountMine(), 5);

  // Read-your-own-writes: the pending insert matches the predicate and is
  // un-queued — it will never reach the catalog.
  auto r = Sql("delete from item where i_qty = 50");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("rows_deleted")->scalar().AsLng(), 1);
  EXPECT_EQ(CountMine(), 4);

  // A committed row is a victim like before.
  r = Sql("delete from item where i_qty = 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("rows_deleted")->scalar().AsLng(), 1);

  // Other sessions saw none of the above until the commit lands.
  EXPECT_EQ(Count(), 4);
  ASSERT_TRUE(Sql("commit").ok());
  EXPECT_EQ(Count(), 3);
  r = Sql("select count(*) from item where i_qty = 50");
  EXPECT_EQ(CountOf(r), 0) << "the un-queued insert must not be committed";
  r = Sql("select count(*) from item where i_qty = 20");
  EXPECT_EQ(CountOf(r), 0);
}

// Overlapping DELETEs in one transaction: the second statement scans the
// overlay, where the first statement's victims are already gone — it reports
// only what it newly queued, so the totals reconcile with the rows actually
// removed at commit.
TEST_F(SqlDmlServiceTest, OverlappingDeletesDoNotDoubleCount) {
  auto r = Sql("delete from item where i_qty >= 30");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Find("rows_deleted")->scalar().AsLng(), 2);

  r = Sql("delete from item");  // overlay scan: only the two survivors match
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Find("rows_deleted")->scalar().AsLng(), 2)
      << "already-queued victims must not be counted again";

  ASSERT_TRUE(Sql("commit").ok());
  EXPECT_EQ(Count(), 0);
  EXPECT_EQ(svc_->SnapshotStats().dml_deleted_rows, 4u);
}

TEST_F(SqlDmlServiceTest, DmlErrorsCountAsFailedSubmissions) {
  EXPECT_FALSE(Sql("insert into item values (1)").ok());
  EXPECT_FALSE(Sql("delete from nosuch").ok());
  ServiceStats s = svc_->SnapshotStats();
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.dml_inserted_rows, 0u);
}

// The §6.3 acceptance property: an insert-only commit takes the propagation
// path (select-over-bind pool entries are refreshed, not dropped) and a
// previously-recycled SELECT still hits; a delete commit invalidates.
TEST_F(SqlDmlServiceTest, InsertOnlyCommitPropagatesDeleteInvalidates) {
  const char* q = "select i_qty from item where i_qty >= 15";

  // Admit (miss) then hit the pool.
  ASSERT_TRUE(Sql(q).ok());
  ASSERT_TRUE(Sql(q).ok());
  RecyclerStats before = svc_->recycler().stats();
  EXPECT_GT(before.hits, 0u);
  EXPECT_EQ(before.propagated, 0u);

  // Insert-only commit: the pool must refresh, not merely drop.
  ASSERT_TRUE(Sql("insert into item values (7, 50, 5.5, 'elk')").ok());
  ASSERT_TRUE(Sql("commit").ok());
  RecyclerStats after_insert = svc_->recycler().stats();
  EXPECT_GT(after_insert.propagated, 0u)
      << "insert-only commit did not take the propagation path";

  // The same SELECT is answered from the refreshed entry — with the new row.
  uint64_t hits_before_replay = after_insert.hits;
  auto r = Sql(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MalValue* v = r.value().Find("i_qty");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->bat()->size(), 4u);  // 20, 30, 40 and the fresh 50
  EXPECT_EQ(v->bat()->TailAt(3).AsInt(), 50);
  EXPECT_GT(svc_->recycler().stats().hits, hits_before_replay)
      << "the propagated entry was not reused";

  // A commit containing deletes must invalidate instead.
  uint64_t propagated_before_delete = svc_->recycler().stats().propagated;
  uint64_t invalidated_before_delete = svc_->recycler().stats().invalidated;
  ASSERT_TRUE(Sql("delete from item where i_qty = 50").ok());
  ASSERT_TRUE(Sql("commit").ok());
  RecyclerStats after_delete = svc_->recycler().stats();
  EXPECT_EQ(after_delete.propagated, propagated_before_delete)
      << "a delete commit must not propagate";
  EXPECT_GT(after_delete.invalidated, invalidated_before_delete);

  // Correctness after invalidation: recompute sees the deletion.
  r = Sql(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Find("i_qty")->bat()->size(), 3u);

  ServiceStats s = svc_->SnapshotStats();
  EXPECT_GT(s.pool_propagated, 0u);
  EXPECT_GT(s.pool_invalidated, 0u);
}

// §6.3 propagation now covers the whole selection family over a bind:
// equality predicates (kUselect) and LIKE predicates (kLikeSelect) survive
// insert-only commits refreshed, exactly like range selects.
TEST_F(SqlDmlServiceTest, EqualitySelectSurvivesInsertOnlyCommit) {
  const char* q = "select i_name from item where i_qty = 20";
  ASSERT_TRUE(Sql(q).ok());
  ASSERT_TRUE(Sql(q).ok());
  RecyclerStats before = svc_->recycler().stats();
  EXPECT_GT(before.hits, 0u);

  // Insert a second qty=20 row; the commit is insert-only.
  ASSERT_TRUE(Sql("insert into item values (7, 20, 9.5, 'elk')").ok());
  ASSERT_TRUE(Sql("commit").ok());
  RecyclerStats after = svc_->recycler().stats();
  EXPECT_GT(after.propagated, 0u)
      << "the kUselect-over-bind entry was not refreshed";

  uint64_t hits_before_replay = after.hits;
  auto r = Sql(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MalValue* v = r.value().Find("i_name");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->bat()->size(), 2u);  // bee and the fresh elk
  EXPECT_EQ(v->bat()->TailAt(0).AsStr(), "bee");
  EXPECT_EQ(v->bat()->TailAt(1).AsStr(), "elk");
  EXPECT_GT(svc_->recycler().stats().hits, hits_before_replay)
      << "the refreshed equality entry was never reused";
}

TEST_F(SqlDmlServiceTest, LikeSelectSurvivesInsertOnlyCommit) {
  const char* q = "select i_qty from item where i_name like 'a%'";
  ASSERT_TRUE(Sql(q).ok());
  ASSERT_TRUE(Sql(q).ok());
  EXPECT_GT(svc_->recycler().stats().hits, 0u);

  ASSERT_TRUE(
      Sql("insert into item values (7, 70, 9.5, 'auk')").ok());
  ASSERT_TRUE(Sql("commit").ok());
  RecyclerStats after = svc_->recycler().stats();
  EXPECT_GT(after.propagated, 0u)
      << "the kLikeSelect-over-bind entry was not refreshed";

  uint64_t hits_before_replay = after.hits;
  auto r = Sql(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MalValue* v = r.value().Find("i_qty");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->bat()->size(), 2u);  // ant (10) and auk (70)
  EXPECT_EQ(v->bat()->TailAt(0).AsInt(), 10);
  EXPECT_EQ(v->bat()->TailAt(1).AsInt(), 70);
  EXPECT_GT(svc_->recycler().stats().hits, hits_before_replay);
}

// ---------------------------------------------------------------------------
// Concurrent DML vs SELECT over cached plans (run under TSan in CI).
//
// Readers replay one cached SELECT pattern whose plan fetches two columns
// of the same table; writers commit inserts and deletes concurrently. Every
// result must be internally consistent — rows always satisfy b = a + 10, so
// for any committed snapshot sum(b) - sum(a) == 10 * count(*). A stale pool
// read (one column's intermediate surviving a commit it should not have)
// breaks that arithmetic; a torn read breaks the count. After quiesce the
// final state must be exact.
// ---------------------------------------------------------------------------
TEST(SqlDmlRaceTest, ConcurrentDmlVsCachedSelects) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("t", {{"a", TypeTag::kInt}, {"b", TypeTag::kInt}});
  ASSERT_TRUE(cat->LoadColumn<int32_t>("t", "a", {0, 1, 2, 3}).ok());
  ASSERT_TRUE(cat->LoadColumn<int32_t>("t", "b", {10, 11, 12, 13}).ok());

  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(std::move(cat), cfg);

  const char* kProbe =
      "select sum(a) as sa, sum(b) as sb, count(*) as c from t where a >= 0";

  Session writer;
  writer.set_autocommit(false);  // stage each batch until its COMMIT
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      Session reader;  // snapshot reads, never inside the writer's txn
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = testutil::SubmitSql(&svc, &reader, kProbe).get();
        if (!r.ok()) {
          ++bad;
          continue;
        }
        int64_t sa = r.value().Find("sa")->scalar().AsLng();
        int64_t sb = r.value().Find("sb")->scalar().AsLng();
        int64_t c = r.value().Find("c")->scalar().AsLng();
        if (sb - sa != 10 * c || c < 1) ++bad;
      }
    });
  }

  // One writer: batches of inserts (rows keep b = a + 10), periodically a
  // prefix delete, each followed by COMMIT through the same SQL path.
  const int kCommits = 12;
  int next = 4;
  int64_t expected_rows = 4;
  for (int cmt = 0; cmt < kCommits; ++cmt) {
    if (cmt % 3 == 2) {
      int cutoff = next - 6;
      auto r = testutil::RunSql(
          &svc, &writer,
          StrFormat("delete from t where a < %d and a >= %d", cutoff,
                    cutoff - 3));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected_rows -= r.value().Find("rows_deleted")->scalar().AsLng();
    } else {
      std::string stmt = StrFormat(
          "insert into t values (%d, %d), (%d, %d), (%d, %d)", next,
          next + 10, next + 1, next + 11, next + 2, next + 12);
      next += 3;
      expected_rows += 3;
      ASSERT_TRUE(testutil::RunSql(&svc, &writer, stmt).ok());
    }
    ASSERT_TRUE(testutil::RunSql(&svc, &writer, "commit").ok());
    // Let readers interleave with the committed state before the next one.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0) << "a reader observed a stale or torn snapshot";

  // Quiesced: the final state must be exact, and replaying the pattern must
  // reuse the cached plan (each commit dropped it; the post-commit compile
  // is shared by every subsequent probe).
  ASSERT_TRUE(testutil::RunSql(&svc, &writer, kProbe).ok());
  auto final_probe = testutil::RunSql(&svc, &writer, kProbe);
  ASSERT_TRUE(final_probe.ok()) << final_probe.status().ToString();
  EXPECT_EQ(final_probe.value().Find("c")->scalar().AsLng(), expected_rows);
  int64_t sa = final_probe.value().Find("sa")->scalar().AsLng();
  int64_t sb = final_probe.value().Find("sb")->scalar().AsLng();
  EXPECT_EQ(sb - sa, 10 * expected_rows);

  ServiceStats s = svc.SnapshotStats();
  EXPECT_EQ(s.dml_commits, static_cast<uint64_t>(kCommits));
  EXPECT_GT(s.plan_hits, 0u) << "the cached plan was never replayed";
}

}  // namespace
}  // namespace recycledb
