// MVCC snapshot reads (catalog epochs): the snapshot-isolation torture test
// (concurrent readers never observe a partially applied commit), the
// deterministic proof that SQL and Program queries complete while the
// exclusive update lock is held, writer progress while many sessions hold
// the update lock shared (compiles, overlay builds, in-transaction DML),
// pinned-session repeatable reads, submission deadlines, epoch
// observability (snapshot_epoch gauge, epoch_pins, kEpochBump events), and
// commits that add strings to a column's shared heap. Runs under TSan via
// the regular test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/answers.h"
#include "server/query_service.h"
#include "sql/planner.h"
#include "tpch/tpch.h"
#include "util/str.h"

namespace recycledb {
namespace {

// ---------------------------------------------------------------------------
// acct(a_id oid, a_seq int, a_v int): `rows` rows, ids/seqs 0..rows-1, every
// value 5 — so any committed state the writer below produces satisfies
// count(*) == rows and sum(a_v) == 5 * rows.
// ---------------------------------------------------------------------------
std::unique_ptr<Catalog> MakeAcctDb(int rows) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("acct", {{"a_id", TypeTag::kOid},
                            {"a_seq", TypeTag::kInt},
                            {"a_v", TypeTag::kInt}});
  std::vector<Oid> ids(rows);
  std::vector<int32_t> seqs(rows), vals(rows, 5);
  for (int i = 0; i < rows; ++i) {
    ids[i] = static_cast<Oid>(i);
    seqs[i] = i;
  }
  EXPECT_TRUE(
      cat->LoadColumn<Oid>("acct", "a_id", std::move(ids), true, true).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("acct", "a_seq", std::move(seqs)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("acct", "a_v", std::move(vals)).ok());
  return cat;
}

Result<QueryResult> RunStmt(QueryService* svc, const std::string& sql,
                            Session* session = nullptr) {
  // Submit requires a session; a scratch one (autocommit on, no state)
  // stands in for "anonymous one-shot statement" probes.
  Session scratch;
  return svc->Submit(Request{sql, session != nullptr ? session : &scratch, {}})
      .future.get();
}

int64_t CountOf(const Result<QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return -1;
  const MalValue* v = r.value().Find("count");
  EXPECT_NE(v, nullptr);
  return v == nullptr ? -1 : v->scalar().ToInt64();
}

// ---------------------------------------------------------------------------
// Torture: one writer churns INSERT + DELETE + COMMIT transactions that
// each preserve count == 100 and sum == 500; concurrent snapshot readers
// must never observe any other (count, sum) pair — a reader seeing a
// half-applied commit is exactly the bug MVCC removes.
// ---------------------------------------------------------------------------
TEST(MvccTortureTest, ReadersNeverObservePartialCommit) {
  ServiceConfig cfg;
  cfg.num_workers = 4;
  QueryService svc(MakeAcctDb(100), cfg);

  constexpr int kTxns = 40;
  constexpr int kBatch = 10;
  std::atomic<bool> stop{false};
  std::atomic<int> write_errors{0};
  std::atomic<int> read_errors{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    Session wsess;
    wsess.set_autocommit(false);
    for (int i = 0; i < kTxns; ++i) {
      std::string ins = "insert into acct values ";
      for (int k = 0; k < kBatch; ++k) {
        const int id = 100 + i * kBatch + k;
        ins += StrFormat("(%d, %d, 5)%s", id, id, k == kBatch - 1 ? "" : ", ");
      }
      const std::string del =
          StrFormat("delete from acct where a_seq between %d and %d",
                    i * kBatch, i * kBatch + kBatch - 1);
      if (!RunStmt(&svc, ins, &wsess).ok()) ++write_errors;
      if (!RunStmt(&svc, del, &wsess).ok()) ++write_errors;
      if (!RunStmt(&svc, "commit", &wsess).ok()) ++write_errors;
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      Session rsess;
      // A minimum iteration count keeps the assertions meaningful even if
      // the writer outpaces reader startup and finishes first.
      for (int n = 0; n < 30 || !stop.load(std::memory_order_acquire); ++n) {
        auto r = RunStmt(&svc, "select count(*), sum(a_v) from acct", &rsess);
        if (!r.ok()) {
          ++read_errors;
          continue;
        }
        const int64_t cnt = r.value().Find("count")->scalar().ToInt64();
        const double sum = r.value().Find("sum_a_v")->scalar().ToDouble();
        if (cnt != 100 || sum != 500.0) ++violations;
        ++reads;
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(violations.load(), 0)
      << "a snapshot reader observed a partially applied commit";
  EXPECT_GT(reads.load(), 0u);

  // Final state: every transaction preserved the invariant.
  EXPECT_EQ(CountOf(RunStmt(&svc, "select count(*) from acct")), 100);
}

// ---------------------------------------------------------------------------
// The acceptance property, proven deterministically: while a thread holds
// the EXCLUSIVE update lock (a commit in flight), every query path — a
// cached SQL SELECT and a pre-built Program — still completes.
// ---------------------------------------------------------------------------
class MvccLockTest : public ::testing::Test {
 protected:
  /// Holds the exclusive update lock until Release(); Hold() returns once
  /// the lock is actually held.
  void Hold(QueryService* svc) {
    holder_ = std::thread([this, svc] {
      Status st = svc->ApplyUpdate([this](Catalog*) {
        locked_.set_value();
        release_.get_future().wait();
        return Status::OK();
      });
      EXPECT_TRUE(st.ok());
    });
    locked_.get_future().wait();
  }
  void Release() {
    release_.set_value();
    holder_.join();
  }

  std::promise<void> locked_, release_;
  std::thread holder_;
};

TEST_F(MvccLockTest, SnapshotSelectCompletesDuringInflightCommit) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  QueryService svc(MakeAcctDb(100), cfg);
  const char* q = "select count(*), sum(a_v) from acct";
  // Prime the plan cache: the submit path of a cached SELECT is lock-free.
  ASSERT_TRUE(RunStmt(&svc, q).ok());

  Hold(&svc);
  Session sess;
  QueryHandle h = svc.Submit(Request{q, &sess, {}});
  ASSERT_EQ(h.future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "snapshot SELECT must not wait for the exclusive update lock";
  auto r = h.future.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 100);
  Release();
}

TEST_F(MvccLockTest, ProgramSubmitCompletesDuringInflightCommit) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  QueryService svc(MakeAcctDb(100), cfg);
  auto compiled =
      sql::CompileSql(svc.catalog(), "select count(*), sum(a_v) from acct");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Program& prog = compiled.value().plan.prog;

  Hold(&svc);
  auto fut = svc.Submit(&prog, compiled.value().params);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "a Program submission must not wait for the exclusive update lock";
  auto r = fut.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 100);
  Release();
}

// Commits must keep landing while the shared hold of the update lock is
// busy: a one-plan cache forces every SELECT of two alternating shapes to
// compile under the shared hold, and transaction sessions build overlays
// and stage DML under it too. There is no writer gate — a shared hold lasts
// one compile or statement, so the exclusive holder gets in between them.
TEST_F(MvccLockTest, WriterProgressesUnderSharedHoldChurn) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.plan_cache_capacity = 1;
  QueryService svc(MakeAcctDb(100), cfg);

  constexpr int kCompilers = 4;
  constexpr int kTxnSessions = 2;
  constexpr int kCommits = 100;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churn_ops{0};
  std::atomic<int> churn_errors{0};

  std::vector<std::thread> churn;
  for (int t = 0; t < kCompilers; ++t) {
    churn.emplace_back([&, t] {
      Session sess;
      for (int n = t; !stop.load(std::memory_order_acquire); ++n) {
        const char* q = n % 2 == 0 ? "select count(*) from acct"
                                   : "select sum(a_v) from acct";
        if (!RunStmt(&svc, q, &sess).ok()) ++churn_errors;
        ++churn_ops;
      }
    });
  }
  for (int t = 0; t < kTxnSessions; ++t) {
    churn.emplace_back([&, t] {
      Session sess;
      const std::string ins =
          StrFormat("insert into acct values (%d, %d, 5)", 5000 + t, 5000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        // BEGIN and ROLLBACK are lock-free; the INSERT and the overlay
        // build behind the in-transaction SELECT take the shared hold.
        if (!RunStmt(&svc, "begin", &sess).ok()) ++churn_errors;
        if (!RunStmt(&svc, ins, &sess).ok()) ++churn_errors;
        if (CountOf(RunStmt(&svc, "select count(*) from acct", &sess)) < 101)
          ++churn_errors;
        if (!RunStmt(&svc, "rollback", &sess).ok()) ++churn_errors;
        ++churn_ops;
      }
    });
  }
  // The writer starts only once the churn is running.
  while (churn_ops.load() < 20) std::this_thread::yield();

  const uint64_t compiles_before = svc.SnapshotStats().plan_compiles;
  std::promise<void> writer_done;
  std::atomic<int> commits{0};
  std::thread writer([&] {
    // Commit only once a churn compile has landed since compiles_before,
    // so the check below tests lock fairness, not which thread the
    // scheduler ran first.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (svc.SnapshotStats().plan_compiles == compiles_before &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    Session wsess;  // autocommit: one exclusive hold per statement
    for (int i = 0; i < kCommits; ++i) {
      const std::string ins =
          StrFormat("insert into acct values (%d, %d, 5)", 1000 + i, 1000 + i);
      if (RunStmt(&svc, ins, &wsess).ok()) ++commits;
    }
    writer_done.set_value();
  });
  const std::future_status st =
      writer_done.get_future().wait_for(std::chrono::seconds(60));
  const uint64_t compiles_during =
      svc.SnapshotStats().plan_compiles - compiles_before;
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : churn) t.join();

  ASSERT_EQ(st, std::future_status::ready)
      << "autocommit writer starved behind the shared update-lock holders";
  EXPECT_EQ(commits.load(), kCommits);
  EXPECT_EQ(churn_errors.load(), 0);
  EXPECT_GT(compiles_during, 0u) << "the churn never compiled under the hold";
  EXPECT_EQ(CountOf(RunStmt(&svc, "select count(*) from acct")),
            100 + kCommits);
}

// ---------------------------------------------------------------------------
// Session pinning: repeatable reads across statements.
// ---------------------------------------------------------------------------
TEST(MvccSessionTest, PinnedSessionGetsRepeatableReads) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  QueryService svc(MakeAcctDb(4), cfg);
  const char* q = "select count(*) from acct";

  Session pinned;
  pinned.Pin(svc.CurrentSnapshot());
  EXPECT_EQ(CountOf(RunStmt(&svc, q, &pinned)), 4);

  // Another session commits an insert (autocommit folds the commit into
  // the statement).
  Session writer;
  ASSERT_TRUE(writer.autocommit());
  ASSERT_TRUE(
      RunStmt(&svc, "insert into acct values (100, 100, 5)", &writer).ok());

  // Fresh sessions see the new row; the pinned session keeps its epoch.
  Session fresh;
  EXPECT_EQ(CountOf(RunStmt(&svc, q, &fresh)), 5);
  EXPECT_EQ(CountOf(RunStmt(&svc, q, &pinned)), 4)
      << "pinned session must keep reading its snapshot";

  // Unpinning resumes per-statement snapshot capture.
  pinned.Unpin();
  EXPECT_EQ(CountOf(RunStmt(&svc, q, &pinned)), 5);
}

TEST(MvccSessionTest, HandleReportsSnapshotEpoch) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  QueryService svc(MakeAcctDb(4), cfg);

  Session reader;
  QueryHandle h1 =
      svc.Submit(Request{"select count(*) from acct", &reader, {}});
  EXPECT_TRUE(h1.future.get().ok());
  EXPECT_FALSE(h1.is_dml);
  const uint64_t e1 = h1.snapshot_epoch;

  Session writer;
  QueryHandle hd =
      svc.Submit(Request{"insert into acct values (100, 100, 5)", &writer, {}});
  EXPECT_TRUE(hd.future.get().ok());
  EXPECT_TRUE(hd.is_dml);

  QueryHandle h2 =
      svc.Submit(Request{"select count(*) from acct", &reader, {}});
  EXPECT_TRUE(h2.future.get().ok());
  EXPECT_EQ(h2.snapshot_epoch, e1 + 1)
      << "a committed insert must advance the captured epoch by one";
}

// ---------------------------------------------------------------------------
// Deadlines: a submission whose deadline lapses while queued resolves with
// kDeadlineExceeded instead of running.
// ---------------------------------------------------------------------------
TEST(MvccSessionTest, ExpiredDeadlineResolvesWithoutRunning) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  QueryService svc(MakeAcctDb(4), cfg);

  SubmitOptions opt;
  opt.deadline_ms = 1e-6;  // lapses before any worker can dequeue it
  Session sess;
  auto r =
      svc.Submit(Request{"select count(*) from acct", &sess, opt}).future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_GT(svc.SnapshotStats().failed, 0u);

  // No deadline (the default) still runs fine on the same service.
  EXPECT_EQ(CountOf(RunStmt(&svc, "select count(*) from acct")), 4);
}

// ---------------------------------------------------------------------------
// Epoch observability: the snapshot_epoch gauge, epoch_pins counter, and
// kEpochBump events.
// ---------------------------------------------------------------------------
TEST(MvccObservabilityTest, EpochMetricsAndEvents) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  QueryService svc(MakeAcctDb(4), cfg);

  const uint64_t e0 = svc.SnapshotStats().snapshot_epoch;
  const uint64_t pins0 = svc.SnapshotStats().epoch_pins;

  EXPECT_EQ(CountOf(RunStmt(&svc, "select count(*) from acct")), 4);
  EXPECT_GT(svc.SnapshotStats().epoch_pins, pins0)
      << "every snapshot submission pins an epoch";

  Session writer;
  ASSERT_TRUE(
      RunStmt(&svc, "insert into acct values (100, 100, 5)", &writer).ok());

  ServiceStats s = svc.SnapshotStats();
  EXPECT_EQ(s.snapshot_epoch, e0 + 1);

  bool saw_bump = false;
  for (const auto& ev : svc.events().Snapshot())
    if (ev.kind == obs::EventKind::kEpochBump) saw_bump = true;
  EXPECT_TRUE(saw_bump) << "commit must record a kEpochBump event";

  // The machine-readable export carries the new metrics.
  const std::string json = svc.DumpMetricsJson();
  EXPECT_NE(json.find("snapshot_epoch"), std::string::npos);
  EXPECT_NE(json.find("epoch_pins"), std::string::npos);
  EXPECT_NE(json.find("stale_entry_refreshes"), std::string::npos);
  EXPECT_NE(json.find("pool_stale_declines"), std::string::npos);
}

// ---------------------------------------------------------------------------
// String heaps across commits. A string column is codes into a shared,
// deduplicated heap; a commit that adds a new string extends a copy. A
// pinned reader keeps its heap, its answers and the results it holds, and
// §6.3 propagation over string selects matches a recycler-free reference.
// ---------------------------------------------------------------------------
TEST(MvccStringHeapTest, CommitsAddingStringsLeaveOldSnapshotsIntact) {
  auto cat = std::make_unique<Catalog>();
  tpch::TpchConfig tcfg;
  tcfg.scale_factor = 0.001;
  ASSERT_TRUE(tpch::LoadTpch(cat.get(), tcfg).ok());
  ServiceConfig cfg;
  cfg.num_workers = 2;
  QueryService svc(std::move(cat), cfg);

  const std::string q_like =
      "select o_orderkey, o_comment from orders where o_comment like "
      "'%special%'";
  const std::string q_range =
      "select o_orderkey, o_orderpriority from orders where o_orderpriority "
      ">= '4-NOT SPECIFIED'";
  const std::string q_eq =
      "select o_orderkey from orders where o_orderpriority = '6-NEW'";
  const std::string q_group =
      "select o_orderpriority, count(*) from orders group by "
      "o_orderpriority";
  const std::vector<std::string> queries = {q_like, q_range, q_eq, q_group};
  auto answer = [&](const std::string& q, Session* session) {
    auto r = RunStmt(&svc, q, session);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? perfbench::Canonicalize(r.value()) : perfbench::Answer{};
  };
  auto reference = [&](const std::string& q) {
    auto a = perfbench::ReferenceAnswer(svc.catalog(), q);
    EXPECT_TRUE(a.ok()) << q;
    return a.ok() ? a.value() : perfbench::Answer{};
  };

  // The pinned reader runs every query twice (admit, then hit) and keeps
  // the first string result it was handed.
  Session pinned;
  pinned.Pin(svc.CurrentSnapshot());
  std::vector<perfbench::Answer> before;
  for (const auto& q : queries) {
    before.push_back(answer(q, &pinned));
    EXPECT_TRUE(perfbench::SameAnswer(before.back(), answer(q, &pinned)));
  }
  auto held = RunStmt(&svc, q_like, &pinned);
  ASSERT_TRUE(held.ok());
  BatPtr held_bat = held.value().Find("o_comment")->bat();
  ASSERT_GT(held_bat->size(), 0u);
  const StringHeapPtr held_heap = held_bat->tail().col->heap();
  const size_t held_heap_size = held_heap->size();
  std::vector<std::string> held_strings;
  for (size_t i = 0; i < held_bat->size(); ++i)
    held_strings.push_back(held_bat->TailAt(i).AsStr());

  // Commit 1, insert-only: a new comment and a new priority, both strings
  // the heaps lack.
  const uint64_t propagated0 = svc.recycler().stats().propagated;
  Session writer;
  writer.set_autocommit(false);
  const std::string insert =
      "insert into orders values (900001, 1, 'O', 10.5, date '1995-03-01', "
      "'6-NEW', 'zebra special requests'), (900002, 2, 'O', 11.5, date "
      "'1996-03-01', '1-URGENT', 'quietly special kiwis')";
  ASSERT_TRUE(RunStmt(&svc, insert, &writer).ok());
  ASSERT_TRUE(RunStmt(&svc, "commit", &writer).ok());
  EXPECT_GT(svc.recycler().stats().propagated, propagated0)
      << "the insert-only commit must refresh the string selects";

  // Commit 2: an UPDATE to another new priority string.
  const std::string update =
      "update orders set o_orderpriority = '7-NEWER' where o_orderkey = "
      "900002";
  ASSERT_TRUE(RunStmt(&svc, update, &writer).ok());
  ASSERT_TRUE(RunStmt(&svc, "commit", &writer).ok());

  for (size_t k = 0; k < queries.size(); ++k) {
    const std::string& q = queries[k];
    // The pinned reader still sees its epoch, from its own heaps.
    EXPECT_TRUE(perfbench::SameAnswer(before[k], answer(q, &pinned))) << q;
    // Fresh readers, twice (miss or refreshed entry, then hit), agree with
    // a recycler-free run over the committed state.
    const perfbench::Answer want = reference(q);
    Session fresh;
    EXPECT_TRUE(perfbench::SameAnswer(want, answer(q, &fresh))) << q;
    EXPECT_TRUE(perfbench::SameAnswer(want, answer(q, &fresh))) << q;
  }
  EXPECT_FALSE(perfbench::SameAnswer(before[2], reference(q_eq)))
      << "the new priority must be visible to fresh readers";

  // The result the pinned reader holds still reads the same strings from
  // the same, unchanged heap.
  EXPECT_EQ(held_bat->tail().col->heap(), held_heap);
  EXPECT_EQ(held_heap->size(), held_heap_size);
  for (size_t i = 0; i < held_bat->size(); ++i)
    EXPECT_EQ(held_bat->TailAt(i).AsStr(), held_strings[i]);
}

// ---------------------------------------------------------------------------
// A commit rebuilds each changed column and rescans its flags. A column
// that still strictly increases stays key, as o_orderkey was loaded; a
// duplicate leaves it sorted but not key. Joins choose their kernel on
// these flags, so both must match the values.
// ---------------------------------------------------------------------------
TEST(MvccFlagTest, CommitKeepsKeyOnlyWhileValuesStrictlyIncrease) {
  auto cat = std::make_unique<Catalog>();
  tpch::TpchConfig tcfg;
  tcfg.scale_factor = 0.001;
  ASSERT_TRUE(tpch::LoadTpch(cat.get(), tcfg).ok());
  QueryService svc(std::move(cat), ServiceConfig{});
  auto orderkey = [&] {
    BatPtr b =
        svc.CurrentSnapshot()->BindColumn("orders", "o_orderkey").ValueOrDie();
    return b->tail().col;
  };
  ASSERT_TRUE(orderkey()->sorted());
  ASSERT_TRUE(orderkey()->key());

  const std::string insert =
      "insert into orders values (900001, 1, 'O', 10.5, date '1995-03-01', "
      "'5-LOW', 'flag check')";
  Session writer;
  writer.set_autocommit(false);
  ASSERT_TRUE(RunStmt(&svc, insert, &writer).ok());
  ASSERT_TRUE(RunStmt(&svc, "commit", &writer).ok());
  EXPECT_EQ(orderkey()->Data<Oid>().back(), Oid{900001});
  EXPECT_TRUE(orderkey()->sorted());
  EXPECT_TRUE(orderkey()->key()) << "a larger key keeps the column key";

  ASSERT_TRUE(RunStmt(&svc, insert, &writer).ok());
  ASSERT_TRUE(RunStmt(&svc, "commit", &writer).ok());
  EXPECT_TRUE(orderkey()->sorted());
  EXPECT_FALSE(orderkey()->key()) << "a duplicate key clears the flag";
}

}  // namespace
}  // namespace recycledb
