// Multi-statement transactions over the MVCC base (PR 9): BEGIN/COMMIT/
// ROLLBACK routing, UPDATE lowered as delete+reinsert, session write-set
// isolation (read-your-own-writes vs. other-session invisibility), ROLLBACK
// leaving catalog, recycle pool, and plan cache byte-identical, and
// first-writer-wins conflict detection — deterministically first, then a
// TSan-stressed conflict torture: K sessions race overlapping UPDATEs in
// barrier-aligned rounds with exactly one winner per round and an exact
// sum invariant at the end.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_ring.h"
#include "server/query_service.h"
#include "sql_test_util.h"
#include "util/str.h"

namespace recycledb {
namespace {

constexpr int kRows = 16;

/// acct(a_id int, a_bal int), ids 0..15, balances 100, 200, ..., 1600.
std::unique_ptr<Catalog> MakeAcctDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("acct", {{"a_id", TypeTag::kInt}, {"a_bal", TypeTag::kInt}});
  std::vector<int32_t> ids;
  std::vector<int32_t> bal;
  for (int i = 0; i < kRows; ++i) {
    ids.push_back(i);
    bal.push_back(100 * (i + 1));
  }
  EXPECT_TRUE(cat->LoadColumn<int32_t>("acct", "a_id", std::move(ids)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("acct", "a_bal", std::move(bal)).ok());
  return cat;
}

constexpr int64_t kInitialSum = 100LL * kRows * (kRows + 1) / 2;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig cfg;
    cfg.num_workers = 2;
    svc_ = std::make_unique<QueryService>(MakeAcctDb(), cfg);
  }

  Result<QueryResult> Run(Session* sess, const std::string& text) {
    return testutil::RunSql(svc_.get(), sess, text);
  }

  int64_t Sum(Session* sess) {
    auto r = Run(sess, "select sum(a_bal) as s from acct");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().Find("s")->scalar().AsLng() : -1;
  }

  int64_t Out(const Result<QueryResult>& r, const char* label) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return -1;
    const MalValue* v = r.value().Find(label);
    EXPECT_NE(v, nullptr) << label;
    return v == nullptr ? -1 : v->scalar().AsLng();
  }

  std::unique_ptr<QueryService> svc_;
};

// ---------------------------------------------------------------------------
// UPDATE under autocommit: one statement, one implicit transaction.
// ---------------------------------------------------------------------------

TEST_F(TxnTest, AutocommitUpdateByExpressionAndConstant) {
  Session s;
  auto r = Run(&s, "update acct set a_bal = a_bal + 10 where a_id < 4");
  EXPECT_EQ(Out(r, "rows_updated"), 4);
  EXPECT_EQ(Out(r, "committed"), 1) << "autocommit must fold the commit in";
  EXPECT_EQ(Sum(&s), kInitialSum + 40);

  // Constant assignment, full-table predicate-free form.
  r = Run(&s, "update acct set a_bal = 7");
  EXPECT_EQ(Out(r, "rows_updated"), kRows);
  EXPECT_EQ(Sum(&s), 7 * kRows);

  ServiceStats st = svc_->SnapshotStats();
  EXPECT_EQ(st.dml_updated_rows, static_cast<uint64_t>(4 + kRows));
  EXPECT_EQ(st.txn_conflicts, 0u);
}

TEST_F(TxnTest, UpdateErrorsAreClean) {
  Session s;
  EXPECT_FALSE(Run(&s, "update nosuch set x = 1").ok());
  EXPECT_FALSE(Run(&s, "update acct set nosuch = 1").ok());
  // Value overflows the int32 column: refused, nothing committed.
  auto r = Run(&s, "update acct set a_bal = 3000000000 where a_id = 0");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Sum(&s), kInitialSum);
}

// ---------------------------------------------------------------------------
// Write-set isolation and transaction control.
// ---------------------------------------------------------------------------

TEST_F(TxnTest, WriteSetVisibleToOwnerInvisibleToOthers) {
  Session mine, other;
  EXPECT_EQ(Out(Run(&mine, "begin"), "txn_begun"), 1);
  auto r = Run(&mine, "update acct set a_bal = a_bal + 1 where a_id < 8");
  EXPECT_EQ(Out(r, "rows_updated"), 8);

  EXPECT_EQ(Sum(&mine), kInitialSum + 8) << "read-your-own-writes";
  EXPECT_EQ(Sum(&other), kInitialSum) << "uncommitted writes leaked";

  EXPECT_EQ(Out(Run(&mine, "commit"), "committed"), 1);
  EXPECT_EQ(Sum(&other), kInitialSum + 8);
}

TEST_F(TxnTest, BeginInsideTxnRejectedAndIdleControlIsNoOp) {
  Session s;
  ASSERT_TRUE(Run(&s, "begin").ok());
  EXPECT_FALSE(Run(&s, "begin").ok()) << "nested BEGIN must be refused";
  ASSERT_TRUE(Run(&s, "rollback").ok());
  // COMMIT/ROLLBACK with no open transaction succeed as no-ops.
  EXPECT_EQ(Out(Run(&s, "commit"), "committed"), 0);
  EXPECT_EQ(Out(Run(&s, "rollback"), "rolled_back"), 0);
}

// The PR's acceptance criterion: BEGIN; UPDATE ...; ROLLBACK leaves the
// catalog, the recycle pool, and the plan cache byte-identical — epoch
// unchanged, zero invalidations, and a reader's SELECT text unchanged.
TEST_F(TxnTest, RollbackLeavesEverythingByteIdentical) {
  Session reader, writer;
  const char* probe = "select a_id, a_bal from acct";
  // Warm the pool and the plan cache (the sum query too, so the writer's
  // in-transaction reads below add no new plan entries).
  ASSERT_TRUE(Run(&reader, probe).ok());
  ASSERT_EQ(Sum(&reader), kInitialSum);
  auto before = Run(&reader, probe);
  ASSERT_TRUE(before.ok());
  const std::string before_text = before.value().ToString();
  const uint64_t epoch_before = svc_->catalog()->epoch();
  const RecyclerStats rec_before = svc_->recycler().stats();
  const size_t plans_before = svc_->plan_cache().size();

  ASSERT_TRUE(Run(&writer, "begin").ok());
  auto u = Run(&writer, "update acct set a_bal = 0 where a_id < 12");
  EXPECT_EQ(Out(u, "rows_updated"), 12);
  EXPECT_EQ(Sum(&writer), kInitialSum - (100LL * 12 * 13 / 2));
  EXPECT_EQ(Out(Run(&writer, "rollback"), "rolled_back"), 1);

  EXPECT_EQ(svc_->catalog()->epoch(), epoch_before)
      << "rollback must not publish a snapshot";
  const RecyclerStats rec_after = svc_->recycler().stats();
  EXPECT_EQ(rec_after.invalidated, rec_before.invalidated)
      << "rollback must not invalidate pool entries";
  EXPECT_EQ(rec_after.propagated, rec_before.propagated);
  EXPECT_EQ(svc_->plan_cache().size(), plans_before);

  auto after = Run(&reader, probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().ToString(), before_text);
  EXPECT_EQ(Sum(&writer), kInitialSum) << "the writer's view must reset too";
  EXPECT_EQ(svc_->SnapshotStats().txn_rolled_back, 1u);
}

TEST_F(TxnTest, CommitPublishesTheWholeTransactionOnce) {
  Session s, reader;
  const uint64_t epoch_before = svc_->catalog()->epoch();
  ASSERT_TRUE(Run(&s, "begin").ok());
  ASSERT_TRUE(Run(&s, "update acct set a_bal = a_bal + 5 where a_id < 2").ok());
  ASSERT_TRUE(
      Run(&s, "update acct set a_bal = a_bal + 5 where a_id >= 14").ok());
  ASSERT_TRUE(Run(&s, "insert into acct values (99, 1000)").ok());
  EXPECT_EQ(Sum(&reader), kInitialSum);
  ASSERT_TRUE(Run(&s, "commit").ok());
  // One atomic publish for three statements.
  EXPECT_EQ(svc_->catalog()->epoch(), epoch_before + 1);
  EXPECT_EQ(Sum(&reader), kInitialSum + 4 * 5 + 1000);
}

// ---------------------------------------------------------------------------
// First-writer-wins.
// ---------------------------------------------------------------------------

TEST_F(TxnTest, OverlappingCommitLosesWithWriteConflict) {
  Session s1, s2, reader;
  ASSERT_TRUE(Run(&s1, "begin").ok());
  ASSERT_TRUE(Run(&s2, "begin").ok());
  ASSERT_TRUE(Run(&s1, "update acct set a_bal = 111 where a_id = 3").ok());
  ASSERT_TRUE(Run(&s2, "update acct set a_bal = 222 where a_id = 3").ok());

  EXPECT_EQ(Out(Run(&s1, "commit"), "committed"), 1);
  auto r = Run(&s2, "commit");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kWriteConflict)
      << r.status().ToString();

  // The loser's transaction is gone — its session is idle, its write set
  // never touched the catalog, and the winner's value stands.
  EXPECT_FALSE(s2.in_txn());
  auto v = Run(&reader, "select a_bal from acct where a_id = 3");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().Find("a_bal")->bat()->TailAt(0).AsInt(), 111);

  ServiceStats st = svc_->SnapshotStats();
  EXPECT_EQ(st.txn_conflicts, 1u);
  EXPECT_EQ(st.txn_committed, 1u);
  bool saw_conflict_event = false;
  for (const obs::Event& e : svc_->events().Snapshot())
    saw_conflict_event |= e.kind == obs::EventKind::kTxnConflict;
  EXPECT_TRUE(saw_conflict_event);
}

TEST_F(TxnTest, DisjointCommitsBothSucceed) {
  Session s1, s2;
  ASSERT_TRUE(Run(&s1, "begin").ok());
  ASSERT_TRUE(Run(&s2, "begin").ok());
  ASSERT_TRUE(
      Run(&s1, "update acct set a_bal = a_bal + 1 where a_id < 4").ok());
  ASSERT_TRUE(
      Run(&s2, "update acct set a_bal = a_bal + 1 where a_id >= 12").ok());
  EXPECT_EQ(Out(Run(&s1, "commit"), "committed"), 1);
  EXPECT_EQ(Out(Run(&s2, "commit"), "committed"), 1)
      << "disjoint row sets must not conflict";
  EXPECT_EQ(Sum(&s1), kInitialSum + 8);
}

TEST_F(TxnTest, InsertOnlyTransactionsNeverConflict) {
  Session s1, s2;
  ASSERT_TRUE(Run(&s1, "begin").ok());
  ASSERT_TRUE(Run(&s2, "begin").ok());
  ASSERT_TRUE(Run(&s1, "insert into acct values (90, 1)").ok());
  ASSERT_TRUE(Run(&s2, "insert into acct values (91, 2)").ok());
  ASSERT_TRUE(Run(&s1, "commit").ok());
  ASSERT_TRUE(Run(&s2, "commit").ok())
      << "insert-only commits carry no victims and must never conflict";
  EXPECT_EQ(Sum(&s1), kInitialSum + 3);
  EXPECT_EQ(svc_->SnapshotStats().txn_conflicts, 0u);
}

// ---------------------------------------------------------------------------
// Conflict torture (run under TSan in CI): K sessions, barrier-aligned
// rounds. Every session BEGINs at the same epoch and UPDATEs an overlapping
// row range, then all COMMIT concurrently — first-writer-wins must pick
// EXACTLY one winner per round, losers must fail with WriteConflict and
// leave no trace, and the final sum must equal the winners' deltas exactly.
// ---------------------------------------------------------------------------

class RoundBarrier {
 public:
  explicit RoundBarrier(int n) : n_(n) {}
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    int gen = gen_;
    if (++count_ == n_) {
      count_ = 0;
      ++gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return gen_ != gen; });
    }
  }

 private:
  const int n_;
  std::mutex mu_;
  std::condition_variable cv_;
  int count_ = 0;
  int gen_ = 0;
};

TEST_F(TxnTest, ConflictTortureExactlyOneWinnerPerRound) {
  constexpr int kSessions = 4;
  constexpr int kRounds = 12;
  RoundBarrier barrier(kSessions);
  std::atomic<int64_t> added{0};
  std::atomic<int> errors{0};
  std::vector<std::atomic<int>> round_wins(kRounds);
  for (auto& w : round_wins) w.store(0);

  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      Session sess;
      for (int r = 0; r < kRounds; ++r) {
        barrier.Wait();  // all previous-round commits have resolved
        if (!Run(&sess, "begin").ok()) {
          ++errors;
          continue;
        }
        // Every session's range includes rows 0..3 — guaranteed overlap.
        auto u = Run(&sess,
                     StrFormat("update acct set a_bal = a_bal + 1 "
                               "where a_id < %d",
                               4 + t));
        if (!u.ok()) {
          ++errors;
          Run(&sess, "rollback");
          barrier.Wait();
          continue;
        }
        int64_t rows = u.value().Find("rows_updated")->scalar().AsLng();
        barrier.Wait();  // all sessions hold epoch-E write sets; now race
        auto c = Run(&sess, "commit");
        if (c.ok()) {
          round_wins[r].fetch_add(1);
          added.fetch_add(rows);
        } else if (c.status().code() != StatusCode::kWriteConflict) {
          ++errors;  // conflicts are the expected loss mode; nothing else is
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0);
  for (int r = 0; r < kRounds; ++r)
    EXPECT_EQ(round_wins[r].load(), 1) << "round " << r;

  Session check;
  EXPECT_EQ(Sum(&check), kInitialSum + added.load())
      << "losers' write sets must leave no trace";
  ServiceStats st = svc_->SnapshotStats();
  EXPECT_EQ(st.txn_committed, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(st.txn_conflicts,
            static_cast<uint64_t>(kRounds * (kSessions - 1)));
  EXPECT_EQ(st.txn_begun, static_cast<uint64_t>(kRounds * kSessions));
}

// Rolled-back and conflicted transactions interleaved with snapshot readers:
// readers must only ever observe committed sums (multiples of the committed
// deltas), never a partial write set.
TEST_F(TxnTest, ReadersNeverObserveUncommittedState) {
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int64_t> committed_delta{0};
  std::thread reader([&] {
    Session sess;
    while (!stop.load(std::memory_order_relaxed)) {
      int64_t s = Sum(&sess);
      // The only legal observations are kInitialSum + some prefix of the
      // committed deltas; each commit adds exactly 16 (all rows + 1).
      if (s < kInitialSum || s > kInitialSum + committed_delta.load() ||
          (s - kInitialSum) % kRows != 0) {
        ++bad;
      }
    }
  });
  Session writer;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Run(&writer, "begin").ok());
    ASSERT_TRUE(Run(&writer, "update acct set a_bal = a_bal + 1").ok());
    if (i % 3 == 2) {
      ASSERT_TRUE(Run(&writer, "rollback").ok());
    } else {
      committed_delta.fetch_add(kRows);  // before commit: reader may see it
      ASSERT_TRUE(Run(&writer, "commit").ok());
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0) << "a reader observed an uncommitted write set";
  Session check;
  EXPECT_EQ(Sum(&check), kInitialSum + committed_delta.load());
}

// ---------------------------------------------------------------------------
// Commit phases and FK joins.
// ---------------------------------------------------------------------------

uint64_t HistCount(const QueryService& svc, const std::string& name) {
  const obs::RegistrySnapshot snap = svc.MetricsSnapshot();
  const obs::MetricValue* m = snap.Find(name);
  EXPECT_NE(m, nullptr) << name;
  return m == nullptr ? 0 : m->hist.count;
}

// One COMMIT adds one sample to each commit phase histogram, whether the
// transaction is explicit or an autocommit statement; ROLLBACK adds none.
TEST_F(TxnTest, CommitRecordsOneSamplePerPhase) {
  const char* kPhases[] = {"commit_merge_us", "commit_index_us",
                           "commit_pool_us", "commit_publish_us"};
  for (const char* h : kPhases) EXPECT_EQ(HistCount(*svc_, h), 0u) << h;
  Session s;
  ASSERT_TRUE(Run(&s, "begin").ok());
  ASSERT_TRUE(Run(&s, "insert into acct values (99, 1)").ok());
  ASSERT_TRUE(Run(&s, "commit").ok());
  for (const char* h : kPhases) EXPECT_EQ(HistCount(*svc_, h), 1u) << h;
  ASSERT_TRUE(Run(&s, "update acct set a_bal = a_bal + 1 where a_id = 3").ok());
  for (const char* h : kPhases) EXPECT_EQ(HistCount(*svc_, h), 2u) << h;
  ASSERT_TRUE(Run(&s, "begin").ok());
  ASSERT_TRUE(Run(&s, "insert into acct values (98, 1)").ok());
  ASSERT_TRUE(Run(&s, "rollback").ok());
  for (const char* h : kPhases) EXPECT_EQ(HistCount(*svc_, h), 2u) << h;
  EXPECT_NE(svc_->MetricsSnapshot().ToPrometheus().find(
                "recycledb_commit_index_us_count 2"),
            std::string::npos);
}

// A join through an FK index never pairs a nil child key with a nil parent
// key, before or after a commit rebuilds the index.
TEST(FkJoinTest, NilKeysNeverJoin) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("p", {{"p_key", TypeTag::kOid}, {"p_val", TypeTag::kInt}});
  cat->CreateTable("c", {{"c_key", TypeTag::kOid}, {"c_val", TypeTag::kInt}});
  ASSERT_TRUE(
      cat->LoadColumn<Oid>("p", "p_key", {100, kNilOid}, true, true).ok());
  ASSERT_TRUE(cat->LoadColumn<int32_t>("p", "p_val", {1, 2}).ok());
  ASSERT_TRUE(cat->LoadColumn<Oid>("c", "c_key", {kNilOid, 100, 7}).ok());
  ASSERT_TRUE(cat->LoadColumn<int32_t>("c", "c_val", {1, 2, 3}).ok());
  ASSERT_TRUE(cat->RegisterFkIndex("c_p", "c", "c_key", "p", "p_key").ok());
  QueryService svc(std::move(cat), ServiceConfig{});
  Session s;
  auto count = [&] {
    auto r = testutil::RunSql(
        &svc, &s, "select count(*) as n from c inner join p on c_key = p_key");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().Find("n")->scalar().AsLng() : -1;
  };
  EXPECT_EQ(count(), 1);
  ASSERT_TRUE(testutil::RunSql(&svc, &s, "insert into c values (100, 4)").ok());
  EXPECT_EQ(count(), 2);
}

}  // namespace
}  // namespace recycledb
