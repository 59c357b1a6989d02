// End-to-end tests for the network service: a full mixed workload over
// loopback with results byte-identical to an in-process Submit, session
// options, BUSY admission control under injected and real pool budget
// pressure,
// CANCEL semantics (counter + event-ring visibility), the reply contract
// (replies leave from the producing thread: slot released before the
// bytes, cancel suppression, slow and vanishing readers), protocol-error
// handling for garbage bytes, graceful Stop() draining, and a
// start/stop/churn stress loop (TSan-clean, no sleeps in shutdown).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "pool_test_driver.h"
#include "server/query_service.h"
#include "sql_test_util.h"
#include "util/rng.h"

namespace recycledb {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameKind;

/// Deterministic two-column table: a shadow catalog built with the same
/// seed is value-identical, which is what makes remote-vs-local parity a
/// byte-for-byte comparison.
std::unique_ptr<Catalog> MakeDb(uint64_t seed = 11, int rows = 2000) {
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

std::unique_ptr<QueryService> MakeService(int workers = 2) {
  ServiceConfig cfg;
  cfg.num_workers = workers;
  return std::make_unique<QueryService>(MakeDb(), cfg);
}

net::ClientConfig ClientFor(const net::RecycleServer& server) {
  net::ClientConfig cfg;
  cfg.port = server.port();
  return cfg;
}

/// Raw frame-level connection for tests that need to drive the protocol
/// below the blocking Client: pipelined requests, garbage bytes,
/// mid-frame disconnects.
class RawConn {
 public:
  ~RawConn() { Close(); }

  /// `rcvbuf` > 0 shrinks the receive buffer before connecting, so a large
  /// reply cannot fit in the kernel's buffers on the way.
  bool Connect(uint16_t port, int rcvbuf = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0)
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    timeval tv{10, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Handshake() {
    net::HelloPayload h;
    SendFrame(FrameKind::kHello, 1, EncodeHello(h));
    Frame f;
    return ReadFrame(&f) && f.kind == FrameKind::kWelcome;
  }

  void SendBytes(const std::string& bytes) {
    ssize_t ignored = send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    (void)ignored;
  }

  void SendFrame(FrameKind kind, uint64_t rid, std::string payload) {
    Frame f;
    f.kind = kind;
    f.request_id = rid;
    f.payload = std::move(payload);
    SendBytes(EncodeFrame(f));
  }

  void SendQuery(uint64_t rid, const std::string& sql) {
    SendBytes(QueryBytes(rid, sql));
  }

  /// Encoded QUERY frame, for pipelining several requests in one send so
  /// they reach the server in a single read (deterministic admission).
  static std::string QueryBytes(uint64_t rid, const std::string& sql) {
    Frame f;
    f.kind = FrameKind::kQuery;
    f.request_id = rid;
    net::PutString(&f.payload, sql);
    return EncodeFrame(f);
  }

  static std::string CancelBytes(uint64_t rid, uint64_t target) {
    Frame f;
    f.kind = FrameKind::kCancel;
    f.request_id = rid;
    net::PutU64(&f.payload, target);
    return EncodeFrame(f);
  }

  /// Reads the next frame; false on EOF / timeout / protocol error.
  bool ReadFrame(Frame* out) {
    while (true) {
      FrameDecoder::Outcome o = dec_.Next(out);
      if (o == FrameDecoder::Outcome::kFrame) return true;
      if (o == FrameDecoder::Outcome::kError) return false;
      char buf[16 * 1024];
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      dec_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// True when the server closed the connection (clean EOF).
  bool ReadEof() {
    char buf[4096];
    while (true) {
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  FrameDecoder dec_;
};

// ---------------------------------------------------------------------------
// Parity: the full mixed workload over loopback, byte-identical to an
// in-process service over an identical catalog.
// ---------------------------------------------------------------------------

TEST(NetServerTest, MixedWorkloadParityWithInProcess) {
  auto remote_svc = MakeService();
  net::RecycleServer server(remote_svc.get());
  ASSERT_TRUE(server.Start().ok());
  auto local_svc = MakeService();  // identical shadow database
  Session local_sess;

  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
  EXPECT_EQ(client.negotiated_version(), net::kProtocolVersion);
  EXPECT_GT(client.server_max_inflight(), 0u);

  struct Step {
    const char* sql;
    bool is_dml;
  };
  const Step kSteps[] = {
      {"select count(*) from t where a between 100 and 300", false},
      {"select a, b from t where a between 5 and 8", false},
      {"select count(*), sum(b) from t where a between 100 and 300", false},
      {"insert into t values (5000, 6000), (5001, 6001)", true},
      {"select count(*) from t where a between 4999 and 5002", false},
      {"delete from t where a between 5000 and 5001", true},
      {"select count(*) from t where a between 4999 and 5002", false},
      {"select count(*) from t where a between 100 and 300", false},
  };
  for (const Step& step : kSteps) {
    std::string remote_text, local_text;
    if (step.is_dml) {
      auto rr = client.Execute(step.sql);
      ASSERT_TRUE(rr.ok()) << step.sql << ": " << rr.status().ToString();
      remote_text = rr.value().ToString();
    } else {
      auto rr = client.Query(step.sql);
      ASSERT_TRUE(rr.ok()) << step.sql << ": " << rr.status().ToString();
      remote_text = rr.value().result.ToString();
    }
    auto lr = testutil::RunSql(local_svc.get(), &local_sess, step.sql);
    ASSERT_TRUE(lr.ok()) << step.sql << ": " << lr.status().ToString();
    local_text = lr.value().ToString();
    // Both sessions autocommit (the Session default), so DML results carry
    // the same folded-commit marker on both sides — byte-identical text.
    EXPECT_EQ(remote_text, local_text) << step.sql;
  }

  // TRACE SELECT ships the trace text alongside the (identical) result.
  auto tr = client.Query("trace select count(*) from t where a between 100"
                         " and 300");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  auto lt = testutil::RunSql(local_svc.get(), &local_sess,
                             "trace select count(*) from t where a between"
                             " 100 and 300");
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(tr.value().result.ToString(), lt.value().ToString());
  EXPECT_NE(tr.value().trace.find("statement"), std::string::npos)
      << tr.value().trace;
  EXPECT_NE(tr.value().trace.find("recycler decisions"), std::string::npos);

  // METRICS round trip, both formats, network metrics included.
  auto mj = client.Metrics(/*prometheus=*/false);
  ASSERT_TRUE(mj.ok());
  EXPECT_NE(mj.value().find("net_requests"), std::string::npos);
  auto mp = client.Metrics(/*prometheus=*/true);
  ASSERT_TRUE(mp.ok());
  EXPECT_NE(mp.value().find("recycledb_net_connections_active 1"),
            std::string::npos)
      << mp.value();

  EXPECT_TRUE(client.Ping().ok());

  // SQL errors carry code + position over the wire.
  auto bad = client.Query("select zzz from t");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("zzz"), std::string::npos);

  client.Close();
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(NetServerTest, SessionOptionsTraceAndAutocommit) {
  auto svc = MakeService();
  net::RecycleServer server(svc.get());
  ASSERT_TRUE(server.Start().ok());

  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());

  // trace on: every bare SELECT comes back with a trace.
  ASSERT_TRUE(client.SetOption("trace", true).ok());
  auto r = client.Query("select count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().trace.empty());
  ASSERT_TRUE(client.SetOption("trace", false).ok());
  r = client.Query("select count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().trace.empty());

  // autocommit off: the staged insert is visible to this connection's own
  // session (read-your-own-writes) but invisible to every other connection
  // until the explicit COMMIT publishes it.
  net::Client other;
  ASSERT_TRUE(other.Connect(ClientFor(server)).ok());
  ASSERT_TRUE(client.SetOption("autocommit", false).ok());
  ASSERT_TRUE(client.Execute("insert into t values (7777, 1)").ok());
  auto mine = client.Query("select count(*) from t where a = 7777");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine.value().result.ToString(), "count = 1\n");
  auto theirs = other.Query("select count(*) from t where a = 7777");
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(theirs.value().result.ToString(), "count = 0\n");
  ASSERT_TRUE(client.Execute("commit").ok());
  theirs = other.Query("select count(*) from t where a = 7777");
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(theirs.value().result.ToString(), "count = 1\n");
  other.Close();

  // Unknown options and bad values are errors, not closures.
  EXPECT_FALSE(client.SetOption("no_such_option", true).ok());
  EXPECT_TRUE(client.Ping().ok());

  server.Stop();
}

// MVCC over the wire: WELCOME advertises snapshot reads, and a remote
// SELECT issued while a commit holds the exclusive update lock completes
// without waiting for it (the PR 8 acceptance property, network edition).
TEST(NetServerTest, RemoteSelectCompletesDuringInflightCommit) {
  auto svc = MakeService();
  net::RecycleServer server(svc.get());
  ASSERT_TRUE(server.Start().ok());

  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
  EXPECT_TRUE(client.server_snapshot_reads())
      << "WELCOME must advertise MVCC snapshot reads";

  const char* q = "select count(*), sum(b) from t where a between 100 and 300";
  auto primed = client.Query(q);  // plan cached: the submit path is lock-free
  ASSERT_TRUE(primed.ok()) << primed.status().ToString();
  const std::string expected = primed.value().result.ToString();

  // Hold the exclusive update lock, as an in-flight commit would.
  std::promise<void> locked, release;
  std::thread holder([&] {
    Status st = svc->ApplyUpdate([&](Catalog*) {
      locked.set_value();
      release.get_future().wait();
      return Status::OK();
    });
    EXPECT_TRUE(st.ok());
  });
  locked.get_future().wait();

  // The blocking client would hang here pre-MVCC; bound the whole exchange
  // with a watchdog so a regression fails instead of wedging the suite.
  std::promise<Result<net::Client::Response>> answered;
  std::thread asker([&] { answered.set_value(client.Query(q)); });
  auto fut = answered.get_future();
  const bool done_during_commit =
      fut.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(done_during_commit)
      << "remote SELECT must not wait out an in-flight commit";
  release.set_value();
  holder.join();
  asker.join();
  auto r = fut.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result.ToString(), expected);

  client.Close();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

/// Sends three pipelined queries in one write (one read on the server,
/// handled back-to-back before any completion) and counts RESULT and BUSY
/// replies.
void PipelineThree(RawConn* conn, int* results, int* busy) {
  conn->SendBytes(RawConn::QueryBytes(10, "select count(*) from t") +
                  RawConn::QueryBytes(11, "select count(*) from t") +
                  RawConn::QueryBytes(12, "select count(*) from t"));
  *results = 0;
  *busy = 0;
  for (int i = 0; i < 3; ++i) {
    Frame f;
    ASSERT_TRUE(conn->ReadFrame(&f)) << i;
    if (f.kind == FrameKind::kResult) ++*results;
    if (f.kind == FrameKind::kBusy) ++*busy;
  }
}

TEST(NetServerTest, BusyUnderInjectedPressure) {
  auto svc = MakeService();
  auto epoch = std::make_shared<std::atomic<uint64_t>>(0);
  net::NetConfig cfg;
  cfg.max_inflight_per_conn = 4;
  cfg.max_pending_per_conn = 8;
  cfg.pressure_inflight = 1;
  cfg.pressure_window_ms = 60000;  // stays pressured for the whole test
  cfg.pressure_epoch_fn = [epoch] { return epoch->load(); };
  net::RecycleServer server(svc.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.Handshake());

  // Trip the pressure signal, then pipeline three queries: the window
  // collapses to 1 and parking is disabled, so exactly one is admitted and
  // two bounce with BUSY.
  epoch->fetch_add(1);
  int results = 0, busy = 0;
  PipelineThree(&conn, &results, &busy);
  EXPECT_EQ(results, 1);
  EXPECT_EQ(busy, 2);
  EXPECT_NE(svc->DumpMetricsPrometheus().find(
                "recycledb_net_busy_rejections 2"),
            std::string::npos);

  // The BUSY responses surface through the Client as retryable statuses.
  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
  EXPECT_TRUE(net::Client::IsBusy(Status::OutOfRange("BUSY: x")));
  EXPECT_FALSE(net::Client::IsBusy(Status::Internal("nope")));
  EXPECT_TRUE(client.Ping().ok());

  server.Stop();
}

// No injected source: the server watches the service pool's own pressure
// epoch, which a starved under-share stripe advances.
TEST(NetServerTest, BusyUnderPoolBudgetPressure) {
  ServiceConfig scfg;
  scfg.num_workers = 2;
  scfg.recycler = testutil::BoundedCfg(32 * 1024);  // base 4 KB per stripe
  auto svc = std::make_unique<QueryService>(MakeDb(), scfg);
  net::NetConfig cfg;
  cfg.max_inflight_per_conn = 4;
  cfg.max_pending_per_conn = 8;
  cfg.pressure_inflight = 1;
  cfg.pressure_window_ms = 60000;  // stays pressured for the whole test
  net::RecycleServer server(svc.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.Handshake());

  const uint64_t before = svc->recycler().pressure_epoch();
  testutil::DriveStripeSkew(&svc->recycler());
  EXPECT_GT(svc->recycler().pressure_epoch(), before)
      << "skewed admissions never starved an under-share stripe";

  int results = 0, busy = 0;
  PipelineThree(&conn, &results, &busy);
  EXPECT_EQ(results, 1);
  EXPECT_EQ(busy, 2);

  server.Stop();
}

// ---------------------------------------------------------------------------
// CANCEL.
// ---------------------------------------------------------------------------

TEST(NetServerTest, CancelPendingRequestCountsAndTraces) {
  auto svc = MakeService();
  net::NetConfig cfg;
  cfg.max_inflight_per_conn = 1;  // the second query parks in pending
  net::RecycleServer server(svc.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.Handshake());

  // One write, three frames, one server-side read: q20 is submitted
  // (window 1), q21 parks, the CANCEL then removes q21 from the pending
  // queue before it ever runs.
  conn.SendBytes(RawConn::QueryBytes(20, "select count(*) from t") +
                 RawConn::QueryBytes(21, "select sum(b) from t") +
                 RawConn::CancelBytes(22, 21));

  bool got_result = false, got_cancelled = false, got_ok = false;
  for (int i = 0; i < 3; ++i) {
    Frame f;
    ASSERT_TRUE(conn.ReadFrame(&f)) << i;
    if (f.kind == FrameKind::kResult && f.request_id == 20) got_result = true;
    if (f.kind == FrameKind::kCancelled && f.request_id == 21)
      got_cancelled = true;
    if (f.kind == FrameKind::kOk && f.request_id == 22) got_ok = true;
  }
  EXPECT_TRUE(got_result);
  EXPECT_TRUE(got_cancelled);
  EXPECT_TRUE(got_ok);

  // Cancelling an id that is not in flight is a NotFound error.
  conn.SendBytes(RawConn::CancelBytes(23, 404));
  Frame f;
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);

  // The cancel is visible in metrics and in the governance event ring.
  EXPECT_NE(
      svc->DumpMetricsPrometheus().find("recycledb_queries_cancelled 1"),
      std::string::npos);
  bool saw_cancel_event = false;
  for (const obs::Event& e : svc->events().Snapshot())
    if (e.kind == obs::EventKind::kCancel && e.a == 21) saw_cancel_event = true;
  EXPECT_TRUE(saw_cancel_event);

  server.Stop();
}

// ---------------------------------------------------------------------------
// The reply contract: a reply leaves from the thread that produced it.
// ---------------------------------------------------------------------------

/// Encoded DML frame (the executor thread answers it).
std::string DmlBytes(uint64_t rid, const std::string& sql) {
  Frame f;
  f.kind = FrameKind::kDml;
  f.request_id = rid;
  net::PutString(&f.payload, sql);
  return EncodeFrame(f);
}

/// The status code an ERROR frame carries.
StatusCode ErrorCode(const Frame& f) {
  auto err = net::DecodeError(f.payload);
  return err.ok() ? err.value().code : StatusCode::kInternal;
}

TEST(NetServerTest, CancelAfterReplyIsNotFoundAndBeforeReplySuppresses) {
  auto svc = MakeService();
  net::RecycleServer server(svc.get());
  ASSERT_TRUE(server.Start().ok());
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.Handshake());

  // The reply already left: the id is answered, so CANCEL is NotFound.
  conn.SendQuery(40, "select count(*) from t");
  Frame f;
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kResult);
  EXPECT_EQ(f.request_id, 40u);
  conn.SendBytes(RawConn::CancelBytes(41, 40));
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_EQ(f.request_id, 41u);
  EXPECT_EQ(ErrorCode(f), StatusCode::kNotFound);

  // The request is still running: an autocommit INSERT waits on the
  // exclusive update lock this test holds, so the CANCEL finds it in
  // flight. Its replier then sends CANCELLED, never RESULT.
  std::promise<void> locked, release;
  std::thread holder([&] {
    Status st = svc->ApplyUpdate([&](Catalog*) {
      locked.set_value();
      release.get_future().wait();
      return Status::OK();
    });
    EXPECT_TRUE(st.ok());
  });
  locked.get_future().wait();
  conn.SendBytes(DmlBytes(42, "insert into t values (9000, 1)") +
                 RawConn::CancelBytes(43, 42));
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kOk);
  EXPECT_EQ(f.request_id, 43u);
  release.set_value();
  holder.join();
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kCancelled);
  EXPECT_EQ(f.request_id, 42u);
  // Nothing else was sent for it: the next frame answers the next PING.
  conn.SendFrame(FrameKind::kPing, 44, "");
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kPong);
  EXPECT_EQ(f.request_id, 44u);
  // Answered with CANCELLED, the id is no longer in flight either.
  conn.SendBytes(RawConn::CancelBytes(45, 42));
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_EQ(ErrorCode(f), StatusCode::kNotFound);
  server.Stop();
}

// Under pool pressure the window is 1 and nothing parks, so a closed-loop
// client's next request is admitted only if its previous reply released
// the slot before the bytes reached the client.
TEST(NetServerTest, ClosedLoopUnderPressureNeverSeesBusy) {
  auto svc = MakeService();
  auto epoch = std::make_shared<std::atomic<uint64_t>>(0);
  net::NetConfig cfg;
  cfg.pressure_inflight = 1;
  cfg.pressure_window_ms = 60000;  // stays pressured for the whole test
  cfg.pressure_epoch_fn = [epoch] { return epoch->load(); };
  net::RecycleServer server(svc.get(), cfg);
  ASSERT_TRUE(server.Start().ok());
  epoch->fetch_add(1);

  constexpr int kClients = 4;
  constexpr int kRequests = 800;
  std::atomic<int> busy{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::Client client;
      if (!client.Connect(ClientFor(server)).ok()) {
        failed.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        auto r = client.Query(
            "select count(*) from t where a between 0 and " +
            std::to_string(100 * c + i % 7));
        if (!r.ok()) {
          (net::Client::IsBusy(r.status()) ? busy : failed).fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(busy.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(svc->metrics().AddCounter("net_busy_rejections")->value(), 0u);
  server.Stop();
}

/// 2^20 rows: `select a, b from t` encodes about 8 MB, more than any
/// loopback socket buffers on the way to a client with a small window.
constexpr int kBigRows = 1 << 20;
const char* const kBigQuery = "select a, b from t";

/// Waits until some reply was left for the I/O thread to flush.
bool AwaitDeferredReply(QueryService* svc) {
  obs::Counter* deferred = svc->metrics().AddCounter("net_replies_deferred");
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (deferred->value() == 0) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(NetServerTest, PeerClosingMidReplyLeavesServerServing) {
  ServiceConfig scfg;
  scfg.num_workers = 2;
  QueryService svc(MakeDb(11, kBigRows), scfg);
  net::RecycleServer server(&svc);
  ASSERT_TRUE(server.Start().ok());
  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port(), /*rcvbuf=*/4096));
    ASSERT_TRUE(conn.Handshake());
    conn.SendQuery(1, kBigQuery);
    ASSERT_TRUE(AwaitDeferredReply(&svc));
  }  // closes with most of the reply unread

  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
  EXPECT_TRUE(client.Ping().ok());
  auto r = client.Query("select count(*) from t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result.ToString(),
            "count = " + std::to_string(kBigRows) + "\n");
  client.Close();
  server.Stop();
  EXPECT_EQ(server.connection_count(), 0u);
}

TEST(NetServerTest, SlowReaderGetsEveryFrameIntactAndInOrder) {
  // One worker answers the pipelined queries in order; the client reads
  // nothing until the first reply overflowed the socket, so the later
  // replies queue behind its unsent bytes.
  ServiceConfig scfg;
  scfg.num_workers = 1;
  QueryService svc(MakeDb(11, kBigRows), scfg);
  net::RecycleServer server(&svc);
  ASSERT_TRUE(server.Start().ok());
  QueryService local(MakeDb(11, kBigRows), scfg);
  Session sess;

  const std::vector<std::string> sqls = {
      kBigQuery, "select count(*) from t where a between 5 and 9",
      "select b, a from t"};
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port(), /*rcvbuf=*/4096));
  ASSERT_TRUE(conn.Handshake());
  std::string batch;
  for (size_t i = 0; i < sqls.size(); ++i)
    batch += RawConn::QueryBytes(i + 1, sqls[i]);
  conn.SendBytes(batch);
  ASSERT_TRUE(AwaitDeferredReply(&svc));

  for (size_t i = 0; i < sqls.size(); ++i) {
    Frame f;
    ASSERT_TRUE(conn.ReadFrame(&f)) << i;
    ASSERT_EQ(f.kind, FrameKind::kResult) << i;
    EXPECT_EQ(f.request_id, i + 1);
    net::Cursor c{&f.payload};
    std::string got;
    ASSERT_TRUE(net::GetString(&c, &got).ok()) << i;
    auto want = testutil::RunSql(&local, &sess, sqls[i]);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(got == net::EncodeResultSet(want.value())) << sqls[i];
  }
  server.Stop();
}

// Observability: the replying thread records the request latency, and an
// exact repeat of a SELECT text binds without parsing.
TEST(NetServerTest, RemoteSelectRecordsLatencyAndRepeatIsATextHit) {
  auto svc = MakeService();
  obs::LatencyHistogram* request_us =
      svc->metrics().AddHistogram("net_request_us");
  const char* q = "select count(*) from t where a between 10 and 20";
  uint64_t samples = request_us->snapshot().count;
  for (uint64_t want_text_hits : {0u, 1u}) {
    net::RecycleServer server(svc.get());
    ASSERT_TRUE(server.Start().ok());
    net::Client client;
    ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
    ASSERT_TRUE(client.Query(q).ok());
    client.Close();
    server.Stop();  // drains: the reply's sample is in
    EXPECT_EQ(request_us->snapshot().count, samples + 1);
    samples = request_us->snapshot().count;
    EXPECT_EQ(svc->SnapshotStats().plan_text_hits, want_text_hits);
  }
  EXPECT_NE(svc->DumpMetricsPrometheus().find(
                "recycledb_plan_cache_text_hits 1"),
            std::string::npos);
  EXPECT_NE(svc->DumpMetricsJson().find("net_replies_deferred"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Protocol robustness at the socket level.
// ---------------------------------------------------------------------------

TEST(NetServerTest, GarbageBytesGetErrorThenClose) {
  auto svc = MakeService();
  net::RecycleServer server(svc.get());
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  conn.SendBytes("GET / HTTP/1.1\r\nHost: localhost\r\n\r\n");
  Frame f;
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_TRUE(conn.ReadEof());

  // A non-HELLO first frame is rejected the same way.
  RawConn conn2;
  ASSERT_TRUE(conn2.Connect(server.port()));
  conn2.SendQuery(1, "select 1");
  ASSERT_TRUE(conn2.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_TRUE(conn2.ReadEof());

  // A mid-frame disconnect (header promises more than was sent) must not
  // wedge the server: it keeps serving other connections.
  {
    RawConn conn3;
    ASSERT_TRUE(conn3.Connect(server.port()));
    ASSERT_TRUE(conn3.Handshake());
    Frame partial;
    partial.kind = FrameKind::kQuery;
    net::PutString(&partial.payload, "select count(*) from t");
    std::string bytes = EncodeFrame(partial);
    conn3.SendBytes(bytes.substr(0, bytes.size() - 5));
  }  // destructor closes mid-frame

  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_NE(svc->DumpMetricsPrometheus().find("net_protocol_errors 2"),
            std::string::npos);

  server.Stop();
}

TEST(NetServerTest, ResultAfterMalformedFrameFlushesThenCloses) {
  auto svc = MakeService();
  net::RecycleServer server(svc.get());
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.Handshake());

  // One write: a valid query followed by garbage bytes. The server submits
  // the query, then hits the protocol error and flags the connection to
  // close once everything in flight has flushed. The completion must still
  // deliver the RESULT and only then close — this sequence used to free
  // the connection from inside the completion's flush and keep using it.
  // A full header's worth of zero bytes: the decoder sees the bad magic
  // as soon as 16 bytes are buffered.
  conn.SendBytes(RawConn::QueryBytes(30, "select count(*) from t") +
                 std::string(net::kHeaderBytes, '\0'));

  bool got_error = false, got_result = false;
  Frame f;
  while (conn.ReadFrame(&f)) {
    if (f.kind == FrameKind::kError && f.request_id == 0) got_error = true;
    if (f.kind == FrameKind::kResult && f.request_id == 30) got_result = true;
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(got_result);
  EXPECT_TRUE(conn.ReadEof());

  // The server survives and keeps serving.
  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST(NetServerTest, ConnectionCapAnswersBusyThenCloses) {
  auto svc = MakeService();
  net::NetConfig cfg;
  cfg.max_connections = 1;
  net::RecycleServer server(svc.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  net::Client first;
  ASSERT_TRUE(first.Connect(ClientFor(server)).ok());

  // The over-cap connection gets one pre-handshake BUSY (request_id 0)
  // and a close; the admitted connection is unaffected.
  RawConn over;
  ASSERT_TRUE(over.Connect(server.port()));
  Frame f;
  ASSERT_TRUE(over.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kBusy);
  EXPECT_EQ(f.request_id, 0u);
  EXPECT_TRUE(over.ReadEof());
  EXPECT_TRUE(first.Ping().ok());
  server.Stop();
}

TEST(NetServerTest, ClientSurfacesPreHandshakeBusy) {
  // A minimal fake server: accept, drain the client's HELLO, answer the
  // pre-handshake BUSY the way the connection-cap rejection does, close.
  // (The real server races its close against the client's HELLO write, so
  // driving Client::Connect against it would be nondeterministic.)
  // Connect must report a retryable IsBusy() status, not a generic
  // connection failure.
  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread fake([lfd] {
    int fd = accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    char buf[256];
    ssize_t ignored = recv(fd, buf, sizeof(buf), 0);
    (void)ignored;
    Frame busy;
    busy.kind = FrameKind::kBusy;
    net::PutString(&busy.payload, "connection limit reached");
    std::string bytes = EncodeFrame(busy);
    ignored = send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    (void)ignored;
    close(fd);
  });

  net::Client client;
  net::ClientConfig cfg;
  cfg.port = port;
  cfg.connect_retries = 0;
  Status st = client.Connect(cfg);
  fake.join();
  close(lfd);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(net::Client::IsBusy(st)) << st.ToString();
}

TEST(NetServerTest, OversizedFrameIsRejected) {
  auto svc = MakeService();
  net::NetConfig cfg;
  cfg.max_frame_bytes = 1024;
  net::RecycleServer server(svc.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.Handshake());
  conn.SendQuery(5, std::string(4096, 'x'));
  Frame f;
  ASSERT_TRUE(conn.ReadFrame(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_TRUE(conn.ReadEof());

  server.Stop();
}

// ---------------------------------------------------------------------------
// Graceful shutdown.
// ---------------------------------------------------------------------------

TEST(NetServerTest, StopDrainsInFlightAndRejectsNew) {
  auto svc = MakeService();
  net::RecycleServer server(svc.get());
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  net::Client client;
  ASSERT_TRUE(client.Connect(ClientFor(server)).ok());
  ASSERT_TRUE(client.Query("select count(*) from t").ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.connection_count(), 0u);

  // The port no longer accepts (no lingering listener).
  net::Client late;
  net::ClientConfig ccfg;
  ccfg.port = port;
  ccfg.connect_retries = 0;
  ccfg.connect_timeout_ms = 500;
  EXPECT_FALSE(late.Connect(ccfg).ok());

  // Stop() is idempotent.
  server.Stop();
}

TEST(NetServerTest, StartStopChurnWithActiveClients) {
  // Start/stop churn with live traffic each round: catches join races,
  // use-after-free of completion state, and metric double-registration
  // (the registry must hand back the same instruments every round).
  auto svc = MakeService();
  for (int round = 0; round < 8; ++round) {
    net::RecycleServer server(svc.get());
    ASSERT_TRUE(server.Start().ok()) << round;
    net::Client a, b;
    ASSERT_TRUE(a.Connect(ClientFor(server)).ok()) << round;
    ASSERT_TRUE(b.Connect(ClientFor(server)).ok()) << round;
    ASSERT_TRUE(a.Query("select count(*) from t where a between 0 and 500")
                    .ok())
        << round;
    ASSERT_TRUE(b.Query("select sum(b) from t where a between 0 and 500")
                    .ok())
        << round;
    EXPECT_TRUE(a.Ping().ok());
    server.Stop();
    EXPECT_FALSE(server.running());
  }
  // Eight servers, two connections each, one shared registry: the gauge
  // ends at zero and the open/close counters balance.
  std::string prom = svc->DumpMetricsPrometheus();
  EXPECT_NE(prom.find("recycledb_net_connections_active 0"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("recycledb_net_connections_opened 16"),
            std::string::npos)
      << prom;
}

TEST(NetServerTest, ConcurrentClientsShareThePool) {
  // N threads hammer one server with an identical parameterised workload:
  // every client must see correct results, and once each distinct text has
  // run once, the shared recycler must answer the other connections' repeats
  // from the pool (the paper's multi-user scenario).
  auto svc = MakeService(4);
  net::RecycleServer server(svc.get());
  ASSERT_TRUE(server.Start().ok());

  auto sql_for = [](int band) {
    int lo = band * 100;
    return "select count(*), sum(b) from t where a between " +
           std::to_string(lo) + " and " + std::to_string(lo + 99);
  };
  constexpr int kBands = 5;
  {
    net::Client warm;
    ASSERT_TRUE(warm.Connect(ClientFor(server)).ok());
    for (int band = 0; band < kBands; ++band)
      ASSERT_TRUE(warm.Query(sql_for(band)).ok()) << band;
  }
  svc->recycler().ResetStats();

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      net::Client client;
      if (!client.Connect(ClientFor(server)).ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(static_cast<uint64_t>(tid) + 1);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto r = client.Query(
            sql_for(static_cast<int>(rng.UniformRange(0, kBands - 1))));
        if (!r.ok() || r.value().result.values.size() != 2)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  RecyclerStats rs = svc->recycler().stats();
  EXPECT_GT(rs.hits, 0u);
  EXPECT_EQ(rs.hits, rs.monitored);
  server.Stop();
}

}  // namespace
}  // namespace recycledb
