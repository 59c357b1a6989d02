#ifndef RECYCLEDB_NET_SERVER_H_
#define RECYCLEDB_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "server/query_service.h"

namespace recycledb::net {

/// Network front-end configuration.
struct NetConfig {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  int max_connections = 64;
  /// Per-connection admission window: how many requests may be submitted
  /// into the QueryService at once. Advertised in WELCOME.
  uint32_t max_inflight_per_conn = 8;
  /// Requests parked per connection beyond the window before BUSY.
  uint32_t max_pending_per_conn = 32;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Admission control under pool budget pressure: while the recycle
  /// pool's pressure epoch (ConcurrentRecycler::pressure_epoch, raised when
  /// a stripe under its base share is starved of budget) advanced within
  /// the last `pressure_window_ms`, the submit window shrinks to
  /// `pressure_inflight` and pending parking is disabled — overload turns
  /// into prompt BUSY responses instead of a growing queue. A bounded pool
  /// that is full and evicting raises the epoch about once per query, so
  /// the window then stays at `pressure_inflight` nearly all the time.
  uint32_t pressure_inflight = 1;
  double pressure_window_ms = 250;
  /// Test seam: overrides the pool pressure-epoch source.
  std::function<uint64_t()> pressure_epoch_fn;
};

/// The wire front end of a QueryService: one listener plus one poll-driven
/// I/O loop multiplexes every connection onto the service's worker pool —
/// no thread per connection.
///
/// ## Threading model
///
///  - The I/O thread owns every socket's read side and all per-connection
///    admission state: non-blocking accept/read, frame decode, admission
///    control, routing, and every close decision happen there.
///  - SELECT-path requests go through QueryService::SubmitAsync as Requests
///    under the connection's Session (MVCC snapshot reads by default).
///  - DML requests run on ONE dedicated executor thread (they block on the
///    exclusive update lock, which must never stall the I/O loop); the
///    session's autocommit is applied by QueryService::Submit itself,
///    atomically with the statement.
///  - A reply leaves from the thread that produced it: the worker for a
///    SELECT, the executor for DML. A connection's send side (SendSide) is
///    shared under one mutex; the replier releases the request's window
///    slot, then appends its frame and sends what the socket takes. It then
///    posts a completion and wakes the I/O loop through a self-pipe; the
///    I/O thread does the bookkeeping, flushes leftover bytes on POLLOUT,
///    and closes connections.
///  - Stop() closes the listener, fails requests still parked in pending
///    queues, then drains: every submitted request's completion is awaited
///    and its connection flushed before the I/O thread exits. The wait is
///    purely event-driven (completions wake the loop); no sleeps.
///
/// The server registers its metrics (connection gauge/counters, decode /
/// queue / request latency histograms, queries_cancelled) into the
/// service's MetricsRegistry, so `.metrics` and the Prometheus export cover
/// the network layer. The QueryService must outlive the server.
class RecycleServer {
 public:
  explicit RecycleServer(QueryService* svc, NetConfig cfg = {});
  ~RecycleServer();

  RecycleServer(const RecycleServer&) = delete;
  RecycleServer& operator=(const RecycleServer&) = delete;

  /// Binds, listens, and starts the I/O + DML threads. Fails cleanly on
  /// bind errors (port in use, bad host).
  Status Start();

  /// Graceful shutdown: stops accepting, fails parked requests, drains
  /// in-flight ones (responses are flushed), joins both threads.
  /// Deterministic and idempotent.
  void Stop();

  /// The bound TCP port (after a successful Start).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Live connection count (also exported as net_connections_active).
  size_t connection_count() const {
    return conn_gauge_value_.load(std::memory_order_relaxed);
  }

 private:
  /// What a send left behind: everything gone, a remainder for the I/O
  /// thread's POLLOUT flush, or a dead socket.
  enum class SendOutcome : uint8_t { kSent, kDeferred, kFailed };

  struct ReqState {
    bool cancelled = false;
    double recv_ms = 0;
  };
  /// A connection's send side, shared by the I/O thread and the threads
  /// that reply (workers, the DML executor); every field is guarded by
  /// `mu`. Shared ownership keeps it valid for a reply that finishes after
  /// its connection closed.
  struct SendSide {
    std::mutex mu;
    int fd = -1;
    std::string wbuf;  ///< encoded-but-unsent bytes
    size_t woff = 0;   ///< sent prefix of wbuf
    /// Set when CloseConn closes fd (under `mu`): nothing writes after it.
    bool dead = false;
    uint32_t inflight = 0;  ///< submitted, window slot not yet released
    /// Submitted ids not yet answered; the replier erases its id.
    std::unordered_map<uint64_t, ReqState> submitted;
  };
  struct PendingReq {
    uint64_t rid = 0;
    bool is_dml = false;
    std::string sql;
    double recv_ms = 0;
  };
  struct Conn {
    uint64_t id = 0;
    int fd = -1;  ///< read side; SendSide::fd is the same descriptor
    FrameDecoder decoder;
    std::shared_ptr<SendSide> out = std::make_shared<SendSide>();
    bool hello_done = false;
    /// The QueryService session every request on this connection executes
    /// under: owns autocommit (SET_OPTION), trace-all, and snapshot pinning.
    /// Shared so an in-flight DML job keeps it alive past CloseConn.
    std::shared_ptr<Session> session = std::make_shared<Session>();
    bool stop_reading = false;
    bool close_after_flush = false;
    /// Window slots in use as admission sees them: SendSide::inflight as
    /// of the last RefreshWindow, plus submissions since. Frames of one
    /// read are admitted against one view, so a pipelined burst never
    /// races the replies of its own first requests.
    uint32_t inflight = 0;
    std::deque<PendingReq> pending;  ///< admitted, awaiting a window slot

    explicit Conn(size_t max_frame) : decoder(max_frame) {}
  };
  /// A reply that left (or failed to), reported to the I/O thread for its
  /// bookkeeping.
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t rid = 0;
    SendOutcome outcome = SendOutcome::kSent;
  };
  struct DmlJob {
    uint64_t conn_id = 0;
    uint64_t rid = 0;
    std::string sql;
    /// Keeps the connection's session (and its autocommit flag) alive even
    /// if the connection closes while the job waits for the update lock.
    std::shared_ptr<Session> session;
    std::shared_ptr<SendSide> out;  ///< the executor replies through it
  };

  void IoLoop();
  void DmlLoop();

  void AcceptNew();
  void ReadConn(Conn* conn);
  void HandleFrame(Conn* conn, Frame frame);
  void HandleRequest(Conn* conn, uint64_t rid, bool is_dml, std::string sql);
  void HandleCancel(Conn* conn, const Frame& frame);
  /// Reloads Conn::inflight from the send side, where replies free slots.
  void RefreshWindow(Conn* conn);
  void SubmitWhileOpen(Conn* conn);
  void Submit(Conn* conn, PendingReq req);
  void ProcessCompletions();
  void CompleteOne(const Completion& c);
  void SendFrame(Conn* conn, FrameKind kind, uint64_t rid,
                 std::string payload, uint8_t flags = 0);
  void SendError(Conn* conn, uint64_t rid, const Status& st);
  void FlushConn(Conn* conn);
  /// I/O thread: closes after a send failure, or once a close-after-flush
  /// connection has nothing in flight, pending or unsent.
  void AfterSend(Conn* conn, SendOutcome outcome);
  /// Nothing in flight and nothing unsent.
  bool Idle(Conn* conn);
  void CloseConn(uint64_t conn_id);
  void BeginDrain();
  bool DrainComplete() const;
  void SetConnGauge(size_t n);

  /// Any thread: answers request `rid` with its RESULT or ERROR frame
  /// (CANCELLED if the id was cancelled), releasing its window slot before
  /// the bytes leave, then posts the completion.
  void Reply(SendSide* out, uint64_t conn_id, uint64_t rid,
             const Result<QueryResult>& r);
  /// Appends `bytes` and sends what the socket takes. Requires out->mu.
  SendOutcome SendLocked(SendSide* out, const std::string& bytes);
  /// Sends the unsent tail of out->wbuf. Requires out->mu.
  SendOutcome FlushLocked(SendSide* out);
  /// Writes until done or EAGAIN; `*sent` counts the bytes taken. False on
  /// a dead peer.
  bool WriteSome(int fd, const char* data, size_t len, size_t* sent);

  /// Posts a reply's completion and wakes the I/O loop. Safe from any
  /// thread; the wake write happens under the completion mutex so the I/O
  /// loop cannot observe the completion before the poster is done touching
  /// server state (shutdown safety).
  void PostCompletion(uint64_t conn_id, uint64_t rid, SendOutcome outcome);
  void WakeLocked();

  /// True while the pool reported budget pressure within the last
  /// pressure_window_ms (see NetConfig). I/O-thread only.
  bool PressureActive();
  uint32_t EffectiveWindow();
  size_t EffectivePendingCap();

  QueryService* svc_;
  NetConfig cfg_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool stopped_ = false;  ///< Stop() ran to completion (caller thread)

  // I/O-thread-owned state.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  /// Conns closed mid-iteration; destruction is deferred to the top of the
  /// next IoLoop round so no stack frame can dangle (see CloseConn).
  std::vector<std::unique_ptr<Conn>> graveyard_;
  uint64_t next_conn_id_ = 1;
  bool draining_ = false;
  uint64_t last_pressure_epoch_ = 0;
  double pressure_until_ms_ = 0;

  /// Submitted-but-unanswered requests across all connections (including
  /// ones whose connection died); drain waits for it to reach zero.
  std::atomic<size_t> total_inflight_{0};

  mutable std::mutex comp_mu_;
  std::vector<Completion> completions_;
  /// The I/O thread's batch: swapped with completions_ each round and
  /// cleared without releasing capacity.
  std::vector<Completion> comp_batch_;

  std::mutex dml_mu_;
  std::condition_variable dml_cv_;
  std::deque<DmlJob> dml_queue_;
  bool dml_stop_ = false;

  std::atomic<size_t> conn_gauge_value_{0};

  // Registry-owned metrics (registered into the service's registry).
  obs::Gauge* g_connections_ = nullptr;
  obs::Counter* c_conn_opened_ = nullptr;
  obs::Counter* c_conn_closed_ = nullptr;
  obs::Counter* c_requests_ = nullptr;
  obs::Counter* c_busy_ = nullptr;
  obs::Counter* c_proto_errors_ = nullptr;
  obs::Counter* c_cancelled_ = nullptr;
  obs::Counter* c_bytes_read_ = nullptr;
  obs::Counter* c_bytes_written_ = nullptr;
  obs::Counter* c_replies_deferred_ = nullptr;
  obs::LatencyHistogram* h_decode_us_ = nullptr;
  obs::LatencyHistogram* h_queue_us_ = nullptr;
  obs::LatencyHistogram* h_request_us_ = nullptr;

  std::thread io_thread_;
  std::thread dml_thread_;
};

}  // namespace recycledb::net

#endif  // RECYCLEDB_NET_SERVER_H_
