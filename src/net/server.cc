#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/str.h"
#include "util/timer.h"

namespace recycledb::net {

namespace {

uint64_t MsToUs(double ms) {
  return ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e3);
}

/// First keyword of a statement, lower-cased: routes QUERY text to the
/// worker pool and DML text to the executor thread even when a client uses
/// the "wrong" frame kind (the server never trusts the kind for routing —
/// DML on the I/O loop would stall every connection behind the exclusive
/// update lock).
std::string FirstWordLower(const std::string& sql) {
  size_t i = 0;
  while (i < sql.size() && std::isspace(static_cast<unsigned char>(sql[i])))
    ++i;
  std::string word;
  while (i < sql.size() &&
         std::isalpha(static_cast<unsigned char>(sql[i]))) {
    word.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(sql[i]))));
    ++i;
  }
  return word;
}

bool IsSelectText(const std::string& sql) {
  const std::string w = FirstWordLower(sql);
  return w == "select" || w == "trace";
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

RecycleServer::RecycleServer(QueryService* svc, NetConfig cfg)
    : svc_(svc), cfg_(std::move(cfg)) {
  if (cfg_.max_inflight_per_conn == 0) cfg_.max_inflight_per_conn = 1;
  // Registration is idempotent, so a server restarted over the same
  // service resumes its metrics rather than duplicating them.
  obs::MetricsRegistry& reg = svc_->metrics();
  g_connections_ = reg.AddGauge("net_connections_active");
  c_conn_opened_ = reg.AddCounter("net_connections_opened");
  c_conn_closed_ = reg.AddCounter("net_connections_closed");
  c_requests_ = reg.AddCounter("net_requests");
  c_busy_ = reg.AddCounter("net_busy_rejections");
  c_proto_errors_ = reg.AddCounter("net_protocol_errors");
  c_cancelled_ = reg.AddCounter("queries_cancelled");
  c_bytes_read_ = reg.AddCounter("net_bytes_read");
  c_bytes_written_ = reg.AddCounter("net_bytes_written");
  c_replies_deferred_ = reg.AddCounter("net_replies_deferred");
  h_decode_us_ = reg.AddHistogram("net_decode_us");
  h_queue_us_ = reg.AddHistogram("net_queue_us");
  h_request_us_ = reg.AddHistogram("net_request_us");
}

RecycleServer::~RecycleServer() {
  Stop();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_rd_ >= 0) close(wake_rd_);
  if (wake_wr_ >= 0) close(wake_wr_);
}

Status RecycleServer::Start() {
  if (started_.exchange(true))
    return Status::Internal("server already started");

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1)
    return Status::InvalidArgument("bad listen host '" + cfg_.host + "'");
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return Status::Internal(StrFormat("bind %s:%u: %s", cfg_.host.c_str(),
                                      cfg_.port, std::strerror(errno)));
  if (listen(listen_fd_, 64) != 0)
    return Status::Internal(StrFormat("listen: %s", std::strerror(errno)));

  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  int pipefd[2];
  if (pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0)
    return Status::Internal(StrFormat("pipe2: %s", std::strerror(errno)));
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  last_pressure_epoch_ = cfg_.pressure_epoch_fn
                             ? cfg_.pressure_epoch_fn()
                             : svc_->recycler().pressure_epoch();
  pressure_until_ms_ = 0;

  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  dml_thread_ = std::thread([this] { DmlLoop(); });
  return Status::OK();
}

void RecycleServer::Stop() {
  if (!started_.load(std::memory_order_acquire) || stopped_) return;
  stop_requested_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    WakeLocked();
  }
  if (io_thread_.joinable()) io_thread_.join();
  // The I/O loop only exits once total_inflight_ hit zero, so the DML
  // queue is empty here and the executor joins immediately.
  {
    std::lock_guard<std::mutex> lock(dml_mu_);
    dml_stop_ = true;
  }
  dml_cv_.notify_all();
  if (dml_thread_.joinable()) dml_thread_.join();
  SetConnGauge(0);
  running_.store(false, std::memory_order_release);
  stopped_ = true;
}

void RecycleServer::SetConnGauge(size_t n) {
  conn_gauge_value_.store(n, std::memory_order_relaxed);
  g_connections_->Set(n);
}

void RecycleServer::WakeLocked() {
  char b = 1;
  // EAGAIN means a wake byte is already pending — the loop will run.
  ssize_t ignored = write(wake_wr_, &b, 1);
  (void)ignored;
}

void RecycleServer::PostCompletion(uint64_t conn_id, uint64_t rid,
                                   SendOutcome outcome) {
  // The wake write happens while the mutex is held: the I/O loop drains
  // completions under the same mutex, so by the time it can observe this
  // completion, this thread is done touching the server. That makes
  // Stop()'s "drain then join" safe against a poster mid-call.
  std::lock_guard<std::mutex> lock(comp_mu_);
  completions_.push_back(Completion{conn_id, rid, outcome});
  WakeLocked();
}

bool RecycleServer::PressureActive() {
  const uint64_t epoch = cfg_.pressure_epoch_fn
                             ? cfg_.pressure_epoch_fn()
                             : svc_->recycler().pressure_epoch();
  const double now = NowMillis();
  if (epoch != last_pressure_epoch_) {
    last_pressure_epoch_ = epoch;
    pressure_until_ms_ = now + cfg_.pressure_window_ms;
  }
  return now < pressure_until_ms_;
}

uint32_t RecycleServer::EffectiveWindow() {
  return PressureActive() ? cfg_.pressure_inflight
                          : cfg_.max_inflight_per_conn;
}

size_t RecycleServer::EffectivePendingCap() {
  return PressureActive() ? 0 : cfg_.max_pending_per_conn;
}

// --- I/O loop ----------------------------------------------------------------

void RecycleServer::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  ///< conn id per pollfd (0 = not a conn)

  while (true) {
    // Reap conns closed during the previous round: only now is it certain
    // that no stack frame still holds a pointer into them.
    graveyard_.clear();
    if (stop_requested_.load(std::memory_order_acquire) && !draining_)
      BeginDrain();
    if (draining_) {
      // Connections with nothing left to say can go now; the rest flush.
      std::vector<uint64_t> done;
      for (auto& [id, conn] : conns_)
        if (Idle(conn.get())) done.push_back(id);
      for (uint64_t id : done) CloseConn(id);
      if (DrainComplete()) break;
    }

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    pfd_conn.push_back(0);
    if (!draining_ && listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn->stop_reading) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->out->mu);
        if (conn->out->woff < conn->out->wbuf.size()) events |= POLLOUT;
      }
      if (events == 0) events = POLLIN;  // at least detect disconnects
      pfds.push_back({conn->fd, events, 0});
      pfd_conn.push_back(id);
    }

    int rc = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure
    }

    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    ProcessCompletions();

    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfds[i].fd == listen_fd_ && pfd_conn[i] == 0) {
        AcceptNew();
        continue;
      }
      auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Mid-frame or mid-response disconnect: drop the connection; any
        // in-flight completions for it are discarded on arrival.
        CloseConn(conn->id);
        continue;
      }
      if (pfds[i].revents & POLLOUT) FlushConn(conn);
      if ((pfds[i].revents & POLLIN) && conns_.count(pfd_conn[i]))
        ReadConn(conn);
    }
  }

  // Exit: close whatever is left (normally nothing unless poll failed).
  std::vector<uint64_t> left;
  for (auto& [id, conn] : conns_) left.push_back(id);
  for (uint64_t id : left) CloseConn(id);
  graveyard_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void RecycleServer::BeginDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  const Status shutdown = Status::Internal("server shutting down");
  // SendError can close the conn it writes to (send failure), which erases
  // from conns_ — iterate over an id snapshot, never the live map.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    conn->stop_reading = true;
    for (PendingReq& req : conn->pending) SendError(conn, req.rid, shutdown);
    conn->pending.clear();
    conn->close_after_flush = true;
  }
}

bool RecycleServer::DrainComplete() const {
  if (total_inflight_.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    if (!completions_.empty()) return false;
  }
  return conns_.empty();
}

void RecycleServer::AcceptNew() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: try next poll round
    if (conns_.size() >= static_cast<size_t>(cfg_.max_connections)) {
      // Over the connection cap: one best-effort BUSY frame, then close.
      Frame f;
      f.kind = FrameKind::kBusy;
      std::string payload;
      PutString(&payload, "connection limit reached");
      f.payload = std::move(payload);
      std::string bytes = EncodeFrame(f);
      ssize_t ignored = send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      (void)ignored;
      // Drain whatever the client already pipelined (typically its HELLO):
      // closing with unread data pending makes the kernel RST, which can
      // discard the BUSY frame out of the peer's receive queue.
      char drain[1024];
      while (recv(fd, drain, sizeof(drain), 0) > 0) {
      }
      close(fd);
      c_busy_->Add(1);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetNonBlocking(fd);
    auto conn = std::make_unique<Conn>(cfg_.max_frame_bytes);
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->out->fd = fd;
    conns_.emplace(conn->id, std::move(conn));
    c_conn_opened_->Add(1);
    SetConnGauge(conns_.size());
  }
}

void RecycleServer::ReadConn(Conn* conn) {
  char buf[64 * 1024];
  while (true) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c_bytes_read_->Add(static_cast<uint64_t>(n));
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // EOF: peer closed (possibly mid-frame)
      CloseConn(conn->id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn->id);
    return;
  }

  // Every frame of this read is admitted against the window as it stands
  // now: the replies that freed a slot before these bytes arrived count,
  // replies racing the decode below do not.
  RefreshWindow(conn);
  const uint64_t conn_id = conn->id;
  while (conns_.count(conn_id) && !conn->stop_reading) {
    Frame frame;
    StopWatch sw;
    FrameDecoder::Outcome out = conn->decoder.Next(&frame);
    if (out == FrameDecoder::Outcome::kNeedMore) break;
    if (out == FrameDecoder::Outcome::kError) {
      // Framing is lost: report once, then close. Never crash, never hang.
      c_proto_errors_->Add(1);
      SendError(conn, 0,
                Status::InvalidArgument("protocol error: " +
                                        conn->decoder.error()));
      conn->stop_reading = true;
      conn->close_after_flush = true;
      break;
    }
    h_decode_us_->Record(MsToUs(sw.ElapsedMillis()));
    HandleFrame(conn, std::move(frame));
  }
  // HandleFrame may have closed the connection; flush only if it lives.
  auto it = conns_.find(conn_id);
  if (it != conns_.end()) FlushConn(it->second.get());
}

void RecycleServer::HandleFrame(Conn* conn, Frame frame) {
  if (!conn->hello_done) {
    if (frame.kind != FrameKind::kHello) {
      c_proto_errors_->Add(1);
      SendError(conn, frame.request_id,
                Status::InvalidArgument("expected HELLO as first frame"));
      conn->stop_reading = true;
      conn->close_after_flush = true;
      return;
    }
    auto hello = DecodeHello(frame.payload);
    if (!hello.ok() || hello.value().min_version > kProtocolVersion) {
      c_proto_errors_->Add(1);
      SendError(conn, frame.request_id,
                !hello.ok() ? hello.status()
                            : Status::InvalidArgument(StrFormat(
                                  "no common protocol version (server "
                                  "speaks <= %u)",
                                  kProtocolVersion)));
      conn->stop_reading = true;
      conn->close_after_flush = true;
      return;
    }
    conn->hello_done = true;
    WelcomePayload w;
    w.version = kProtocolVersion < hello.value().max_version
                    ? kProtocolVersion
                    : hello.value().max_version;
    w.max_inflight = cfg_.max_inflight_per_conn;
    // Advertise MVCC snapshot reads so clients know SELECTs never serialise
    // against (or observe) concurrent commits. Every query runs on a
    // snapshot, so the bit is always set.
    SendFrame(conn, FrameKind::kWelcome, frame.request_id, EncodeWelcome(w),
              kWelcomeFlagSnapshotReads);
    return;
  }

  switch (frame.kind) {
    case FrameKind::kPing:
      SendFrame(conn, FrameKind::kPong, frame.request_id, "");
      return;
    case FrameKind::kMetrics: {
      Cursor c{&frame.payload};
      uint8_t format = 0;
      if (!GetU8(&c, &format).ok() || format > 1) {
        SendError(conn, frame.request_id,
                  Status::InvalidArgument("METRICS format must be 0 (JSON) "
                                          "or 1 (Prometheus)"));
        return;
      }
      std::string text = format == 0 ? svc_->DumpMetricsJson()
                                     : svc_->DumpMetricsPrometheus();
      std::string payload;
      PutString(&payload, text);
      SendFrame(conn, FrameKind::kMetricsResult, frame.request_id,
                std::move(payload));
      return;
    }
    case FrameKind::kSetOption: {
      Cursor c{&frame.payload};
      std::string name, value;
      if (!GetString(&c, &name).ok() || !GetString(&c, &value).ok() ||
          (value != "on" && value != "off")) {
        SendError(conn, frame.request_id,
                  Status::InvalidArgument(
                      "SET_OPTION expects name + \"on\"/\"off\""));
        return;
      }
      if (name == "autocommit") {
        conn->session->set_autocommit(value == "on");
      } else if (name == "trace") {
        conn->session->set_trace_all(value == "on");
      } else {
        SendError(conn, frame.request_id,
                  Status::InvalidArgument("unknown option '" + name + "'"));
        return;
      }
      SendFrame(conn, FrameKind::kOk, frame.request_id, "");
      return;
    }
    case FrameKind::kCancel:
      HandleCancel(conn, frame);
      return;
    case FrameKind::kQuery:
    case FrameKind::kDml: {
      Cursor c{&frame.payload};
      std::string sql;
      if (!GetString(&c, &sql).ok()) {
        SendError(conn, frame.request_id,
                  Status::InvalidArgument("malformed SQL payload"));
        return;
      }
      // Classify before the move: argument evaluation order is
      // unspecified, so IsSelectText must not race the std::move.
      const bool is_dml = !IsSelectText(sql);
      HandleRequest(conn, frame.request_id, is_dml, std::move(sql));
      return;
    }
    default:
      c_proto_errors_->Add(1);
      SendError(conn, frame.request_id,
                Status::InvalidArgument(
                    StrFormat("unexpected %s frame from a client",
                              FrameKindName(frame.kind))));
      return;
  }
}

void RecycleServer::HandleRequest(Conn* conn, uint64_t rid, bool is_dml,
                                  std::string sql) {
  c_requests_->Add(1);
  // Parked requests keep their turn: a slot freed since they parked goes
  // to them first.
  SubmitWhileOpen(conn);
  bool in_flight = false;
  {
    std::lock_guard<std::mutex> lock(conn->out->mu);
    in_flight = conn->out->submitted.count(rid) != 0;
  }
  if (in_flight) {
    SendError(conn, rid,
              Status::InvalidArgument("request_id already in flight"));
    return;
  }
  PendingReq req;
  req.rid = rid;
  req.is_dml = is_dml;
  req.sql = std::move(sql);
  req.recv_ms = NowMillis();
  if (conn->inflight < EffectiveWindow()) {
    Submit(conn, std::move(req));
  } else if (conn->pending.size() < EffectivePendingCap()) {
    conn->pending.push_back(std::move(req));
  } else {
    // Bounded queues + BUSY is the backpressure contract: under budget
    // pressure (or a flooding client) the server sheds load promptly
    // instead of queueing without bound.
    c_busy_->Add(1);
    std::string payload;
    PutString(&payload, "server busy, retry later");
    SendFrame(conn, FrameKind::kBusy, rid, std::move(payload));
  }
}

void RecycleServer::HandleCancel(Conn* conn, const Frame& frame) {
  Cursor c{&frame.payload};
  uint64_t target = 0;
  if (!GetU64(&c, &target).ok()) {
    SendError(conn, frame.request_id,
              Status::InvalidArgument("CANCEL expects a u64 request id"));
    return;
  }
  // Still parked in the pending queue: true cancel, it never runs.
  for (auto it = conn->pending.begin(); it != conn->pending.end(); ++it) {
    if (it->rid != target) continue;
    conn->pending.erase(it);
    c_cancelled_->Add(1);
    svc_->events().Record(obs::EventKind::kCancel,
                          static_cast<uint32_t>(conn->id), target,
                          /*b=*/0);
    SendFrame(conn, FrameKind::kCancelled, target, "");
    SendFrame(conn, FrameKind::kOk, frame.request_id, "");
    return;
  }
  // Already submitted and not yet answered: the query runs to completion
  // (workers are not interruptible mid-instruction), but its replier finds
  // the flag under the send lock and sends CANCELLED instead of RESULT.
  bool marked = false;
  {
    std::lock_guard<std::mutex> lock(conn->out->mu);
    auto it = conn->out->submitted.find(target);
    if (it != conn->out->submitted.end() && !it->second.cancelled) {
      it->second.cancelled = true;
      marked = true;
    }
  }
  if (marked) {
    c_cancelled_->Add(1);
    svc_->events().Record(obs::EventKind::kCancel,
                          static_cast<uint32_t>(conn->id), target,
                          /*b=*/1);
    SendFrame(conn, FrameKind::kOk, frame.request_id, "");
    return;
  }
  SendError(conn, frame.request_id,
            Status::NotFound(StrFormat("request %llu is not in flight",
                                       static_cast<unsigned long long>(
                                           target))));
}

void RecycleServer::RefreshWindow(Conn* conn) {
  std::lock_guard<std::mutex> lock(conn->out->mu);
  conn->inflight = conn->out->inflight;
}

void RecycleServer::SubmitWhileOpen(Conn* conn) {
  if (conn->pending.empty()) return;
  const uint32_t window = EffectiveWindow();
  while (!conn->pending.empty() && conn->inflight < window) {
    PendingReq req = std::move(conn->pending.front());
    conn->pending.pop_front();
    Submit(conn, std::move(req));
  }
}

void RecycleServer::Submit(Conn* conn, PendingReq req) {
  const double now = NowMillis();
  h_queue_us_->Record(MsToUs(now - req.recv_ms));
  {
    std::lock_guard<std::mutex> lock(conn->out->mu);
    conn->out->inflight += 1;
    conn->out->submitted.emplace(req.rid, ReqState{false, req.recv_ms});
  }
  conn->inflight += 1;
  total_inflight_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t cid = conn->id;
  const uint64_t rid = req.rid;
  if (req.is_dml) {
    {
      std::lock_guard<std::mutex> lock(dml_mu_);
      dml_queue_.push_back(
          DmlJob{cid, rid, std::move(req.sql), conn->session, conn->out});
    }
    dml_cv_.notify_one();
    return;
  }
  // The connection's session carries trace-all/autocommit, so no SQL-text
  // rewriting is needed; the service applies them per submission.
  Request qreq;
  qreq.sql = std::move(req.sql);
  qreq.session = conn->session.get();
  // The callback owns a session reference: the Session must outlive the
  // run even if the connection dies while the query executes. It owns the
  // send side for the same reason, and replies from the worker.
  svc_->SubmitAsync(std::move(qreq),
                    [this, cid, rid, out = conn->out,
                     sess = conn->session](Result<QueryResult> r) {
                      Reply(out.get(), cid, rid, r);
                    });
}

void RecycleServer::Reply(SendSide* out, uint64_t conn_id, uint64_t rid,
                          const Result<QueryResult>& r) {
  // Encode outside the send lock: only the append and send serialise.
  Frame f;
  f.request_id = rid;
  if (r.ok()) {
    f.kind = FrameKind::kResult;
    PutString(&f.payload, EncodeResultSet(r.value()));
    if (r.value().trace != nullptr) {
      f.flags |= kFlagHasTrace;
      PutString(&f.payload, r.value().trace->ToString());
    }
  } else {
    f.kind = FrameKind::kError;
    f.payload = EncodeError(r.status());
  }
  std::string bytes = EncodeFrame(f);
  double recv_ms = 0;
  SendOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(out->mu);
    // The slot is free before the bytes leave: a closed-loop client's next
    // request can then never find the window still full.
    if (out->inflight > 0) out->inflight -= 1;
    auto it = out->submitted.find(rid);
    if (it != out->submitted.end()) {
      recv_ms = it->second.recv_ms;
      if (it->second.cancelled) {
        Frame cancelled;
        cancelled.kind = FrameKind::kCancelled;
        cancelled.request_id = rid;
        bytes = EncodeFrame(cancelled);
      }
      out->submitted.erase(it);  // answered: a CANCEL now gets NotFound
    }
    outcome = SendLocked(out, bytes);
  }
  if (outcome == SendOutcome::kDeferred) c_replies_deferred_->Add(1);
  if (recv_ms > 0) h_request_us_->Record(MsToUs(NowMillis() - recv_ms));
  PostCompletion(conn_id, rid, outcome);
}

RecycleServer::SendOutcome RecycleServer::SendLocked(
    SendSide* out, const std::string& bytes) {
  if (out->dead) return SendOutcome::kFailed;
  if (out->woff < out->wbuf.size()) {  // earlier bytes go first
    out->wbuf += bytes;
    return FlushLocked(out);
  }
  // Nothing queued: send straight from the frame, and keep only what the
  // socket did not take.
  size_t sent = 0;
  if (!WriteSome(out->fd, bytes.data(), bytes.size(), &sent))
    return SendOutcome::kFailed;
  if (sent == bytes.size()) return SendOutcome::kSent;
  out->wbuf.assign(bytes, sent, std::string::npos);
  out->woff = 0;
  return SendOutcome::kDeferred;
}

RecycleServer::SendOutcome RecycleServer::FlushLocked(SendSide* out) {
  if (out->dead) return SendOutcome::kFailed;
  size_t sent = 0;
  const bool ok = WriteSome(out->fd, out->wbuf.data() + out->woff,
                            out->wbuf.size() - out->woff, &sent);
  out->woff += sent;
  if (!ok) return SendOutcome::kFailed;
  if (out->woff < out->wbuf.size()) return SendOutcome::kDeferred;
  out->wbuf.clear();
  out->woff = 0;
  return SendOutcome::kSent;
}

bool RecycleServer::WriteSome(int fd, const char* data, size_t len,
                              size_t* sent) {
  while (*sent < len) {
    ssize_t n = send(fd, data + *sent, len - *sent, MSG_NOSIGNAL);
    if (n > 0) {
      c_bytes_written_->Add(static_cast<uint64_t>(n));
      *sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // send failure: peer is gone
  }
  return true;
}

void RecycleServer::ProcessCompletions() {
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    comp_batch_.swap(completions_);
  }
  for (const Completion& c : comp_batch_) CompleteOne(c);
  comp_batch_.clear();
}

void RecycleServer::CompleteOne(const Completion& c) {
  total_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  auto it = conns_.find(c.conn_id);
  if (it == conns_.end()) return;  // connection died while it ran
  Conn* conn = it->second.get();
  if (c.outcome == SendOutcome::kFailed) {
    CloseConn(conn->id);
    return;
  }
  RefreshWindow(conn);
  if (!draining_) SubmitWhileOpen(conn);
  // This reply may have been all a close-after-flush connection awaited.
  AfterSend(conn, SendOutcome::kSent);
}

void RecycleServer::SendFrame(Conn* conn, FrameKind kind, uint64_t rid,
                              std::string payload, uint8_t flags) {
  Frame f;
  f.kind = kind;
  f.flags = flags;
  f.request_id = rid;
  f.payload = std::move(payload);
  const std::string bytes = EncodeFrame(f);
  SendOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(conn->out->mu);
    outcome = SendLocked(conn->out.get(), bytes);
  }
  AfterSend(conn, outcome);
}

void RecycleServer::SendError(Conn* conn, uint64_t rid, const Status& st) {
  SendFrame(conn, FrameKind::kError, rid, EncodeError(st));
}

void RecycleServer::FlushConn(Conn* conn) {
  SendOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(conn->out->mu);
    outcome = FlushLocked(conn->out.get());
  }
  AfterSend(conn, outcome);
}

void RecycleServer::AfterSend(Conn* conn, SendOutcome outcome) {
  if (outcome == SendOutcome::kFailed ||
      (outcome == SendOutcome::kSent && conn->close_after_flush &&
       conn->pending.empty() && Idle(conn)))
    CloseConn(conn->id);
}

bool RecycleServer::Idle(Conn* conn) {
  SendSide& out = *conn->out;
  std::lock_guard<std::mutex> lock(out.mu);
  return out.inflight == 0 && out.woff == out.wbuf.size();
}

void RecycleServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  {
    // Under the send lock, so no replier is between its dead check and
    // its send: nothing ever writes to a closed (or reused) descriptor.
    std::lock_guard<std::mutex> lock(conn->out->mu);
    conn->out->dead = true;
    close(conn->out->fd);
    conn->out->fd = -1;
  }
  conn->fd = -1;
  // In-flight requests of this connection keep total_inflight_ raised
  // until their completions arrive (and are then discarded), so drain
  // still waits for them. The object itself outlives this call in the
  // graveyard: callers up the stack (SendFrame → AfterSend → here) may
  // still hold the pointer, and every write path no-ops on a dead send
  // side.
  graveyard_.push_back(std::move(it->second));
  conns_.erase(it);
  c_conn_closed_->Add(1);
  SetConnGauge(conns_.size());
}

// --- DML executor ------------------------------------------------------------

void RecycleServer::DmlLoop() {
  while (true) {
    DmlJob job;
    {
      std::unique_lock<std::mutex> lock(dml_mu_);
      dml_cv_.wait(lock, [this] { return dml_stop_ || !dml_queue_.empty(); });
      if (dml_queue_.empty()) {
        if (dml_stop_) return;
        continue;
      }
      job = std::move(dml_queue_.front());
      dml_queue_.pop_front();
    }
    // Submit under the connection's session: the service folds the
    // session's autocommit into the statement's exclusive update hold, so
    // the INSERT/DELETE and its commit are atomic w.r.t. other sessions
    // (the pre-PR8 two-statement sequence could interleave).
    Request dreq;
    dreq.sql = std::move(job.sql);
    dreq.session = job.session.get();
    QueryHandle h = svc_->Submit(std::move(dreq));
    Reply(job.out.get(), job.conn_id, job.rid, h.future.get());
  }
}

}  // namespace recycledb::net
