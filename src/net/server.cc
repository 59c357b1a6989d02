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
                                   Result<QueryResult> r) {
  // The wake write happens while the mutex is held: the I/O loop drains
  // completions under the same mutex, so by the time it can observe this
  // completion, this thread is done touching the server. That makes
  // Stop()'s "drain then join" safe against a poster mid-call.
  std::lock_guard<std::mutex> lock(comp_mu_);
  completions_.push_back(Completion{conn_id, rid, std::move(r)});
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
        if (conn->inflight == 0 && conn->woff == conn->wbuf.size())
          done.push_back(id);
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
      if (conn->woff < conn->wbuf.size()) events |= POLLOUT;
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
    std::lock_guard<std::mutex> lock(
        const_cast<std::mutex&>(comp_mu_));
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
  if (conn->submitted.count(rid) != 0) {
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
  // Already submitted: the query runs to completion (workers are not
  // interruptible mid-instruction), but its result is suppressed and the
  // client gets CANCELLED instead.
  auto it = conn->submitted.find(target);
  if (it != conn->submitted.end() && !it->second.cancelled) {
    it->second.cancelled = true;
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

void RecycleServer::SubmitWhileOpen(Conn* conn) {
  while (conn->inflight < EffectiveWindow() && !conn->pending.empty()) {
    PendingReq req = std::move(conn->pending.front());
    conn->pending.pop_front();
    Submit(conn, std::move(req));
  }
}

void RecycleServer::Submit(Conn* conn, PendingReq req) {
  const double now = NowMillis();
  h_queue_us_->Record(MsToUs(now - req.recv_ms));
  conn->inflight += 1;
  conn->submitted.emplace(req.rid, ReqState{false, req.recv_ms});
  total_inflight_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t cid = conn->id;
  const uint64_t rid = req.rid;
  if (req.is_dml) {
    {
      std::lock_guard<std::mutex> lock(dml_mu_);
      dml_queue_.push_back(
          DmlJob{cid, rid, std::move(req.sql), conn->session});
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
  // run even if the connection dies while the query executes.
  auto sess = conn->session;
  svc_->SubmitAsync(std::move(qreq),
                    [this, cid, rid, sess](Result<QueryResult> r) {
                      PostCompletion(cid, rid, std::move(r));
                    });
}

void RecycleServer::ProcessCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) CompleteOne(std::move(c));
}

void RecycleServer::CompleteOne(Completion c) {
  total_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  auto it = conns_.find(c.conn_id);
  if (it == conns_.end()) return;  // connection died while it ran
  Conn* conn = it->second.get();
  auto rit = conn->submitted.find(c.rid);
  const bool cancelled = rit != conn->submitted.end() &&
                         rit->second.cancelled;
  const double recv_ms = rit != conn->submitted.end() ? rit->second.recv_ms
                                                      : 0;
  if (rit != conn->submitted.end()) conn->submitted.erase(rit);
  if (conn->inflight > 0) conn->inflight -= 1;

  if (cancelled) {
    SendFrame(conn, FrameKind::kCancelled, c.rid, "");
  } else if (c.result.ok()) {
    const QueryResult& r = c.result.value();
    std::string payload;
    PutString(&payload, EncodeResultSet(r));
    uint8_t flags = 0;
    if (r.trace != nullptr) {
      flags |= kFlagHasTrace;
      PutString(&payload, r.trace->ToString());
    }
    SendFrame(conn, FrameKind::kResult, c.rid, std::move(payload), flags);
  } else {
    SendFrame(conn, FrameKind::kError, c.rid, EncodeError(c.result.status()));
  }
  if (recv_ms > 0) h_request_us_->Record(MsToUs(NowMillis() - recv_ms));
  // The flush above may have closed the conn (send failure, or
  // close_after_flush with nothing left in flight) — don't submit for it.
  if (!draining_ && !conn->dead) SubmitWhileOpen(conn);
}

void RecycleServer::SendFrame(Conn* conn, FrameKind kind, uint64_t rid,
                              std::string payload, uint8_t flags) {
  if (conn->dead) return;
  Frame f;
  f.kind = kind;
  f.flags = flags;
  f.request_id = rid;
  f.payload = std::move(payload);
  conn->wbuf += EncodeFrame(f);
  // Try to push bytes out immediately; POLLOUT picks up any remainder.
  FlushConn(conn);
}

void RecycleServer::SendError(Conn* conn, uint64_t rid, const Status& st) {
  SendFrame(conn, FrameKind::kError, rid, EncodeError(st));
}

void RecycleServer::FlushConn(Conn* conn) {
  if (conn->dead) return;
  while (conn->woff < conn->wbuf.size()) {
    ssize_t n = send(conn->fd, conn->wbuf.data() + conn->woff,
                     conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      c_bytes_written_->Add(static_cast<uint64_t>(n));
      conn->woff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn->id);  // send failure: peer is gone
    return;
  }
  conn->wbuf.clear();
  conn->woff = 0;
  if (conn->close_after_flush && conn->inflight == 0 &&
      conn->pending.empty())
    CloseConn(conn->id);
}

void RecycleServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  conn->dead = true;
  close(conn->fd);
  conn->fd = -1;
  // In-flight requests of this connection keep total_inflight_ raised
  // until their completions arrive (and are then discarded), so drain
  // still waits for them. The object itself outlives this call in the
  // graveyard: callers up the stack (SendFrame → FlushConn → here) may
  // still hold the pointer, and every write path no-ops on `dead`.
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
    PostCompletion(job.conn_id, job.rid, h.future.get());
  }
}

}  // namespace recycledb::net
