#include "traced.h"

#include <cstdio>

#include "net/protocol.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "util/timer.h"

namespace perfbench {

using recycledb::NowNanos;
using recycledb::QueryResult;
using recycledb::Result;
using recycledb::Status;

const char* SpanNameText(uint32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "request",      "sql.parse",  "server.plan_probe", "sql.compile",
      "sql.bind",     "catalog.snapshot", "server.queue", "interp.run",
      "core.session", "core.probe", "core.admit",        "net.encode",
      "net.decode",   "catalog.release"};
  return name < kNumSpanNames ? kNames[name] : "?";
}

uint32_t SpanLog::Open(uint32_t name, uint32_t parent, uint64_t request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNanos();
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::Close(uint32_t idx) { spans_[idx].end_ns = NowNanos(); }

void WorkerSlots::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return free_ > 0; });
  --free_;
}

void WorkerSlots::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++free_;
  }
  cv_.notify_one();
}

void TimingHook::Attach(SpanLog* log, uint32_t parent, uint64_t request) {
  log_ = log;
  parent_ = parent;
  request_ = request;
}

void TimingHook::BeginQuery(const recycledb::Program& prog) {
  const uint32_t s = log_->Open(kSpanCoreSession, parent_, request_);
  inner_->BeginQuery(prog);
  log_->Close(s);
}

void TimingHook::EndQuery() {
  const uint32_t s = log_->Open(kSpanCoreSession, parent_, request_);
  inner_->EndQuery();
  log_->Close(s);
}

bool TimingHook::OnEntry(const InstrView& instr,
                         std::vector<recycledb::MalValue>* results) {
  const uint32_t s = log_->Open(kSpanCoreProbe, parent_, request_);
  const bool hit = inner_->OnEntry(instr, results);
  log_->Close(s);
  return hit;
}

void TimingHook::OnExit(const InstrView& instr,
                        const std::vector<recycledb::MalValue>& results,
                        double cpu_ms,
                        const std::vector<recycledb::ColumnId>& deps) {
  const uint32_t s = log_->Open(kSpanCoreAdmit, parent_, request_);
  inner_->OnExit(instr, results, cpu_ms, deps);
  log_->Close(s);
}

TracedPath::TracedPath(TracedShared* shared)
    : shared_(shared),
      session_(shared->svc->recycler().NewSession()),
      hook_(session_.get()),
      interp_(shared->svc->catalog(), &hook_) {}

Result<QueryResult> TracedPath::Execute(const std::string& sql,
                                        uint64_t request) {
  recycledb::Catalog* cat = shared_->svc->catalog();
  const uint32_t root = log_.Open(kSpanRequest, kNoParent, request);
  // Every early return closes the root: a failed request still has a span.
  struct CloseRoot {
    SpanLog* log;
    uint32_t idx;
    ~CloseRoot() { log->Close(idx); }
  } close_root{&log_, root};

  uint32_t s = log_.Open(kSpanParse, root, request);
  auto parsed = recycledb::sql::ParseStatement(sql);
  std::string fp;
  if (parsed.ok() &&
      parsed.value().kind == recycledb::sql::Statement::Kind::kSelect)
    fp = recycledb::sql::Fingerprint(parsed.value().select);
  log_.Close(s);
  if (!parsed.ok()) return parsed.status();
  if (fp.empty()) return Status::InvalidArgument("not a SELECT: " + sql);
  const recycledb::sql::SelectStmt& stmt = parsed.value().select;

  s = log_.Open(kSpanPlanProbe, root, request);
  recycledb::PlanCache::EntryPtr entry = shared_->plans.Lookup(fp);
  log_.Close(s);

  std::vector<recycledb::Scalar> params;
  if (entry == nullptr) {
    s = log_.Open(kSpanCompile, root, request);
    Result<recycledb::sql::CompiledPlan> plan =
        Status::Internal("not compiled");
    {
      std::unique_lock<std::shared_mutex> gate(shared_->compile_gate);
      plan = recycledb::sql::CompileStmt(cat, stmt, &params);
    }
    log_.Close(s);
    if (!plan.ok()) return plan.status();
    recycledb::PlanCache::Entry e;
    e.prog = std::make_shared<const recycledb::Program>(
        std::move(plan.value().prog));
    e.param_types = std::move(plan.value().param_types);
    e.table_ids = std::move(plan.value().table_ids);
    s = log_.Open(kSpanPlanProbe, root, request);
    entry = shared_->plans.Insert(fp, std::move(e));
    log_.Close(s);
  } else {
    s = log_.Open(kSpanBind, root, request);
    auto bound = recycledb::sql::BindLiterals(stmt, entry->param_types);
    log_.Close(s);
    if (!bound.ok()) return bound.status();
    params = std::move(bound).value();
  }

  s = log_.Open(kSpanSnapshot, root, request);
  recycledb::CatalogSnapshotPtr snap = cat->Snapshot();
  log_.Close(s);

  s = log_.Open(kSpanQueue, root, request);
  shared_->slots->Acquire();
  log_.Close(s);

  s = log_.Open(kSpanRun, root, request);
  hook_.Attach(&log_, s, request);
  interp_.set_snapshot(snap.get());
  session_->set_epoch(snap->epoch());
  Result<QueryResult> r = interp_.Run(*entry->prog, params);
  interp_.set_snapshot(nullptr);
  session_->set_epoch(recycledb::kEpochLatest);
  log_.Close(s);
  // Handing the slot on wakes a waiting thread, which may take this CPU.
  s = log_.Open(kSpanQueue, root, request);
  shared_->slots->Release();
  log_.Close(s);
  if (!r.ok()) return r.status();

  s = log_.Open(kSpanEncode, root, request);
  std::string payload = recycledb::net::EncodeResultSet(r.value());
  log_.Close(s);
  result_bytes_ += payload.size();

  s = log_.Open(kSpanDecode, root, request);
  Result<QueryResult> decoded = recycledb::net::DecodeResultSet(payload);
  log_.Close(s);

  // The last reference to a superseded snapshot frees its versions here,
  // as the service's worker does when it drops a finished task.
  s = log_.Open(kSpanRelease, root, request);
  snap.reset();
  r = Status::Internal("released");  // frees the engine's result
  log_.Close(s);
  return decoded;
}

TraceSummary Summarize(const std::vector<const SpanLog*>& logs) {
  TraceSummary t;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != kNoParent)
        child_us[s.parent] += (s.end_ns - s.start_ns) / 1e3;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double us = (s.end_ns - s.start_ns) / 1e3;
      t.total_us[s.name] += us;
      t.count[s.name] += 1;
      if (s.name == kSpanRun) t.run_self_us += us - child_us[i];
      if (s.name == kSpanRequest) {
        t.request_self_us += us - child_us[i];
        t.requests += 1;
      }
    }
  }
  return t;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, size_t max_requests) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,request,span,name,parent,start_ns,end_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    size_t roots = 0;
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.name == kSpanRequest && ++roots > max_requests) break;
      std::fprintf(f, "%zu,%llu,%zu,%s,%lld,%lld,%lld\n", t,
                   static_cast<unsigned long long>(s.request), i,
                   SpanNameText(s.name),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
