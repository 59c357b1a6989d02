#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/concurrent_recycler.h"
#include "interp/interpreter.h"
#include "server/plan_cache.h"
#include "server/query_service.h"

namespace perfbench {

/// Span names of the traced request path, one per layer boundary.
enum SpanName : uint32_t {
  kSpanRequest,     ///< whole request (root)
  kSpanParse,       ///< sql::ParseStatement + sql::Fingerprint
  kSpanPlanProbe,   ///< PlanCache::Lookup
  kSpanCompile,     ///< sql::CompileStmt (plan-cache miss)
  kSpanBind,        ///< sql::BindLiterals (plan-cache hit)
  kSpanSnapshot,    ///< Catalog::Snapshot
  kSpanQueue,       ///< wait for, and hand on, one of the worker slots
  kSpanRun,         ///< Interpreter::Run
  kSpanCoreSession, ///< RecyclerHook::BeginQuery / EndQuery
  kSpanCoreProbe,   ///< RecyclerHook::OnEntry
  kSpanCoreAdmit,   ///< RecyclerHook::OnExit
  kSpanEncode,      ///< net::EncodeResultSet
  kSpanDecode,      ///< net::DecodeResultSet
  kSpanRelease,     ///< dropping the snapshot and the engine's result
  kNumSpanNames,
};

const char* SpanNameText(uint32_t name);

constexpr uint32_t kNoParent = ~uint32_t{0};

/// One timed call: name, start, end, parent span and request id.
struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoParent;  ///< index into the same log
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans, kept in memory until the run ends.
class SpanLog {
 public:
  uint32_t Open(uint32_t name, uint32_t parent, uint64_t request);
  void Close(uint32_t idx);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Counting semaphore standing in for the service's worker pool: at most
/// `slots` requests execute at once, as with QueryService's workers.
class WorkerSlots {
 public:
  explicit WorkerSlots(int slots) : free_(slots) {}
  void Acquire();
  void Release();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int free_;
};

/// RecyclerHook decorator that records a span around every call and
/// delegates to a ConcurrentRecycler::Session of the service's recycler.
class TimingHook : public recycledb::RecyclerHook {
 public:
  explicit TimingHook(recycledb::ConcurrentRecycler::Session* inner)
      : inner_(inner) {}

  /// Spans of the next calls go to `log` under `parent`.
  void Attach(SpanLog* log, uint32_t parent, uint64_t request);

  void BeginQuery(const recycledb::Program& prog) override;
  void EndQuery() override;
  bool OnEntry(const InstrView& instr,
               std::vector<recycledb::MalValue>* results) override;
  void OnExit(const InstrView& instr,
              const std::vector<recycledb::MalValue>& results, double cpu_ms,
              const std::vector<recycledb::ColumnId>& deps) override;

 private:
  recycledb::ConcurrentRecycler::Session* inner_;
  SpanLog* log_ = nullptr;
  uint32_t parent_ = kNoParent;
  uint64_t request_ = 0;
};

/// State shared by every thread of the traced replay.
struct TracedShared {
  recycledb::QueryService* svc = nullptr;
  /// The replay's own plan cache: it starts empty, so the first statement
  /// of each pattern takes the compile path, as the service did in set-up.
  recycledb::PlanCache plans;
  std::unique_ptr<WorkerSlots> slots;
  /// Held exclusively around CompileStmt and shared by the writer around
  /// each of its statements: compilation must not overlap a commit.
  std::shared_mutex compile_gate;
};

/// The service's SELECT path rebuilt from public calls only, one span per
/// call. One per thread.
class TracedPath {
 public:
  explicit TracedPath(TracedShared* shared);

  /// Runs one SELECT; the returned result has crossed the wire codec.
  recycledb::Result<recycledb::QueryResult> Execute(const std::string& sql,
                                                    uint64_t request);

  const SpanLog& log() const { return log_; }
  uint64_t result_bytes() const { return result_bytes_; }

 private:
  TracedShared* shared_;
  std::unique_ptr<recycledb::ConcurrentRecycler::Session> session_;
  TimingHook hook_;
  recycledb::Interpreter interp_;
  SpanLog log_;
  uint64_t result_bytes_ = 0;
};

/// Totals of the traced spans, by span name.
struct TraceSummary {
  uint64_t requests = 0;
  double total_us[kNumSpanNames] = {};  ///< Σ span durations by name
  uint64_t count[kNumSpanNames] = {};   ///< spans by name
  double run_self_us = 0;      ///< Σ Interpreter::Run minus hook children
  double request_self_us = 0;  ///< Σ request minus its direct children
};

TraceSummary Summarize(const std::vector<const SpanLog*>& logs);

/// Writes the spans of the first `max_requests` requests of every log as
/// CSV (request,span,name,parent,start_ns,end_ns).
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, size_t max_requests);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
