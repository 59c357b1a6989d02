// Wire-level benchmark of the recycling query service.
//
//   rdb_perfbench --workload <tpch_reuse|tpch_adhoc|tpch_rw> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Hosts a QueryService and a net::RecycleServer in this process over one
// TPC-H database, drives it from net::Client connections over loopback, and
// checks the answers against recycler-free reference runs. With --trace 0
// it prints the end-to-end metrics; with --trace 1 it runs the same window
// for the service's counters and then replays the statement stream through
// a request path assembled from public calls, one span per layer call, and
// prints the per-layer metrics. The last stdout line is the JSON result.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "answers.h"
#include "net/client.h"
#include "net/server.h"
#include "server/query_service.h"
#include "tpch/tpch.h"
#include "traced.h"
#include "util/timer.h"
#include "verdict.h"
#include "workload.h"

namespace perfbench {
namespace {

using recycledb::Catalog;
using recycledb::NowMillis;
using recycledb::QueryResult;
using recycledb::QueryService;
using recycledb::RecyclerStats;
using recycledb::Result;
using recycledb::Rng;
using recycledb::ServiceStats;
using recycledb::Status;
using recycledb::StopWatch;
namespace net = recycledb::net;

constexpr double kMiB = 1024.0 * 1024.0;
/// Writer ticks run this long before the timed window opens.
constexpr double kWriterLeadInMs = 250;
/// Readers run untimed for this long before the timed window opens, so the
/// window starts with warm threads, caches and allocator.
constexpr double kPreRollMs = 1000;
/// A second of the window in which the host stole more than this share of
/// the VM's CPU time measures the host, not the program. The window runs
/// until it has `--seconds` seconds under this share, for at most
/// kMaxStretch times as long, and the end-to-end statistics count those
/// seconds. When they do not turn up in time the run is not reported. The
/// traced replay, which reports no end-to-end numbers, runs `--seconds`.
constexpr double kMaxStealShare = 0.02;
constexpr size_t kMaxStretch = 4;
/// tpch_adhoc's warm-up ends once the pool holds this share of its budget,
/// has evicted this many times its entry count, and every pattern has a
/// cached plan.
constexpr double kAdhocFillShare = 0.75;
constexpr uint64_t kAdhocTurnovers = 2;
constexpr double kWarmupTimeoutMs = 60000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::atof(v);
    } else if (k == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (k == "--trace-dir") {
      o->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double mb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::atof(line + 6) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Host CPU time stolen from this VM (the `steal` column of /proc/stat), in
/// clock ticks summed over all CPUs.
uint64_t StealTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

void SleepUntilMs(double t_ms) {
  const double now = NowMillis();
  if (t_ms > now)
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>((t_ms - now) * 1e3)));
}

Status ConnectClient(net::Client* c, uint16_t port) {
  net::ClientConfig cfg;
  cfg.port = port;
  return c->Connect(cfg);
}

/// One set-up instance: database, service, server.
struct Env {
  std::unique_ptr<Catalog> cat;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<net::RecycleServer> server;
  uint64_t writer_base = 0;  ///< first key the writer inserts

  ~Env() {
    if (server != nullptr) server->Stop();
  }
};

/// Runs every population statement once through the server.
Status WarmPopulation(const Env& env, const std::vector<std::string>& pop) {
  net::Client c;
  Status st = ConnectClient(&c, env.server->port());
  if (!st.ok()) return st;
  for (const std::string& sql : pop) {
    auto r = c.Query(sql);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

/// Closed-loop fresh-literal traffic until the pool is at its budget and
/// has turned over.
Status WarmAdhoc(const Env& env, const WorkloadSpec& w, uint64_t seed) {
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < w.reader_conns; ++t) {
    threads.emplace_back([&, t] {
      net::Client c;
      if (!ConnectClient(&c, env.server->port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      Rng rng(seed * 7919 + 1000 + t);
      while (!stop.load()) {
        auto r = c.Query(FreshStatement(
            static_cast<int>(rng.Uniform(kNumPatterns)), rng));
        if (!r.ok()) errors.fetch_add(1);
      }
    });
  }
  const double budget = static_cast<double>(w.pool_budget_bytes);
  const double deadline = NowMillis() + kWarmupTimeoutMs;
  bool filled = false;
  while (!filled && errors.load() == 0 && NowMillis() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto& rc = env.svc->recycler();
    filled = rc.pool_bytes() >= kAdhocFillShare * budget &&
             rc.stats().evicted >= kAdhocTurnovers * rc.pool_entries() &&
             env.svc->SnapshotStats().plan_compiles >= kNumPatterns;
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  if (errors.load() != 0) return Status::Internal("warm-up query failed");
  if (!filled) return Status::Internal("pool never reached its budget");
  return Status::OK();
}

/// Catalog load + service and server start + warm-up to steady state.
Result<std::unique_ptr<Env>> SetUp(const WorkloadSpec& w,
                                   const std::vector<std::string>& pop,
                                   uint64_t seed) {
  auto env = std::make_unique<Env>();
  env->cat = std::make_unique<Catalog>();
  recycledb::tpch::TpchConfig tcfg;
  tcfg.scale_factor = w.scale_factor;
  tcfg.seed = 42;
  Status st = recycledb::tpch::LoadTpch(env->cat.get(), tcfg);
  if (!st.ok()) return st;
  const recycledb::Table* t = env->cat->FindTable(
      w.writer == WriterKind::kOrders ? "orders" : "region");
  env->writer_base = t->num_rows() + 1000;

  recycledb::ServiceConfig scfg;
  scfg.num_workers = w.workers;
  scfg.recycler.max_bytes = w.pool_budget_bytes;
  env->svc = std::make_unique<QueryService>(env->cat.get(), scfg);
  env->server = std::make_unique<net::RecycleServer>(env->svc.get());
  st = env->server->Start();
  if (!st.ok()) return st;

  st = pop.empty() ? WarmAdhoc(*env, w, seed) : WarmPopulation(*env, pop);
  if (!st.ok()) return st;
  return env;
}

/// The open-loop writer connection: one statement per period, each timed
/// from its due time to its return.
class Writer {
 public:
  struct Op {
    double due_ms;
    double latency_ms;
    bool ok;
    char kind;  ///< first letter of the statement
  };

  Writer(const WorkloadSpec& w, uint64_t base, uint64_t seed,
         std::shared_mutex* gate)
      : w_(w), base_(base), rng_(seed * 104729 + 5), gate_(gate) {}
  ~Writer() { Stop(); }

  Status Start(uint16_t port) {
    Status st = ConnectClient(&client_, port);
    if (!st.ok()) return st;
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Ops due in [from_ms, to_ms).
  std::vector<Op> OpsBetween(double from_ms, double to_ms) const {
    std::vector<Op> out;
    for (const Op& op : ops_)
      if (op.due_ms >= from_ms && op.due_ms < to_ms) out.push_back(op);
    return out;
  }
  double max_lateness_ms() const { return max_lateness_ms_; }

 private:
  void Loop() {
    const double t0 = NowMillis();
    uint64_t next_key = base_;
    for (uint64_t tick = 0; !stop_.load(); ++tick) {
      const double due = t0 + tick * w_.writer_period_ms;
      SleepUntilMs(due);
      if (stop_.load()) break;
      max_lateness_ms_ = std::max(max_lateness_ms_, NowMillis() - due);
      const std::string sql =
          WriterStatement(w_.writer, tick, base_, &next_key, rng_);
      bool ok;
      {
        std::shared_lock<std::shared_mutex> hold(*gate_);
        auto r = client_.Execute(sql);
        ok = r.ok();
        if (!ok)
          std::fprintf(stderr, "writer: %s: %s\n", sql.c_str(),
                       r.status().ToString().c_str());
      }
      ops_.push_back({due, NowMillis() - due, ok, sql[0]});
    }
  }

  const WorkloadSpec& w_;
  uint64_t base_;
  Rng rng_;
  std::shared_mutex* gate_;
  net::Client client_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::vector<Op> ops_;  ///< written by the loop, read after Stop()
  double max_lateness_ms_ = 0;
};

/// Statement streams and answer checking shared by the window's readers.
struct ReadPlan {
  const WorkloadSpec* w = nullptr;
  const std::vector<std::string>* pop = nullptr;
  const std::vector<Answer>* refs = nullptr;  ///< per pop entry, or null
  const ZipfSampler* zipf = nullptr;
  AnswerChecker* checker = nullptr;
  uint64_t seed = 0;
};

struct WindowResult {
  double start_ms = 0;             ///< when the timed part began
  std::vector<double> latency_ms;  ///< every completed SELECT
  std::vector<double> done_ms;     ///< and when it completed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> per_second;  ///< completions in each second
  std::vector<double> steal_s;       ///< host steal in each second
  /// Seconds whose completions count: the first `--seconds` clean ones.
  std::vector<bool> clean;
  bool host_noisy = false;  ///< too few clean seconds turned up
  /// tpch_adhoc: (statement, result) pairs kept for the answer check.
  std::vector<std::pair<std::string, QueryResult>> samples;
  uint64_t result_bytes = 0;  ///< traced replay only

  /// SELECTs completed in the window, counted seconds or not.
  uint64_t completed() const {
    uint64_t n = 0;
    for (uint64_t c : per_second) n += c;
    return n;
  }
  /// Whether a completion (or due time) at `t_ms` falls in a counted
  /// second.
  bool Counted(double t_ms) const {
    const double sec = std::floor((t_ms - start_ms) / 1000.0);
    return sec >= 0 && sec < clean.size() && clean[static_cast<size_t>(sec)];
  }
  /// Per-second completion counts of the counted seconds, in order.
  std::vector<double> CountedQps() const {
    std::vector<double> v;
    for (size_t i = 0; i < per_second.size(); ++i)
      if (clean[i]) v.push_back(static_cast<double>(per_second[i]));
    return v;
  }
  /// Median per-second throughput over the counted seconds: a burst of
  /// host noise in one second does not move it.
  double median_qps() const {
    std::vector<double> v = CountedQps();
    return Percentile(&v, 50);
  }
  /// Latencies of the SELECTs that completed in counted seconds.
  std::vector<double> CountedReads() const {
    std::vector<double> v;
    for (size_t i = 0; i < latency_ms.size(); ++i)
      if (Counted(done_ms[i])) v.push_back(latency_ms[i]);
    return v;
  }
};

/// Runs the readers closed-loop for a pre-roll and then until `seconds`
/// seconds free of host steal have passed, for at most `stretch` times
/// `seconds` (see kMaxStealShare); a window that cannot stretch counts
/// every second. Readers go over the wire when `traced` is null, else
/// through TracedPath (whose span logs go to `paths`); both replay the same
/// statement stream for a seed. `at_start` runs on the calling thread as
/// the timed part begins.
WindowResult RunWindow(const Env& env, const ReadPlan& plan, double seconds,
                       size_t stretch, TracedShared* traced,
                       std::vector<std::unique_ptr<TracedPath>>* paths,
                       const std::function<void()>& at_start) {
  const int n = plan.w->reader_conns;
  std::vector<WindowResult> per(n);
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  if (traced != nullptr)
    for (int t = 0; t < n; ++t)
      paths->push_back(std::make_unique<TracedPath>(traced));
  const double preroll = NowMillis() + 20;
  const double start = preroll + kPreRollMs;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      WindowResult& out = per[t];
      net::Client client;
      TracedPath* path = traced != nullptr ? (*paths)[t].get() : nullptr;
      if (path == nullptr &&
          !ConnectClient(&client, env.server->port()).ok()) {
        out.attempted = out.failed = 1;
        return;
      }
      Rng rng(plan.seed * 1000003 + t);
      uint64_t request = static_cast<uint64_t>(t) << 40;
      uint64_t adhoc_seq = 0;
      SleepUntilMs(preroll);
      while (!stop.load()) {
        size_t idx = 0;
        std::string fresh;
        if (plan.pop->empty()) {
          // Patterns in turn, so every run has the same pattern mix.
          fresh = FreshStatement(
              static_cast<int>((t + adhoc_seq) % kNumPatterns), rng);
        } else {
          idx = plan.zipf->Sample(rng);
        }
        const std::string& sql = plan.pop->empty() ? fresh : (*plan.pop)[idx];
        const double t0 = NowMillis();
        Result<QueryResult> r = Status::Internal("unset");
        if (path != nullptr) {
          r = path->Execute(sql, ++request);
        } else {
          auto resp = client.Query(sql);
          if (resp.ok())
            r = std::move(resp.value().result);
          else
            r = resp.status();
        }
        const double t1 = NowMillis();
        if (t0 < start) {
          if (!r.ok()) {
            ++out.attempted;
            ++out.failed;
          }
          continue;
        }
        ++out.attempted;
        if (!r.ok()) {
          if (out.failed++ == 0)
            std::fprintf(stderr, "select failed: %s: %s\n", sql.c_str(),
                         r.status().ToString().c_str());
          continue;
        }
        out.latency_ms.push_back(t1 - t0);
        out.done_ms.push_back(t1);
        const size_t sec = static_cast<size_t>((t1 - start) / 1000.0);
        if (out.per_second.size() <= sec) out.per_second.resize(sec + 1);
        ++out.per_second[sec];
        if (plan.refs != nullptr) {
          if (!plan.checker->Check(sql, (*plan.refs)[idx], r.value()))
            ++out.failed;
        } else if (plan.pop->empty() &&
                   adhoc_seq % kAdhocCheckEvery == 0) {
          out.samples.emplace_back(sql, std::move(r).value());
        }
        ++adhoc_seq;
      }
    });
  }
  SleepUntilMs(start);
  at_start();
  // One steal reading a second; stop once `seconds` of them were clean.
  const size_t want = std::max<size_t>(1, static_cast<size_t>(seconds));
  const double tick_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double max_steal =
      kMaxStealShare * std::thread::hardware_concurrency();
  WindowResult all;
  all.start_ms = start;
  size_t clean = 0;
  for (uint64_t prev = StealTicks(); clean < want &&
                                     all.steal_s.size() < stretch * want;) {
    SleepUntilMs(start + (all.steal_s.size() + 1) * 1000.0);
    const uint64_t now = StealTicks();
    all.steal_s.push_back((now - prev) / tick_s);
    all.clean.push_back(all.steal_s.back() <= max_steal);
    clean += all.clean.back() ? 1 : 0;
    prev = now;
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  const size_t secs = all.steal_s.size();
  all.host_noisy = clean < want;
  if (stretch == 1) all.clean.assign(secs, true);
  all.per_second.assign(secs, 0);
  for (WindowResult& p : per) {
    all.latency_ms.insert(all.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    all.done_ms.insert(all.done_ms.end(), p.done_ms.begin(), p.done_ms.end());
    all.attempted += p.attempted;
    all.failed += p.failed;
    for (size_t i = 0; i < p.per_second.size() && i < secs; ++i)
      all.per_second[i] += p.per_second[i];
    for (auto& s : p.samples) all.samples.push_back(std::move(s));
  }
  if (traced != nullptr)
    for (const auto& p : *paths) all.result_bytes += p->result_bytes();
  return all;
}

/// Checks the kept tpch_adhoc samples against reference runs.
void CheckSamples(const Env& env, WindowResult* win, AnswerChecker* checker) {
  for (const auto& [sql, result] : win->samples) {
    ++win->attempted;
    auto want = ReferenceAnswer(env.cat.get(), sql);
    if (!want.ok() || !checker->Check(sql, want.value(), result))
      ++win->failed;
  }
}

/// tpch_rw: with the writer stopped, replays the whole population through
/// the service and compares at the final epoch. Returns {attempted, failed}.
std::pair<uint64_t, uint64_t> CheckFinalEpoch(
    const Env& env, const std::vector<std::string>& pop,
    AnswerChecker* checker) {
  uint64_t failed = 0;
  net::Client c;
  if (!ConnectClient(&c, env.server->port()).ok()) return {1, 1};
  for (const std::string& sql : pop) {
    auto want = ReferenceAnswer(env.cat.get(), sql);
    auto got = c.Query(sql);
    if (!want.ok() || !got.ok() ||
        !checker->Check(sql, want.value(), got.value().result))
      ++failed;
  }
  return {pop.size(), failed};
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run(const Options& opt) {
  const WorkloadSpec* w = FindWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const std::vector<std::string> pop =
      w->per_pattern > 0 ? ReusePopulation(opt.seed, w->per_pattern)
                         : std::vector<std::string>{};

  // Set-up, several times when its time is reported; the last one stays.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < (opt.trace ? 1 : 3); ++i) {
    env.reset();
    StopWatch sw;
    auto made = SetUp(*w, pop, opt.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    env = std::move(made).value();
    setup_s.push_back(sw.ElapsedSeconds());
  }

  AnswerChecker checker;
  std::vector<Answer> refs;
  if (!pop.empty()) {
    for (const std::string& sql : pop) {
      auto a = ReferenceAnswer(env->cat.get(), sql);
      if (!a.ok()) {
        std::fprintf(stderr, "reference failed: %s: %s\n", sql.c_str(),
                     a.status().ToString().c_str());
        return 1;
      }
      refs.push_back(std::move(a).value());
    }
  }
  const ZipfSampler zipf(std::max<size_t>(pop.size(), 1), kZipfS);
  ReadPlan plan;
  plan.w = w;
  plan.pop = &pop;
  // tpch_rw answers move with every commit; they are checked at the end.
  plan.refs =
      w->writer == WriterKind::kOrders || pop.empty() ? nullptr : &refs;
  plan.zipf = &zipf;
  plan.checker = &checker;
  plan.seed = opt.seed;

  TracedShared traced;
  traced.svc = env->svc.get();
  traced.slots = std::make_unique<WorkerSlots>(w->workers);
  Writer writer(*w, env->writer_base, opt.seed, &traced.compile_gate);
  Status st = writer.Start(env->server->port());
  if (!st.ok()) {
    std::fprintf(stderr, "writer connect failed: %s\n", st.ToString().c_str());
    return 1;
  }
  SleepUntilMs(NowMillis() + kWriterLeadInMs);

  QueryService& svc = *env->svc;
  recycledb::obs::LatencyHistogram* net_queue =
      svc.metrics().FindHistogram("net_queue_us");
  ServiceStats s0;
  RecyclerStats r0;
  double win_from = 0;
  WindowResult win =
      RunWindow(*env, plan, opt.seconds, kMaxStretch, nullptr, nullptr, [&] {
        if (net_queue != nullptr) net_queue->Reset();
        s0 = svc.SnapshotStats();
        r0 = svc.recycler().stats();
        win_from = NowMillis();
      });
  const double win_to = NowMillis();
  const ServiceStats s1 = svc.SnapshotStats();
  const RecyclerStats r1 = svc.recycler().stats();
  const double pool_mb = svc.recycler().pool_bytes() / kMiB;
  const double peak_rss_mb = PeakRssMb();
  const uint64_t net_queue_p50 =
      net_queue != nullptr ? net_queue->snapshot().Percentile(50) : 0;

  std::vector<std::unique_ptr<TracedPath>> paths;
  WindowResult traced_win;
  if (opt.trace) {
    traced_win =
        RunWindow(*env, plan, opt.seconds, 1, &traced, &paths, [] {});
  }
  writer.Stop();

  // Answer checks that need the writer stopped.
  uint64_t attempted = win.attempted + traced_win.attempted;
  uint64_t failed = win.failed + traced_win.failed;
  if (pop.empty()) {
    CheckSamples(*env, &win, &checker);
    CheckSamples(*env, &traced_win, &checker);
    attempted = win.attempted + traced_win.attempted;
    failed = win.failed + traced_win.failed;
  } else if (w->writer == WriterKind::kOrders) {
    auto [a, f] = CheckFinalEpoch(*env, pop, &checker);
    attempted += a;
    failed += f;
  }
  const std::vector<Writer::Op> ops = writer.OpsBetween(win_from, win_to);
  std::vector<double> write_ms;
  for (const Writer::Op& op : ops) {
    ++attempted;
    if (!op.ok) ++failed;
    if (win.Counted(op.due_ms)) write_ms.push_back(op.latency_ms);
  }
  std::vector<double> read_ms = win.CountedReads();

  // Steady-state and correctness guards.
  const uint64_t evicted = r1.evicted - r0.evicted;
  RunFacts facts;
  facts.attempted = attempted;
  facts.failed = failed;
  facts.mismatches = checker.mismatches();
  facts.counted_qps = win.CountedQps();
  facts.host_noisy = win.host_noisy;
  facts.reads = read_ms.size();
  facts.writes = write_ms.size();
  facts.expect_no_evictions = !pop.empty() && w->writer == WriterKind::kProbe;
  facts.expect_evictions = pop.empty();
  facts.evicted = evicted;
  const std::vector<std::string> guard = FailedGuards(facts);
  const bool correct = guard.empty();
  for (const std::string& g : guard)
    std::fprintf(stderr, "FAILED: %s\n", g.c_str());
  double steal_s = 0;
  for (double st : win.steal_s) steal_s += st;

  const uint64_t reads = win.completed();
  const double q = static_cast<double>(reads);
  std::printf(
      "workload=%s seed=%llu sf=%.2f readers=%d workers=%d budget_mb=%.0f "
      "population=%zu\n",
      w->name, static_cast<unsigned long long>(opt.seed), w->scale_factor,
      w->reader_conns, w->workers, w->pool_budget_bytes / kMiB, pop.size());
  std::printf(
      "reads=%llu read_samples=%zu writes=%zu ops=%llu failed=%llu "
      "fail_frac=%.6f checked=%llu drift=%.3f "
      "evicted=%llu hit_ratio=%.3f pool_mb=%.1f writer_max_late_ms=%.2f "
      "host_steal_cpu_s=%.2f counted_seconds=%zu/%zu setup_s=[%.3f",
      static_cast<unsigned long long>(reads), read_ms.size(),
      write_ms.size(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), Ratio(failed, attempted),
      static_cast<unsigned long long>(checker.checked()),
      Drift(facts.counted_qps),
      static_cast<unsigned long long>(evicted),
      Ratio(r1.hits - r0.hits, r1.monitored - r0.monitored), pool_mb,
      writer.max_lateness_ms(), steal_s, win.CountedQps().size(),
      win.clean.size(), setup_s[0]);
  for (size_t i = 1; i < setup_s.size(); ++i) std::printf(", %.3f", setup_s[i]);
  std::printf("]\nread_ms p90/p95/p98/p99/p99.5/p99.9=");
  {
    std::vector<double> v = read_ms;
    for (double p : {90.0, 95.0, 98.0, 99.0, 99.5, 99.9})
      std::printf("%s%.3f", p == 90.0 ? "" : "/", Percentile(&v, p));
  }
  std::printf("\nqps_by_second=[");
  for (size_t i = 0; i < win.per_second.size(); ++i)
    std::printf("%s%llu", i > 0 ? ", " : "",
                static_cast<unsigned long long>(win.per_second[i]));
  std::printf("]\nsteal_s_by_second=[");
  for (size_t i = 0; i < win.steal_s.size(); ++i)
    std::printf("%s%.2f", i > 0 ? ", " : "", win.steal_s[i]);
  std::printf("]\n");
  for (char kind : {'b', 'i', 'u', 'd', 'c', 'r'}) {
    std::vector<double> v;
    for (const Writer::Op& op : ops)
      if (op.kind == kind) v.push_back(op.latency_ms);
    if (!v.empty())
      std::printf("writer kind=%c ops=%zu p50_ms=%.3f p90_ms=%.3f\n", kind,
                  v.size(), Percentile(&v, 50), Percentile(&v, 90));
  }

  if (!correct) {
    PrintResult(false, attempted, failed, {});
    return 0;
  }

  std::vector<Metric> m;
  if (!opt.trace) {
    m.push_back({"qps", win.median_qps(), "1/s"});
    m.push_back({"read_p50_ms", Percentile(&read_ms, 50), "ms"});
    m.push_back({"read_p99_ms", Percentile(&read_ms, 99), "ms"});
    m.push_back({"write_p50_ms", Percentile(&write_ms, 50), "ms"});
    m.push_back({"write_p90_ms", Percentile(&write_ms, 90), "ms"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    m.push_back({"setup_s", Percentile(&setup_s, 50), "s"});
    PrintResult(true, attempted, failed, m);
    return 0;
  }

  // Counters of the untraced window.
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto svc_delta = [&](uint64_t ServiceStats::*f) {
    return static_cast<double>(s1.*f - s0.*f);
  };
  auto rec_delta = [&](uint64_t RecyclerStats::*f) {
    return static_cast<double>(r1.*f - r0.*f);
  };
  const double commits = svc_delta(&ServiceStats::snapshot_epoch);
  const double excl = svc_delta(&ServiceStats::pool_excl_locks);
  const double shared = svc_delta(&ServiceStats::pool_shared_locks);
  const double per_1k = Ratio(1000.0, q);
  add("fail_frac", Ratio(failed, attempted), "ratio");
  add("sql.compiles", static_cast<double>(s1.plan_compiles), "count");
  add("server.plan_hit_ratio",
      Ratio(svc_delta(&ServiceStats::plan_hits),
            svc_delta(&ServiceStats::plan_lookups)),
      "ratio");
  add("server.overhead_us",
      Ratio(svc_delta(&ServiceStats::wall_us) -
                svc_delta(&ServiceStats::exec_us),
            q),
      "us");
  add("net.queue_us_p50", static_cast<double>(net_queue_p50), "us");
  add("interp.instrs", Ratio(svc_delta(&ServiceStats::instrs), q), "count");
  add("core.hit_ratio",
      Ratio(rec_delta(&RecyclerStats::hits),
            rec_delta(&RecyclerStats::monitored)),
      "ratio");
  add("core.exact_hits", rec_delta(&RecyclerStats::exact_hits) * per_1k,
      "count");
  add("core.subsumed_hits", rec_delta(&RecyclerStats::subsumed_hits) * per_1k,
      "count");
  add("core.combined_hits", rec_delta(&RecyclerStats::combined_hits) * per_1k,
      "count");
  add("core.admitted", rec_delta(&RecyclerStats::admitted) * per_1k, "count");
  add("core.evicted", evicted * per_1k, "count");
  add("core.subsume_alg_ms", Ratio(r1.subsume_alg_ms - r0.subsume_alg_ms, q),
      "ms");
  add("core.pool_mb", pool_mb, "MB");
  add("core.excl_lock_frac", Ratio(excl, excl + shared), "ratio");
  add("core.propagated", Ratio(rec_delta(&RecyclerStats::propagated), commits),
      "count");
  add("core.invalidated",
      Ratio(rec_delta(&RecyclerStats::invalidated), commits), "count");
  add("core.stale_declines",
      rec_delta(&RecyclerStats::stale_declines) * per_1k, "count");
  add("catalog.commits", commits, "count");
  add("catalog.epoch_pins", svc_delta(&ServiceStats::epoch_pins), "count");

  // Timings of the traced replay.
  std::vector<const SpanLog*> logs;
  for (const auto& p : paths) logs.push_back(&p->log());
  const TraceSummary t = Summarize(logs);
  const double n = static_cast<double>(t.requests);
  auto mean = [&t](SpanName s) { return Ratio(t.total_us[s], t.count[s]); };
  auto per_request = [&t, n](SpanName s) { return Ratio(t.total_us[s], n); };
  add("net.encode_us", mean(kSpanEncode), "us");
  add("net.decode_us", mean(kSpanDecode), "us");
  add("net.result_bytes", Ratio(traced_win.result_bytes, n), "bytes");
  add("sql.parse_us", mean(kSpanParse), "us");
  add("sql.compile_us", mean(kSpanCompile), "us");
  add("sql.bind_us", mean(kSpanBind), "us");
  add("server.plan_probe_us", per_request(kSpanPlanProbe), "us");
  add("server.queue_us", per_request(kSpanQueue), "us");
  add("catalog.snapshot_us", mean(kSpanSnapshot), "us");
  add("catalog.release_us", mean(kSpanRelease), "us");
  add("interp.run_us", mean(kSpanRun), "us");
  add("engine.op_us", Ratio(t.run_self_us, n), "us");
  // Per monitored instruction: every one gets exactly one OnEntry.
  add("core.probe_us", mean(kSpanCoreProbe), "us");
  add("core.admit_us",
      Ratio(t.total_us[kSpanCoreAdmit], t.count[kSpanCoreProbe]), "us");
  add("core.session_us", per_request(kSpanCoreSession), "us");
  add("unattributed_us", Ratio(t.request_self_us, n), "us");
  add("trace_overhead_frac",
      1.0 - Ratio(traced_win.median_qps(), win.median_qps()), "ratio");

  if (!opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + w->name + "-seed" +
                             std::to_string(opt.seed) + ".csv";
    if (!WriteSpans(path, logs, 200))
      std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  PrintResult(true, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(opt);
}
