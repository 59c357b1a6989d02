// Per-opcode profile of perfbench's five statement patterns.
//
//   ./build/bench_opcodes [--queries N]
//
// Loads TPC-H at tpch_adhoc's scale factor with perfbench's data seed,
// then runs N (default 200) fresh statements of each pattern
// (perfbench/src/workload.h, as tpch_adhoc draws them) through a
// recycler-free Interpreter. A timing hook reads each executed
// instruction's time from RecyclerHook::OnExit and never answers from a
// pool, so every instruction runs. Prints one JSON row per (pattern,
// instruction): the opcode, the type of its first result's tail, and the
// microseconds it took per statement; then one total row per pattern,
// which also carries the minor page faults per statement (a getrusage
// delta over the pattern's statements, compilation included).
//
// Then it times commits: a QueryService whose pool holds the tpch_reuse
// population runs N writer transactions of each tpch_rw kind (insert-only,
// UPDATE, DELETE; perfbench's WriterStatement), re-running the population
// before each so the pool is as full as the readers keep it. Prints one
// JSON row per (kind, commit phase) with the mean microseconds per commit
// from the service's commit_*_us histograms, and a total row per kind,
// which also carries the pool entries invalidated and propagated per
// commit. It gates nothing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "interp/interpreter.h"
#include "server/query_service.h"
#include "sql/planner.h"
#include "tpch/tpch.h"
#include "util/rng.h"
#include "workload.h"

namespace {

using recycledb::MalValue;
using recycledb::RecyclerHook;

/// Accumulated time of one instruction of a pattern's plan.
struct InstrTime {
  std::string op;
  std::string out;  // tail type of the first bat result, or "scalar"
  double ms = 0;
};

/// Never reuses; records the time of every executed instruction by pc.
class TimingHook : public RecyclerHook {
 public:
  void BeginQuery(const recycledb::Program&) override {}
  void EndQuery() override {}
  bool OnEntry(const InstrView&, std::vector<MalValue>*) override {
    return false;
  }
  void OnExit(const InstrView& instr, const std::vector<MalValue>& results,
              double cpu_ms, const std::vector<recycledb::ColumnId>&) override {
    InstrTime& t = (*times_)[instr.pc];
    t.op = recycledb::OpcodeName(instr.op);
    t.out = !results.empty() && results[0].is_bat()
                ? recycledb::TypeName(results[0].bat()->tail().LogicalType())
                : "scalar";
    t.ms += cpu_ms;
  }

  void set_times(std::map<int, InstrTime>* times) { times_ = times; }

 private:
  std::map<int, InstrTime>* times_ = nullptr;
};

/// Minor page faults this process has taken so far.
long MinorFaults() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

const char* kPatternNames[perfbench::kNumPatterns] = {
    "q6", "q1", "join_count", "histogram", "orders_sum"};

/// The tpch_rw writer's transaction kinds, by the residue of the
/// transaction number modulo 5 that WriterStatement gives each kind.
struct CommitKind {
  const char* name;
  uint64_t residue;
};
const CommitKind kCommitKinds[] = {{"insert", 0}, {"update", 3}, {"delete", 4}};

const char* kCommitPhases[] = {"merge", "index", "pool", "publish"};

/// Runs `sql` through `svc` on `session`; false (and a message) on error.
bool RunSql(recycledb::QueryService* svc, recycledb::Session* session,
            const std::string& sql) {
  auto r = svc->Submit(recycledb::Request{sql, session, {}}).future.get();
  if (!r.ok())
    std::fprintf(stderr, "%s: %s\n", sql.c_str(),
                 r.status().ToString().c_str());
  return r.ok();
}

/// Commit rows: see the file comment.
int ProfileCommits(recycledb::Catalog* cat, int queries) {
  const perfbench::WorkloadSpec* reuse = perfbench::FindWorkload("tpch_reuse");
  recycledb::ServiceConfig cfg;
  cfg.num_workers = reuse->workers;
  cfg.recycler.max_bytes = reuse->pool_budget_bytes;
  recycledb::QueryService svc(cat, cfg);
  recycledb::Session session;
  const std::vector<std::string> pop =
      perfbench::ReusePopulation(1, reuse->per_pattern);
  const uint64_t base = cat->FindTable("orders")->num_rows() + 1000;
  uint64_t next_key = base;
  recycledb::Rng rng(5);  // writer seed
  auto hist = [&](const char* phase) {
    return svc.metrics().FindHistogram(std::string("commit_") + phase + "_us");
  };
  for (const CommitKind& kind : kCommitKinds) {
    for (const char* phase : kCommitPhases) hist(phase)->Reset();
    const recycledb::RecyclerStats before = svc.recycler().stats();
    for (int q = 0; q < queries; ++q) {
      for (const std::string& sql : pop) {
        if (!RunSql(&svc, &session, sql)) return 1;
      }
      const uint64_t txn = 5 * static_cast<uint64_t>(q) + kind.residue;
      for (uint64_t slot = 0; slot < perfbench::kTxnStatements; ++slot) {
        const std::string sql = perfbench::WriterStatement(
            perfbench::WriterKind::kOrders,
            txn * perfbench::kTxnStatements + slot, base, &next_key, rng);
        if (!RunSql(&svc, &session, sql)) return 1;
      }
    }
    const recycledb::RecyclerStats after = svc.recycler().stats();
    double total_us = 0;
    uint64_t commits = 0;
    for (const char* phase : kCommitPhases) {
      const auto h = hist(phase)->snapshot();
      commits = h.count;
      total_us += h.Mean();
      std::printf(
          "{\"kind\": \"%s\", \"phase\": \"%s\", \"commits\": %llu, "
          "\"us_per_commit\": %.1f}\n",
          kind.name, phase, static_cast<unsigned long long>(h.count),
          h.Mean());
    }
    const double n = commits == 0 ? 1.0 : static_cast<double>(commits);
    std::printf(
        "{\"kind\": \"%s\", \"phase\": \"total\", \"commits\": %llu, "
        "\"us_per_commit\": %.1f, \"invalidated_per_commit\": %.1f, "
        "\"propagated_per_commit\": %.1f}\n",
        kind.name, static_cast<unsigned long long>(commits), total_us,
        static_cast<double>(after.invalidated - before.invalidated) / n,
        static_cast<double>(after.propagated - before.propagated) / n);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int queries = 200;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--queries") == 0) {
      queries = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (queries <= 0) return 2;

  recycledb::Catalog cat;
  recycledb::tpch::TpchConfig cfg;
  cfg.scale_factor = perfbench::FindWorkload("tpch_adhoc")->scale_factor;
  cfg.seed = 42;  // perfbench's data seed
  recycledb::Status st = recycledb::tpch::LoadTpch(&cat, cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "tpch load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  TimingHook hook;
  recycledb::Interpreter interp(&cat, &hook);
  recycledb::Rng rng(1);  // statement seed
  for (int p = 0; p < perfbench::kNumPatterns; ++p) {
    std::map<int, InstrTime> times;
    hook.set_times(&times);
    const long faults = MinorFaults();
    for (int q = 0; q < queries; ++q) {
      const std::string sql = perfbench::FreshStatement(p, rng);
      auto compiled = recycledb::sql::CompileSql(&cat, sql);
      if (!compiled.ok()) {
        std::fprintf(stderr, "%s: %s\n", sql.c_str(),
                     compiled.status().ToString().c_str());
        return 1;
      }
      auto r = interp.Run(compiled.value().plan.prog, compiled.value().params);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", sql.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
    }
    const double minflt = static_cast<double>(MinorFaults() - faults) / queries;
    double total_ms = 0;
    for (const auto& [pc, t] : times) {
      total_ms += t.ms;
      std::printf(
          "{\"pattern\": \"%s\", \"pc\": %d, \"op\": \"%s\", \"out\": \"%s\", "
          "\"us_per_query\": %.1f}\n",
          kPatternNames[p], pc, t.op.c_str(), t.out.c_str(),
          1000.0 * t.ms / queries);
    }
    std::printf(
        "{\"pattern\": \"%s\", \"op\": \"total\", \"queries\": %d, "
        "\"us_per_query\": %.1f, \"minflt_per_query\": %.1f}\n",
        kPatternNames[p], queries, 1000.0 * total_ms / queries, minflt);
  }
  return ProfileCommits(&cat, queries);
}
