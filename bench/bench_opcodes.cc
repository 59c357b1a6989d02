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
// delta over the pattern's statements, compilation included). It gates
// nothing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "interp/interpreter.h"
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
  return 0;
}
