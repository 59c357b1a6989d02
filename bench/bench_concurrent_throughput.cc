// Concurrent query service bench: the recycler's decisions under the shared
// pool — hit ratios of a hot and a cold workload, the SQL plan cache, §6.3
// propagation under a mixed SELECT+DML load, eviction under a fixed byte
// budget — plus two within-run ablations (vectorised kernels against the
// scalar reference, tracing overhead against the untraced run).
//
//   ./bench_concurrent_throughput            # SF from RDB_TPCH_SF (0.005)
//   RDB_MAX_WORKERS=16 ./bench_concurrent_throughput  # default 4
//   ./bench_concurrent_throughput --json BENCH_concurrent.json \
//                                 --metrics BENCH_metrics.json
//
// --json writes what bench/check_regression.py gates against
// bench/baseline/BENCH_concurrent.json: hit ratios, deterministic counters
// and within-run ratios, which mean the same on any host. Absolute
// throughput only goes to stdout; perfbench/ measures the service end to
// end over the wire. --metrics additionally dumps the DML-phase service's
// full metrics registry (DumpMetricsJson: counters, gauges, histograms,
// governance events) as a CI artifact.

#include <algorithm>
#include <fstream>
#include <utility>

#include "bat/hash_index.h"
#include "bench/bench_common.h"
#include "engine/operators.h"
#include "engine/vec/hashprobe.h"
#include "server/query_service.h"
#include "testing/scalar_ref.h"
#include "util/str.h"

using namespace recycledb;         // NOLINT
using namespace recycledb::bench;  // NOLINT

namespace {

struct Workload {
  const char* name;
  std::vector<QueryRequest> queries;          // timed
  std::vector<QueryRequest> warmup;           // distinct shapes, untimed
};

/// Builds a workload over the given templates. `distinct_params` > 0 draws
/// every timed query from that many pre-warmed parameter vectors per
/// template (hot: the pool answers nearly everything); 0 gives every timed
/// query fresh parameters the warmup never saw (cold: only the
/// parameter-independent plan prefixes can hit).
Workload MakeWorkload(const char* name,
                      const std::vector<tpch::QueryTemplate>& templates,
                      int distinct_params, int n, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  std::vector<std::vector<std::vector<Scalar>>> params(templates.size());
  for (size_t t = 0; t < templates.size(); ++t) {
    int warm = distinct_params > 0 ? distinct_params : 1;
    for (int p = 0; p < warm; ++p) {
      params[t].push_back(templates[t].gen_params(rng));
      w.warmup.push_back({&templates[t].prog, params[t][p]});
    }
  }
  for (int i = 0; i < n; ++i) {
    size_t t = i % templates.size();
    std::vector<Scalar> p = distinct_params > 0
                                ? params[t][rng.Uniform(distinct_params)]
                                : templates[t].gen_params(rng);
    w.queries.push_back({&templates[t].prog, std::move(p)});
  }
  return w;
}

struct Sample {
  double qps = 0;
  double hit_ratio = 0;
};

double HitRatio(const RecyclerStats& rs) {
  return rs.monitored ? static_cast<double>(rs.hits) / rs.monitored : 0.0;
}

/// One row of the machine-readable output (--json). check_regression.py keys
/// rows by (phase, load, workers) and gates every field the row carries.
struct JsonRow {
  std::string phase;
  std::string load;
  int workers = 0;
  double hit_ratio = 0;
  /// Workload-determined counters (plan cache, DML pool maintenance,
  /// budget-forced evictions).
  std::vector<std::pair<const char*, uint64_t>> counters;
  /// Within-run ratios (rel_qps).
  std::vector<std::pair<const char*, double>> ratios;
};

void WriteJson(const std::string& path, double sf, int max_workers,
               size_t stripes, const std::vector<JsonRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::abort();
  }
  out << "{\n";
  out << StrFormat(
      "  \"config\": {\"sf\": %g, \"max_workers\": %d, \"stripes\": %zu},\n",
      sf, max_workers, stripes);
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    out << StrFormat(
        "    {\"phase\": \"%s\", \"load\": \"%s\", \"workers\": %d, "
        "\"hit_ratio\": %.4f",
        r.phase.c_str(), r.load.c_str(), r.workers, r.hit_ratio);
    for (const auto& [name, v] : r.counters)
      out << StrFormat(", \"%s\": %llu", name,
                       static_cast<unsigned long long>(v));
    for (const auto& [name, v] : r.ratios)
      out << StrFormat(", \"%s\": %.4f", name, v);
    out << (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  out << "  ]\n}\n";
}

/// The one service configuration every phase runs with (worker count set
/// per phase) — also the source of truth for the config block in --json.
ServiceConfig BenchConfig(int workers) {
  ServiceConfig cfg;
  cfg.num_workers = workers;
  return cfg;
}

Sample RunConfig(Catalog* cat, const Workload& w, int workers,
                 uint32_t trace_sample_n = 0) {
  ServiceConfig cfg = BenchConfig(workers);
  cfg.trace_sample_n = trace_sample_n;
  QueryService svc(cat, cfg);

  // Short runs are noisy, so take the best of a few repetitions. Each rep
  // restores the same starting state: an empty pool re-warmed with the
  // workload's distinct shapes (steady-state serving, §7 preparation
  // analogue) — otherwise a cold rep would leave its admissions behind and
  // turn the next rep hot.
  Sample s;
  for (int rep = 0; rep < 3; ++rep) {
    svc.recycler().Clear();
    for (auto& r : svc.RunBatch(w.warmup)) {
      if (!r.ok()) {
        std::fprintf(stderr, "warmup failed: %s\n",
                     r.status().ToString().c_str());
        std::abort();
      }
    }
    svc.recycler().ResetStats();
    StopWatch sw;
    std::vector<Result<QueryResult>> results = svc.RunBatch(w.queries);
    double secs = sw.ElapsedSeconds();
    for (auto& r : results) {
      if (!r.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     r.status().ToString().c_str());
        std::abort();
      }
    }
    double qps = static_cast<double>(w.queries.size()) / secs;
    if (qps > s.qps) {
      s.qps = qps;
      s.hit_ratio = HitRatio(svc.recycler().stats());
    }
  }
  return s;
}

/// The defaults are CI's knobs (bench/check_regression.py's baseline), so a
/// bare run emits exactly the baseline's row set.
double BenchSf() { return EnvSf(0.005); }

int EnvMaxWorkers(int def = 4) {
  const char* v = std::getenv("RDB_MAX_WORKERS");
  if (v == nullptr) return def;
  int n = std::atoi(v);
  return n < 1 ? def : n;  // unparsable/zero: fall back to the default
}

/// Mixed ad-hoc SQL workload through Submit(Request): a handful of TPC-H-style
/// query patterns, each instantiated with literals drawn from small pools.
/// Every line is distinct text, but normalisation maps it onto one of a few
/// fingerprints — the compile-once, share-everywhere behaviour the plan
/// cache exists for (compiles ≪ submissions), feeding the recycler the same
/// inter-query commonality the hand-built templates have.
JsonRow RunPlanCachePhase(Catalog* cat, int workers, int n_queries) {
  QueryService svc(cat, BenchConfig(workers));
  Session sess;
  Rng rng(4242);

  auto query = [&](int pattern) -> std::string {
    int y = 1993 + static_cast<int>(rng.Uniform(4));
    switch (pattern) {
      case 0:  // Q6-style: fully parameter dependent
        return StrFormat(
            "select sum(l_extendedprice * l_discount) from lineitem "
            "where l_shipdate >= date '%d-01-01' and l_shipdate < date "
            "'%d-01-01' and l_discount between %.2f and %.2f and "
            "l_quantity < %d",
            y, y + 1, 0.02 + 0.01 * rng.Uniform(3),
            0.05 + 0.01 * rng.Uniform(3), 24 + static_cast<int>(rng.Uniform(2)));
      case 1:  // Q1-style: grouped aggregation
        return StrFormat(
            "select l_returnflag, l_linestatus, sum(l_quantity), count(*) "
            "from lineitem where l_shipdate <= date '1998-%02d-01' "
            "group by l_returnflag, l_linestatus",
            1 + static_cast<int>(rng.Uniform(12)));
      case 2:  // Q18 prefix: no literals at all — fully recyclable
        return "select l_orderkey, sum(l_quantity) from lineitem "
               "group by l_orderkey limit 10";
      case 3:  // FK join through the li_orders index
        return StrFormat(
            "select count(*) from lineitem inner join orders "
            "on l_orderkey = o_orderkey where o_orderdate >= date "
            "'%d-01-01' and o_orderdate < date '%d-07-01'",
            y, y);
      default:  // order-priority histogram over a quarter
        return StrFormat(
            "select o_orderpriority, count(*) from orders where o_orderdate "
            "between date '%d-01-01' and date '%d-03-01' "
            "group by o_orderpriority",
            y, y);
    }
  };

  StopWatch sw;
  std::vector<std::future<Result<QueryResult>>> futs;
  futs.reserve(n_queries);
  for (int i = 0; i < n_queries; ++i)
    futs.push_back(svc.Submit(Request{query(i % 5), &sess, {}}).future);
  for (auto& f : futs) {
    auto r = f.get();
    if (!r.ok()) {
      std::fprintf(stderr, "sql query failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
  }
  double secs = sw.ElapsedSeconds();

  ServiceStats s = svc.SnapshotStats();
  RecyclerStats rs = svc.recycler().stats();
  std::printf("SQL plan cache (%d workers, 5 patterns, %d submissions)\n",
              workers, n_queries);
  std::printf(
      "  qps=%.1f  compiles=%llu  plan-hits=%llu  invalidations=%llu  "
      "(compiles/submissions = %.1f%%)\n",
      n_queries / secs, static_cast<unsigned long long>(s.plan_compiles),
      static_cast<unsigned long long>(s.plan_hits),
      static_cast<unsigned long long>(s.plan_invalidations),
      100.0 * static_cast<double>(s.plan_compiles) /
          static_cast<double>(s.plan_lookups));
  std::printf(
      "  recycler: monitored=%llu pool-hits=%llu (hit ratio %.2f)\n",
      static_cast<unsigned long long>(rs.monitored),
      static_cast<unsigned long long>(rs.hits), HitRatio(rs));

  JsonRow row;
  row.phase = "sql_plan_cache";
  row.load = "mixed";
  row.workers = workers;
  row.hit_ratio = HitRatio(rs);
  row.counters = {{"plan_compiles", s.plan_compiles},
                  {"plan_hits", s.plan_hits},
                  {"plan_lookups", s.plan_lookups}};
  return row;
}

/// Mixed SELECT+DML update workload through Submit(Request): drained waves of
/// cached-plan SELECTs over `orders` interleaved with committed INSERT
/// batches (insert-only commits, which the recycler must answer with §6.3
/// delta propagation) and DELETE transactions (which must invalidate). The
/// phase owns a private TPC-H copy — it mutates the database.
///
/// Reported: mixed throughput (selects + DML statements per second), the
/// commit-driven pool maintenance counters (propagations/invalidations),
/// and the POST-update hit ratio — a replay wave after the final insert-only
/// commit, measuring how much of the pool survives an update workload in
/// usable (refreshed) form.
JsonRow RunMixedDmlPhase(int workers, int n_rounds, int selects_per_round,
                         const std::string& metrics_path) {
  auto cat = MakeTpchDb(BenchSf());
  const size_t base_rows = cat->FindTable("orders")->num_rows();
  QueryService svc(cat.get(), BenchConfig(workers));
  // Readers and the writer run under separate sessions; the writer keeps
  // autocommit OFF so statements stage into its write set until the
  // explicit COMMIT — the legacy staged-delta behaviour, expressed
  // through a session transaction.
  Session select_sess;
  Session dml_sess;
  dml_sess.set_autocommit(false);
  Rng rng(31337);

  auto select_sql = [&](int i) -> std::string {
    int y = 1993 + (i % 4);
    switch (i % 3) {
      case 0:  // single-dep select-over-bind: the propagation target
        return StrFormat(
            "select count(*) from orders where o_orderdate >= date "
            "'%d-01-01'",
            y);
      case 1:
        return StrFormat(
            "select o_orderpriority, count(*) from orders where o_orderdate "
            "between date '%d-01-01' and date '%d-06-01' "
            "group by o_orderpriority",
            y, y);
      default:
        return StrFormat(
            "select sum(o_totalprice) from orders where o_orderdate >= "
            "date '%d-01-01'",
            y);
    }
  };

  auto run_wave = [&](int n, int offset) {
    std::vector<std::future<Result<QueryResult>>> futs;
    futs.reserve(n);
    for (int i = 0; i < n; ++i)
      futs.push_back(
          svc.Submit(Request{select_sql(offset + i), &select_sess, {}}).future);
    for (auto& f : futs) {
      auto r = f.get();
      if (!r.ok()) {
        std::fprintf(stderr, "mixed select failed: %s\n",
                     r.status().ToString().c_str());
        std::abort();
      }
    }
  };
  auto run_dml = [&](const std::string& stmt) {
    auto r = svc.Submit(Request{stmt, &dml_sess, {}}).future.get();
    if (!r.ok()) {
      std::fprintf(stderr, "dml failed (%s): %s\n", stmt.c_str(),
                   r.status().ToString().c_str());
      std::abort();
    }
  };

  // Warm the plan cache and the pool with every pattern.
  run_wave(24, 0);
  svc.recycler().ResetStats();

  // Inserted orders take keys strictly above every generated one (derived,
  // not assumed — generated keys scale with SF), so the periodic DELETE
  // targets exactly the benchmark's own rows.
  Oid key_base = 0;
  for (Oid k : cat->FindTable("orders")->column(0)->Data<Oid>())
    key_base = std::max(key_base, k);
  ++key_base;
  Oid next_key = key_base;
  StopWatch sw;
  int n_statements = 0;
  for (int round = 0; round < n_rounds; ++round) {
    run_wave(selects_per_round, round * selects_per_round);
    n_statements += selects_per_round;
    if (round % 4 == 2) {
      // Delete everything this phase inserted so far: the commit contains
      // deletes and must take the invalidation path.
      run_dml(StrFormat("delete from orders where o_orderkey >= %llu",
                        static_cast<unsigned long long>(key_base)));
    } else {
      // Insert-only transaction: a batch of fresh orders.
      std::string stmt = "insert into orders values ";
      for (int i = 0; i < 8; ++i) {
        if (i) stmt += ", ";
        stmt += StrFormat(
            "(%llu, %llu, 'O', %.2f, date '%d-%02d-01', '3-MEDIUM', "
            "'bench dml row')",
            static_cast<unsigned long long>(next_key++),
            static_cast<unsigned long long>(rng.Uniform(100)),
            1000.0 + static_cast<double>(rng.Uniform(5000)),
            1993 + static_cast<int>(rng.Uniform(4)),
            1 + static_cast<int>(rng.Uniform(12)));
      }
      run_dml(stmt);
    }
    run_dml("commit");
    n_statements += 2;
  }
  double secs = sw.ElapsedSeconds();
  ServiceStats mixed = svc.SnapshotStats();

  // Post-update replay: the last commit was insert-only, so refreshed
  // entries must keep answering the select-over-bind patterns.
  svc.recycler().ResetStats();
  run_wave(2 * selects_per_round, 0);
  RecyclerStats post = svc.recycler().stats();

  std::printf("mixed SELECT+DML (%d workers, %d rounds, %d selects/round)\n",
              workers, n_rounds, selects_per_round);
  std::printf(
      "  qps=%.1f  inserted=%llu deleted=%llu commits=%llu  "
      "pool: propagated=%llu invalidated=%llu\n",
      n_statements / secs,
      static_cast<unsigned long long>(mixed.dml_inserted_rows),
      static_cast<unsigned long long>(mixed.dml_deleted_rows),
      static_cast<unsigned long long>(mixed.dml_commits),
      static_cast<unsigned long long>(mixed.pool_propagated),
      static_cast<unsigned long long>(mixed.pool_invalidated));
  std::printf(
      "  post-update wave: hit ratio %.2f (hits=%llu monitored=%llu), "
      "orders rows %zu -> %zu\n",
      HitRatio(post), static_cast<unsigned long long>(post.hits),
      static_cast<unsigned long long>(post.monitored), base_rows,
      cat->FindTable("orders")->num_rows());

  JsonRow row;
  row.phase = "sql_dml_mixed";
  row.load = "mixed";
  row.workers = workers;
  row.hit_ratio = HitRatio(post);
  row.counters = {{"propagated", mixed.pool_propagated},
                  {"invalidated", mixed.pool_invalidated},
                  {"dml_commits", mixed.dml_commits}};

  // The richest service of the run (DML events, every counter family): its
  // metrics dump is what CI uploads as the machine-readable artifact.
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      std::abort();
    }
    out << svc.DumpMetricsJson() << "\n";
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return row;
}

/// Bounded-memory serving: the same hot workload under a FIXED recycle-pool
/// byte budget — per-stripe budget slots, stripe-local eviction, borrowing
/// through the pool budget's atomic ledger. Gated by check_regression.py:
/// the steady-state hit ratio under eviction pressure and the budget-forced
/// eviction count (a collapse means the budget stopped binding). Slot
/// borrows are printed but not gated: which stripe crosses its fair share
/// first is scheduling-dependent.
JsonRow RunBoundedMemoryPhase(Catalog* cat,
                              const std::vector<tpch::QueryTemplate>& templates,
                              int workers, int n_queries) {
  ServiceConfig cfg = BenchConfig(workers);
  cfg.recycler.max_bytes = 1024 * 1024;  // fixed budget, deliberately tight
  cfg.recycler.eviction = EvictionKind::kLru;
  QueryService svc(cat, cfg);

  // More distinct parameter vectors than the hot phase: enough working set
  // to keep the budget under continuous pressure, enough repetition that
  // surviving entries still hit.
  Workload w = MakeWorkload("bound", templates, 12, n_queries, 9003);
  for (auto& r : svc.RunBatch(w.warmup)) {
    if (!r.ok()) {
      std::fprintf(stderr, "bounded warmup failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
  }
  svc.recycler().ResetStats();
  StopWatch sw;
  std::vector<Result<QueryResult>> results = svc.RunBatch(w.queries);
  double secs = sw.ElapsedSeconds();
  for (auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "bounded query failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
  }

  RecyclerStats rs = svc.recycler().stats();
  ServiceStats s = svc.SnapshotStats();
  if (svc.recycler().pool_bytes() > cfg.recycler.max_bytes) {
    std::fprintf(stderr, "BUDGET VIOLATED: pool %zu > %zu\n",
                 svc.recycler().pool_bytes(), cfg.recycler.max_bytes);
    std::abort();
  }
  std::printf(
      "bounded memory (%d workers, %zu KB budget, %d queries)\n"
      "  qps=%.1f hit-ratio=%.2f evicted=%llu borrows=%llu rebalances=%llu "
      "all-stripe-ops=%llu pool=%zu/%zu KB\n",
      workers, cfg.recycler.max_bytes / 1024, n_queries, n_queries / secs,
      HitRatio(rs), static_cast<unsigned long long>(rs.evicted),
      static_cast<unsigned long long>(s.pool_borrows),
      static_cast<unsigned long long>(s.pool_rebalances),
      static_cast<unsigned long long>(s.pool_all_stripe_ops),
      svc.recycler().pool_bytes() / 1024, cfg.recycler.max_bytes / 1024);

  JsonRow row;
  row.phase = "bounded_memory";
  row.load = "hot";
  row.workers = workers;
  row.hit_ratio = HitRatio(rs);
  row.counters = {{"evicted", rs.evicted}};
  return row;
}

// ---------------------------------------------------------------------------
// Vectorised-kernel ablation: the rewritten engine entry points against the
// retained element-at-a-time reference loops (testing/scalar_ref.h — the
// former production code, kept verbatim) on scalar-adverse shapes: random
// unsorted data so branches don't predict, working sets past L2 so the
// probe's prefetch pipeline matters. Reported as within-run rel_qps
// (vectorised ÷ scalar), machine-independent and gated with a hard floor by
// check_regression.py. Outputs are cross-checked before timing — a kernel
// that got fast by getting wrong aborts the bench.
// ---------------------------------------------------------------------------

struct KernelTiming {
  double vec_secs = 0;  ///< best per-call seconds of the vectorised kernel
  double rel = 0;       ///< median of per-rep (scalar / vec) ratios
};

/// Times the vectorised and scalar implementations back to back within each
/// repetition and reports the MEDIAN per-rep ratio: adjacent windows share
/// whatever load the host is under, so common-mode jitter cancels out of
/// the ratio, and the median discards a repetition that caught a spike —
/// the ratio is the gated number, so its stability matters more than the
/// absolute throughput's.
template <typename FV, typename FS>
KernelTiming TimeKernelPair(int reps, int iters, FV&& vec_fn, FS&& scalar_fn) {
  KernelTiming t;
  t.vec_secs = 1e100;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    StopWatch swv;
    for (int i = 0; i < iters; ++i) vec_fn();
    double vs = swv.ElapsedSeconds() / iters;
    StopWatch sws;
    for (int i = 0; i < iters; ++i) scalar_fn();
    double ss = sws.ElapsedSeconds() / iters;
    t.vec_secs = std::min(t.vec_secs, vs);
    ratios.push_back(ss / vs);
  }
  std::sort(ratios.begin(), ratios.end());
  t.rel = ratios[ratios.size() / 2];
  return t;
}

/// Order-sensitive FNV over one side; dense sides hash the virtual oids.
template <typename T>
uint64_t SideChecksum(const BatSide& s, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull ^ n;
  if (s.dense()) {
    for (size_t i = 0; i < n; ++i)
      h = (h ^ (s.seq + i)) * 0x100000001b3ull;
    return h;
  }
  SideReader<T> r(s, n);
  for (size_t i = 0; i < n; ++i)
    h = (h ^ static_cast<uint64_t>(r[i])) * 0x100000001b3ull;
  return h;
}

/// Checksum over both sides of an output bat (H/T = physical side types):
/// distinguishes any membership, value, or ordering difference.
template <typename H, typename T>
uint64_t KernelChecksum(const BatPtr& b) {
  return SideChecksum<H>(b->head(), b->size()) * 31 +
         SideChecksum<T>(b->tail(), b->size());
}

JsonRow MakeKernelRow(const char* phase, const KernelTiming& t) {
  JsonRow row;
  row.phase = phase;
  row.load = "vec";
  row.workers = 1;
  row.ratios = {{"rel_qps", t.rel}};
  // Kernel invocations per second.
  std::printf("  %-18s %9.1f /s %8.2fx\n", phase, 1.0 / t.vec_secs, t.rel);
  return row;
}

std::vector<JsonRow> RunKernelPhases() {
  using engine::AggFn;
  constexpr int kReps = 5;
  std::vector<JsonRow> rows;
  std::printf("vectorised kernels vs scalar reference (single-threaded)\n");
  std::printf("  %-18s %12s %9s\n", "kernel", "vec", "rel");

  // Range select: 1M random unsorted int32 (~1.5% nils), ~20% selectivity —
  // the scalar loop's bound branches mispredict, the bitmap pass doesn't.
  {
    const size_t n = 1u << 20;
    Rng rng(11001);
    std::vector<int32_t> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = rng.Uniform(64) == 0 ? NilOf<int32_t>()
                                     : static_cast<int32_t>(rng.Uniform(1000));
    }
    BatPtr b =
        Bat::DenseHead(Column::Make<int32_t>(TypeTag::kInt, std::move(vals)));
    const Scalar lo = Scalar::Int(100), hi = Scalar::Int(299);
    BatPtr vr = engine::Select(b, lo, hi, true, true).ValueOrDie();
    BatPtr sr =
        engine::scalar_ref::ScanRangeSelect(b, lo, hi, true, true).ValueOrDie();
    if ((KernelChecksum<Oid, int32_t>(vr)) !=
        (KernelChecksum<Oid, int32_t>(sr))) {
      std::fprintf(stderr, "kernel_select output mismatch\n");
      std::abort();
    }
    KernelTiming t = TimeKernelPair(
        kReps, 8,
        [&] { engine::Select(b, lo, hi, true, true).ValueOrDie(); },
        [&] {
          engine::scalar_ref::ScanRangeSelect(b, lo, hi, true, true)
              .ValueOrDie();
        });
    rows.push_back(MakeKernelRow("kernel_select", t));
  }

  // Hash-join probe: a prebuilt 256K-unique-key index probed by 1M random
  // keys at ~25% match rate — a selective FK join shape where the scalar
  // loop's empty-bucket and match branches mispredict constantly. The
  // branch-free unique-inner probe (BatchProbeUnique: cmov'd chain head,
  // unconditional compare, store-and-advance compaction) replaces every
  // data-dependent branch with arithmetic. Index build and output
  // materialisation are identical in both implementations and excluded, so
  // the ratio isolates the probe kernel CI gates on.
  {
    const size_t rn = 1u << 18;
    const size_t ln = 1u << 20;
    Rng rng(11002);
    std::vector<int64_t> rkeys(rn);
    for (size_t i = 0; i < rn; ++i) rkeys[i] = static_cast<int64_t>(i);
    for (size_t i = rn - 1; i > 0; --i) {
      std::swap(rkeys[i], rkeys[rng.Uniform(i + 1)]);
    }
    std::vector<int64_t> probes(ln);
    for (size_t i = 0; i < ln; ++i) {
      probes[i] = static_cast<int64_t>(rng.Uniform(4 * rn));
    }
    HashIndexT<int64_t> index(rkeys.data(), rn);
    std::vector<uint32_t> sel, pos;
    auto vec_probe = [&] {
      sel.resize(ln);
      pos.resize(ln);
      size_t o = engine::vec::BatchProbeUnique(index, probes.data(), ln,
                                               sel.data(), pos.data());
      sel.resize(o);
      pos.resize(o);
    };
    auto scalar_probe = [&] {
      sel.clear();
      pos.clear();
      for (size_t i = 0; i < ln; ++i) {
        index.ForEachMatch(probes[i], [&](uint32_t p) {
          sel.push_back(static_cast<uint32_t>(i));
          pos.push_back(p);
        });
      }
    };
    auto outputs_hash = [&] {
      uint64_t h = 0xcbf29ce484222325ull ^ sel.size();
      for (size_t i = 0; i < sel.size(); ++i) {
        h = (h ^ sel[i]) * 0x100000001b3ull;
        h = (h ^ pos[i]) * 0x100000001b3ull;
      }
      return h;
    };
    vec_probe();
    uint64_t vh = outputs_hash();
    scalar_probe();
    if (vh != outputs_hash()) {
      std::fprintf(stderr, "kernel_join_probe output mismatch\n");
      std::abort();
    }
    KernelTiming t = TimeKernelPair(kReps, 4, vec_probe, scalar_probe);
    rows.push_back(MakeKernelRow("kernel_join_probe", t));
  }

  // Grouped sum: 1M int64 values with 30% random nils into 64 groups — the
  // scalar loop's nil branch is unpredictable at that density; the
  // vectorised accumulator multiplies by the validity mask instead.
  {
    const size_t n = 1u << 20;
    const size_t ngroups = 64;
    Rng rng(11003);
    std::vector<int64_t> vals(n);
    std::vector<Oid> gids(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = rng.Uniform(10) < 3 ? NilOf<int64_t>()
                                    : static_cast<int64_t>(rng.Uniform(1000));
      gids[i] = rng.Uniform(ngroups);
    }
    BatPtr vb =
        Bat::DenseHead(Column::Make<int64_t>(TypeTag::kLng, std::move(vals)));
    BatPtr mb = Bat::DenseHead(Column::Make<Oid>(TypeTag::kOid, std::move(gids)));
    BatPtr vr =
        engine::GroupedAggr(AggFn::kSum, vb, mb, ngroups).ValueOrDie();
    BatPtr sr = engine::scalar_ref::GroupedAggr(AggFn::kSum, vb, mb, ngroups)
                    .ValueOrDie();
    if ((KernelChecksum<Oid, int64_t>(vr)) !=
        (KernelChecksum<Oid, int64_t>(sr))) {
      std::fprintf(stderr, "kernel_groupagg output mismatch\n");
      std::abort();
    }
    KernelTiming t = TimeKernelPair(
        kReps, 8,
        [&] { engine::GroupedAggr(AggFn::kSum, vb, mb, ngroups).ValueOrDie(); },
        [&] {
          engine::scalar_ref::GroupedAggr(AggFn::kSum, vb, mb, ngroups)
              .ValueOrDie();
        });
    rows.push_back(MakeKernelRow("kernel_groupagg", t));
  }
  return rows;
}


/// Tracing-overhead ablation: the hot workload at three trace settings —
/// off (the default), 1-in-64 sampling, and always-on — reported as
/// throughput RELATIVE to the untraced run of this same phase. The ratio is
/// machine-independent, so check_regression.py gates it on any host:
/// traced-off must stay at parity (the untraced hot path pays one branch),
/// sampling must stay near parity; always-on is reported but not gated (its
/// cost is proportional to monitored instructions by design).
std::vector<JsonRow> RunTraceAblationPhase(
    Catalog* cat, const std::vector<tpch::QueryTemplate>& templates,
    int workers, int n_queries) {
  struct Setting {
    const char* load;
    uint32_t sample_n;
  };
  const Setting settings[] = {{"none", 0}, {"sampled64", 64}, {"always", 1}};

  Workload w = MakeWorkload("trace", templates, 2, n_queries, 6007);
  std::printf("trace ablation (%d workers, %d queries, hot)\n", workers,
              n_queries);
  std::vector<JsonRow> rows;
  double base_qps = 0;
  for (const Setting& set : settings) {
    Sample s = RunConfig(cat, w, workers, set.sample_n);
    if (set.sample_n == 0) base_qps = s.qps;
    double rel = base_qps > 0 ? s.qps / base_qps : 0;
    std::printf("  %-9s qps=%-8.1f rel=%.3f hit-ratio=%.2f\n", set.load,
                s.qps, rel, s.hit_ratio);
    JsonRow row;
    row.phase = "trace_ablation";
    row.load = set.load;
    row.workers = workers;
    row.hit_ratio = s.hit_ratio;
    row.ratios = {{"rel_qps", rel}};
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (a.rfind("--metrics=", 0) == 0) {
      metrics_path = a.substr(10);
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--metrics <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  auto cat = MakeTpchDb(BenchSf());
  std::vector<tpch::QueryTemplate> templates;
  for (int qn : {4, 11, 12, 18, 19}) templates.push_back(tpch::BuildQuery(qn));

  // One worker: the hot and cold hit ratios are then deterministic.
  std::vector<JsonRow> rows;
  std::printf("hot/cold workloads, 1 worker, best of 3 reps\n");
  std::printf("%-5s %10s %10s\n", "load", "qps", "hit-ratio");
  PrintRule(27);
  for (const Workload& w : {MakeWorkload("hot", templates, 2, 2000, 7001),
                            MakeWorkload("cold", templates, 0, 400, 7002)}) {
    Sample s = RunConfig(cat.get(), w, 1);
    std::printf("%-5s %10.1f %10.2f\n", w.name, s.qps, s.hit_ratio);
    JsonRow row;
    row.phase = "throughput";
    row.load = w.name;
    row.workers = 1;
    row.hit_ratio = s.hit_ratio;
    rows.push_back(row);
  }
  PrintRule(27);

  const int max_workers = EnvMaxWorkers();
  const int workers = std::min(4, max_workers);
  rows.push_back(RunPlanCachePhase(cat.get(), workers, 500));
  rows.push_back(RunMixedDmlPhase(workers, 12, 600, metrics_path));
  rows.push_back(RunBoundedMemoryPhase(cat.get(), templates, workers, 1500));
  for (JsonRow& r : RunKernelPhases()) rows.push_back(std::move(r));
  for (JsonRow& r :
       RunTraceAblationPhase(cat.get(), templates, workers, 1500))
    rows.push_back(std::move(r));

  if (!json_path.empty()) {
    WriteJson(json_path, BenchSf(), max_workers,
              BenchConfig(1).recycler.pool_stripes, rows);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
