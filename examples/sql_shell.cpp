// Interactive SQL shell over the concurrent query service: loads TPC-H or
// SkyServer data, runs each line through QueryService::Submit under the
// shell's own Session (shared plan-template cache + shared recycle pool),
// and prints results with per-query timing and recycler statistics.
//
//   ./sql_shell                    # TPC-H at RDB_TPCH_SF (default 0.01)
//   ./sql_shell --db=sky           # SkyServer photoobj/elredshift/dbobjects
//   ./sql_shell --workers=8
//   ./sql_shell --connect=HOST:PORT  # remote mode against recycledb_server
//
// Shell commands:
//   .help            this text
//   .stats           service, plan-cache, and recycle-pool counters
//   .pool [N]        dump the recycle pool head (bytes + last-touch ticks)
//   .plan SELECT ... print the compiled MAL listing without running it
//   .tables          list tables and row counts
//   .autocommit on|off  toggle per-statement COMMIT after DML (default on)
//   .trace on|off    trace every following SELECT (span tree + recycler
//                    decisions); `TRACE SELECT ...` traces one statement
//   .metrics [json|prom]  machine-readable metrics export
//   .quit            exit (EOF works too)
//
// The REPL reads one statement per line: SELECT, INSERT, UPDATE, DELETE, or
// transaction control (BEGIN / COMMIT / ROLLBACK). With autocommit on (the
// default) every DML statement runs as an implicit single-statement
// transaction and commits immediately, which makes the recycle pool react
// per §6.3 — insert-only commits *propagate* (refresh select-over-bind
// entries from the delta), deletes *invalidate*. Inside a transaction
// (explicit BEGIN, or the first DML with autocommit off) statements
// accumulate in the session's private write set — your own SELECTs see them,
// other sessions don't — until COMMIT installs them (or ROLLBACK, including
// the implicit one on quit, discards them).
//
// Queries to try against the TPC-H database (each is one input line;
// wrapped here only to fit the comment):
//
//   select l_returnflag, count(*), sum(l_quantity) from lineitem where
//   l_shipdate <= date '1998-09-02' group by l_returnflag
//
//   select sum(l_extendedprice * l_discount) from lineitem where l_shipdate
//   >= date '1994-01-01' and l_discount between 0.05 and 0.07
//
//   select count(*) from lineitem inner join orders on l_orderkey =
//   o_orderkey where o_orderdate >= date '1995-01-01'
//
//   insert into region values (5, 'atlantis')
//
//   update region set r_name = 'lemuria' where r_regionkey = 5
//
//   delete from region where r_name = 'lemuria'

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "net/client.h"
#include "server/query_service.h"
#include "skyserver/skyserver.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "tpch/tpch.h"
#include "util/timer.h"

using namespace recycledb;  // NOLINT

namespace {

void PrintStats(const QueryService& svc) {
  ServiceStats s = svc.SnapshotStats();
  RecyclerStats rs = svc.recycler().stats();
  std::printf("service:     submitted=%llu completed=%llu failed=%llu\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed));
  std::printf(
      "dml:         inserted=%llu updated=%llu deleted=%llu commits=%llu "
      "(pool: propagated=%llu invalidated=%llu)\n",
      static_cast<unsigned long long>(s.dml_inserted_rows),
      static_cast<unsigned long long>(s.dml_updated_rows),
      static_cast<unsigned long long>(s.dml_deleted_rows),
      static_cast<unsigned long long>(s.dml_commits),
      static_cast<unsigned long long>(s.pool_propagated),
      static_cast<unsigned long long>(s.pool_invalidated));
  std::printf(
      "txn:         begun=%llu committed=%llu rolled-back=%llu "
      "conflicts=%llu\n",
      static_cast<unsigned long long>(s.txn_begun),
      static_cast<unsigned long long>(s.txn_committed),
      static_cast<unsigned long long>(s.txn_rolled_back),
      static_cast<unsigned long long>(s.txn_conflicts));
  std::printf(
      "plan cache:  lookups=%llu hits=%llu text-hits=%llu compiles=%llu "
      "invalidations=%llu evictions=%llu cached=%zu (%zu B) texts=%zu\n",
      static_cast<unsigned long long>(s.plan_lookups),
      static_cast<unsigned long long>(s.plan_hits),
      static_cast<unsigned long long>(s.plan_text_hits),
      static_cast<unsigned long long>(s.plan_compiles),
      static_cast<unsigned long long>(s.plan_invalidations),
      static_cast<unsigned long long>(s.plan_evictions),
      svc.plan_cache().size(), svc.plan_cache().bytes(),
      svc.plan_cache().text_count());
  std::printf(
      "recycler:    monitored=%llu pool-hits=%llu entries=%zu bytes=%zu\n",
      static_cast<unsigned long long>(rs.monitored),
      static_cast<unsigned long long>(rs.hits), svc.recycler().pool_entries(),
      svc.recycler().pool_bytes());
  // Per-stripe occupancy and contention: a healthy hit-heavy workload shows
  // shared acquisitions dwarfing exclusive ones, and entries spread across
  // stripes rather than funnelling into one.
  std::printf("pool:        stripes=%llu excl-locks=%llu shared-probes=%llu "
              "all-stripe-ops=%llu\n",
              static_cast<unsigned long long>(s.pool_stripes),
              static_cast<unsigned long long>(s.pool_excl_locks),
              static_cast<unsigned long long>(s.pool_shared_locks),
              static_cast<unsigned long long>(s.pool_all_stripe_ops));
  if (s.pool_borrows + s.pool_borrow_denied + s.pool_rebalances > 0) {
    std::printf("budget:      borrows=%llu denied=%llu rebalances=%llu\n",
                static_cast<unsigned long long>(s.pool_borrows),
                static_cast<unsigned long long>(s.pool_borrow_denied),
                static_cast<unsigned long long>(s.pool_rebalances));
  }
  std::vector<ConcurrentRecycler::StripeStats> stripes =
      svc.recycler().stripe_stats();
  for (size_t i = 0; i < stripes.size(); ++i) {
    const auto& st = stripes[i];
    if (st.entries == 0 && st.hits == 0 && st.excl_acquisitions == 0) continue;
    std::printf(
        "  stripe %2zu: entries=%-5zu bytes=%-9zu hits=%-7llu "
        "excl=%-6llu shared=%llu",
        i, st.entries, st.bytes, static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.excl_acquisitions),
        static_cast<unsigned long long>(st.shared_acquisitions));
    if (st.budget_base_bytes != 0 || st.budget_held_bytes != 0) {
      std::printf(" budget=%zu/%zuB borrows=%llu rebal=%llu",
                  st.budget_held_bytes, st.budget_base_bytes,
                  static_cast<unsigned long long>(st.borrows),
                  static_cast<unsigned long long>(st.rebalances));
    }
    std::printf("\n");
  }
}

void PrintHelp() {
  std::printf(
      ".help            this text\n"
      ".stats           service, plan-cache, and recycle-pool counters\n"
      ".pool [N]        dump the recycle pool head (per-entry bytes and\n"
      "                 last-touch tick — what eviction decides on)\n"
      ".plan SELECT ... print the compiled MAL listing without running it\n"
      ".tables          list tables and row counts\n"
      ".autocommit on|off  per-statement COMMIT after DML; bare .autocommit\n"
      "                 prints the current setting (default on)\n"
      ".trace on|off    trace every following SELECT: span tree (parse,\n"
      "                 plan, queue, execute) plus per-instruction recycler\n"
      "                 decisions. One statement: TRACE SELECT ...\n"
      ".metrics [json|prom]  metrics export — JSON (with recent governance\n"
      "                 events) or Prometheus text (default json)\n"
      ".quit            exit (an open transaction is rolled back)\n"
      "anything else is parsed as SQL and submitted to the service:\n"
      "  [TRACE] SELECT ... | INSERT INTO t [(cols)] VALUES (...), ... |\n"
      "  UPDATE t SET c = expr, ... [WHERE ...] | DELETE FROM t [WHERE ...]\n"
      "  | BEGIN | COMMIT | ROLLBACK\n");
}

/// Remote mode: the same REPL surface served over the wire protocol.
/// Session state (autocommit, trace) lives on the server via SET_OPTION;
/// results come back as typed result sets, so output matches local mode.
int RunRemote(const std::string& host, int port) {
  net::ClientConfig ccfg;
  ccfg.host = host;
  ccfg.port = static_cast<uint16_t>(port);
  net::Client client;
  Status st = client.Connect(ccfg);
  if (!st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "connected to %s:%d (protocol v%u, window %u). \".help\" lists "
      "commands.\n",
      host.c_str(), port, client.negotiated_version(),
      client.server_max_inflight());

  std::string line;
  while (true) {
    std::printf("sql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    line = line.substr(b);

    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      std::printf(
          ".autocommit on|off  per-statement COMMIT after DML (server side)\n"
          ".trace on|off    trace every following SELECT on the server\n"
          ".metrics [json|prom]  the server's metrics export\n"
          ".ping            round-trip liveness probe\n"
          ".quit            exit\n"
          "anything else is sent to the server as SQL\n");
      continue;
    }
    if (line == ".ping") {
      StopWatch sw;
      st = client.Ping();
      if (st.ok())
        std::printf("pong (%.2f ms)\n", sw.ElapsedSeconds() * 1e3);
      else
        std::printf("error: %s\n", st.ToString().c_str());
      continue;
    }
    if (line.rfind(".autocommit", 0) == 0 || line.rfind(".trace", 0) == 0) {
      bool is_ac = line[1] == 'a';
      std::string arg = line.substr(is_ac ? 11 : 6);
      size_t a = arg.find_first_not_of(" \t");
      arg = a == std::string::npos ? "" : arg.substr(a);
      if (arg != "on" && arg != "off") {
        std::printf("usage: .%s on|off\n", is_ac ? "autocommit" : "trace");
        continue;
      }
      st = client.SetOption(is_ac ? "autocommit" : "trace", arg == "on");
      if (st.ok())
        std::printf("%s is %s\n", is_ac ? "autocommit" : "trace",
                    arg.c_str());
      else
        std::printf("error: %s\n", st.ToString().c_str());
      continue;
    }
    if (line.rfind(".metrics", 0) == 0) {
      std::string arg = line.substr(8);
      size_t a = arg.find_first_not_of(" \t");
      arg = a == std::string::npos ? "" : arg.substr(a);
      if (!arg.empty() && arg != "json" && arg != "prom") {
        std::printf("usage: .metrics [json|prom]\n");
        continue;
      }
      auto m = client.Metrics(/*prometheus=*/arg == "prom");
      if (m.ok())
        std::printf("%s\n", m.value().c_str());
      else
        std::printf("error: %s\n", m.status().ToString().c_str());
      continue;
    }
    if (line[0] == '.') {
      std::printf("%s is not available in remote mode\n",
                  line.substr(0, line.find_first_of(" \t")).c_str());
      continue;
    }

    // SELECT/TRACE goes through Query (decoded result set + optional
    // trace); everything else is DML through Execute, with autocommit
    // applied server-side per the session option.
    bool is_select = true;
    if (auto parsed = sql::ParseStatement(line); parsed.ok())
      is_select = parsed.value().kind == sql::Statement::Kind::kSelect;
    StopWatch sw;
    if (is_select) {
      auto r = client.Query(line);
      double ms = sw.ElapsedSeconds() * 1e3;
      if (!r.ok()) {
        std::printf("error: %s\n", r.status().ToString().c_str());
        continue;
      }
      std::printf("%s(%.2f ms)\n", r.value().result.ToString().c_str(), ms);
      if (!r.value().trace.empty()) std::printf("%s", r.value().trace.c_str());
    } else {
      auto r = client.Execute(line);
      double ms = sw.ElapsedSeconds() * 1e3;
      if (!r.ok()) {
        std::printf("error: %s\n", r.status().ToString().c_str());
        continue;
      }
      std::printf("%s(%.2f ms)\n", r.value().ToString().c_str(), ms);
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db = "tpch";
  double sf = 0.01;
  if (const char* v = std::getenv("RDB_TPCH_SF")) sf = std::atof(v);
  size_t objects = 50000;
  int workers = 4;
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--db=", 5) == 0) db = a + 5;
    else if (std::strncmp(a, "--sf=", 5) == 0) sf = std::atof(a + 5);
    else if (std::strncmp(a, "--objects=", 10) == 0)
      objects = static_cast<size_t>(std::atoll(a + 10));
    else if (std::strncmp(a, "--workers=", 10) == 0) workers = std::atoi(a + 10);
    else if (std::strncmp(a, "--connect=", 10) == 0) connect = a + 10;
    else {
      std::fprintf(stderr,
                   "usage: %s [--db=tpch|sky] [--sf=N] [--objects=N] "
                   "[--workers=N] [--connect=HOST:PORT]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!connect.empty()) {
    size_t colon = connect.rfind(':');
    int port = colon == std::string::npos
                   ? 0
                   : std::atoi(connect.c_str() + colon + 1);
    if (colon == std::string::npos || port <= 0 || port > 65535) {
      std::fprintf(stderr, "--connect wants HOST:PORT, got '%s'\n",
                   connect.c_str());
      return 2;
    }
    return RunRemote(connect.substr(0, colon), port);
  }

  auto cat = std::make_unique<Catalog>();
  std::printf("loading %s...\n", db.c_str());
  Status st;
  if (db == "sky") {
    skyserver::SkyConfig cfg;
    cfg.n_objects = objects;
    st = skyserver::LoadSkyServer(cat.get(), cfg);
  } else {
    tpch::TpchConfig cfg;
    cfg.scale_factor = sf;
    st = tpch::LoadTpch(cat.get(), cfg);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  ServiceConfig cfg;
  cfg.num_workers = workers;
  QueryService svc(std::move(cat), cfg);
  std::printf("ready (%d workers). \".help\" lists shell commands.\n",
              svc.num_workers());

  // The shell's own Session: autocommit, trace-all, and the open
  // transaction live here — exactly what a network connection gets.
  Session session;
  std::string line;
  while (true) {
    std::printf("sql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    line = line.substr(b);

    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      PrintHelp();
      continue;
    }
    if (line == ".stats") {
      PrintStats(svc);
      continue;
    }
    if (line == ".pool" || line.rfind(".pool ", 0) == 0 ||
        line.rfind(".pool\t", 0) == 0) {
      long n = 24;
      std::string arg = line.size() > 5 ? line.substr(5) : "";
      size_t a = arg.find_first_not_of(" \t");
      if (a != std::string::npos) {
        char* end = nullptr;
        n = std::strtol(arg.c_str() + a, &end, 10);
        if (n <= 0 || (end != nullptr && *end != '\0')) {
          std::printf("usage: .pool [max_entries]\n");
          continue;
        }
      }
      std::printf("%s", svc.recycler().DumpPool(static_cast<size_t>(n)).c_str());
      continue;
    }
    if (line == ".tables") {
      for (const char* t :
           {"region", "nation", "supplier", "customer", "part", "partsupp",
            "orders", "lineitem", "photoobj", "elredshift", "dbobjects"}) {
        const Table* tab = svc.catalog()->FindTable(t);
        if (tab != nullptr)
          std::printf("  %-12s %zu rows, %zu columns\n", t, tab->num_rows(),
                      tab->num_columns());
      }
      continue;
    }
    if (line.rfind(".autocommit", 0) == 0) {
      std::string arg = line.substr(11);
      size_t a = arg.find_first_not_of(" \t");
      arg = a == std::string::npos ? "" : arg.substr(a);
      if (arg == "on") {
        session.set_autocommit(true);
      } else if (arg == "off") {
        session.set_autocommit(false);
      } else if (!arg.empty()) {
        std::printf("usage: .autocommit on|off\n");
      }
      std::printf("autocommit is %s\n", session.autocommit() ? "on" : "off");
      continue;
    }
    if (line.rfind(".trace", 0) == 0) {
      std::string arg = line.substr(6);
      size_t a = arg.find_first_not_of(" \t");
      arg = a == std::string::npos ? "" : arg.substr(a);
      if (arg == "on") {
        session.set_trace_all(true);
      } else if (arg == "off") {
        session.set_trace_all(false);
      } else if (!arg.empty()) {
        std::printf("usage: .trace on|off\n");
      }
      std::printf("trace is %s\n", session.trace_all() ? "on" : "off");
      continue;
    }
    if (line.rfind(".metrics", 0) == 0) {
      std::string arg = line.substr(8);
      size_t a = arg.find_first_not_of(" \t");
      arg = a == std::string::npos ? "" : arg.substr(a);
      if (arg.empty() || arg == "json") {
        std::printf("%s\n", svc.DumpMetricsJson().c_str());
      } else if (arg == "prom") {
        std::printf("%s", svc.DumpMetricsPrometheus().c_str());
      } else {
        std::printf("usage: .metrics [json|prom]\n");
      }
      continue;
    }
    if (line.rfind(".plan", 0) == 0) {
      std::string text = line.substr(5);
      auto q = sql::CompileSql(svc.catalog(), text);
      if (!q.ok()) {
        std::printf("error: %s\n", q.status().ToString().c_str());
        continue;
      }
      std::printf("fingerprint: %s\n%s", q.value().fingerprint.c_str(),
                  q.value().plan.prog.ToString(true).c_str());
      continue;
    }

    // The service applies the session's autocommit and trace-all itself:
    // with autocommit on, DML runs as an implicit single-statement
    // transaction (the result carries `committed`); inside a transaction
    // statements stage into the session write set until COMMIT/ROLLBACK.
    StopWatch sw;
    Result<QueryResult> r = svc.Submit(Request{line, &session, {}}).future.get();
    double ms = sw.ElapsedSeconds() * 1e3;
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      continue;
    }
    std::printf("%s(%.2f ms)\n", r.value().ToString().c_str(), ms);
    if (r.value().trace != nullptr)
      std::printf("%s", r.value().trace->ToString().c_str());
  }
  // EOF or .quit with a transaction still open: roll it back explicitly —
  // the write set must not be silently abandoned half-staged, and the user
  // should hear that their uncommitted statements are gone.
  if (session.in_txn()) {
    svc.Submit(Request{"rollback", &session, {}}).future.get();
    std::printf("rolled back the open transaction (uncommitted statements "
                "were discarded)\n");
  }
  std::printf("\n");
  PrintStats(svc);
  return 0;
}
