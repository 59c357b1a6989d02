// Synthetic drivers for budgeted striped-pool tests: admit fresh results of
// a made-up instruction through a ConcurrentRecycler session, choose bats by
// the stripe they hash to, and replay the skewed load that makes one stripe
// borrow most of the budget until under-share stripes starve (raising the
// pool's pressure epoch).

#ifndef RECYCLEDB_TESTS_POOL_TEST_DRIVER_H_
#define RECYCLEDB_TESTS_POOL_TEST_DRIVER_H_

#include <memory>
#include <set>
#include <vector>

#include "core/concurrent_recycler.h"
#include "mal/plan_builder.h"

namespace recycledb {
namespace testutil {

inline BatPtr FreshBat(size_t n) {
  return Bat::DenseHead(
      Column::Make(TypeTag::kLng, std::vector<int64_t>(n, 1)));
}

/// Synthetic single-threaded pool driver (the pool never executes
/// instructions itself, so opcode/args only need a consistent identity).
/// Holds one query open for its lifetime.
struct SynthDriver {
  Program prog;
  std::unique_ptr<ConcurrentRecycler::Session> session;

  explicit SynthDriver(ConcurrentRecycler* rec) {
    PlanBuilder pb("synth");
    pb.ExportValue(pb.ConstInt(1), "x");
    prog = pb.Build();
    session = rec->NewSession();
    session->BeginQuery(prog);
  }
  ~SynthDriver() { session->EndQuery(); }

  /// Offers (op over `arg`, keyed by `key`); returns true on a pool hit,
  /// otherwise admits a fresh `result_rows`-row result (8 B/row) and, if
  /// `produced` is given, hands that result bat back — feeding it into a
  /// later Step as the argument creates a cross-stripe lineage (children)
  /// edge onto this admission's entry.
  bool Step(const BatPtr& arg, int key, size_t result_rows,
            BatPtr* produced = nullptr) {
    std::vector<MalValue> args{MalValue(arg), MalValue(Scalar::Int(key))};
    RecyclerHook::InstrView view{&prog, key % 7, Opcode::kSelectNotNil, &args};
    std::vector<MalValue> rets;
    if (session->OnEntry(view, &rets)) return true;
    BatPtr out = FreshBat(result_rows);
    if (produced != nullptr) *produced = out;
    std::vector<MalValue> results{MalValue(std::move(out))};
    session->OnExit(view, results, 0.01, {ColumnId{0, 0}});
    return false;
  }
};

/// `n` fresh bats whose Steps land on distinct stripes other than `hot`'s:
/// the cold traffic of the skew tests must never admit into the hot stripe
/// (which stripe a bat hashes to depends on its process-wide id).
inline std::vector<BatPtr> ColdBats(const ConcurrentRecycler& rec,
                                    const BatPtr& hot, size_t n) {
  auto stripe_of = [&rec](const BatPtr& b) {
    std::vector<MalValue> args{MalValue(b), MalValue(Scalar::Int(0))};
    return rec.StripeOf(Opcode::kSelectNotNil, args);
  };
  std::set<size_t> used{stripe_of(hot)};
  std::vector<BatPtr> out;
  while (out.size() < n) {
    BatPtr b = FreshBat(4);
    if (used.insert(stripe_of(b)).second) out.push_back(std::move(b));
  }
  return out;
}

/// An 8-stripe LRU pool bounded at `max_bytes`, without subsumption (the
/// synthetic instructions have no candidates).
inline RecyclerConfig BoundedCfg(size_t max_bytes) {
  RecyclerConfig cfg;
  cfg.pool_stripes = 8;
  cfg.max_bytes = max_bytes;
  cfg.eviction = EvictionKind::kLru;
  cfg.enable_subsumption = false;
  return cfg;
}

/// Skewed stripe load on a BoundedCfg(32 KB) pool (base 4 KB per stripe):
/// one stripe borrows ~28 KB, then six cold stripes admit 2 KB entries each.
/// Their under-base acquisitions starve on the dry ledger and raise
/// pressure; every round also gives the hot stripe an admission at which to
/// shed.
inline void DriveStripeSkew(ConcurrentRecycler* rec) {
  SynthDriver d(rec);
  BatPtr hot = FreshBat(4);
  for (int i = 0; i < 14; ++i) d.Step(hot, i, 256);
  std::vector<BatPtr> cold = ColdBats(*rec, hot, 6);
  for (int round = 0; round < 3; ++round) {
    for (size_t c = 0; c < cold.size(); ++c)
      d.Step(cold[c], 100 + round, 256);
    d.Step(hot, 1000 + round, 256);
  }
}

}  // namespace testutil
}  // namespace recycledb

#endif  // RECYCLEDB_TESTS_POOL_TEST_DRIVER_H_
