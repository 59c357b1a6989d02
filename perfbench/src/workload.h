#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// The writer connection that runs beside the readers, one statement per
/// tick on a fixed schedule (open loop).
enum class WriterKind {
  /// Single-row INSERTs into `region` inside a transaction of
  /// kProbeTxnStatements statements that ends in ROLLBACK. No reader reads
  /// region and nothing commits, so it measures statement latency under the
  /// read load without touching the readers' pool entries or snapshots.
  kProbe,
  /// The tpch_rw mix over orders: BEGIN ... COMMIT transactions of
  /// kTxnStatements statements each, mostly insert-only batches (§6.3
  /// propagation), some with an UPDATE or a DELETE of the writer's own rows
  /// (invalidation).
  kOrders,
};

/// Sizes and shape of one workload.
struct WorkloadSpec {
  const char* name;
  double scale_factor;
  int reader_conns;   ///< closed-loop SELECT connections
  int workers;        ///< QueryService worker threads
  size_t pool_budget_bytes;
  /// Distinct statements per pattern of the finite population; 0 draws
  /// fresh literals for every query (tpch_adhoc).
  int per_pattern;
  WriterKind writer;
  double writer_period_ms;
};

/// Zipf skew over the population ranks.
constexpr double kZipfS = 1.0;

/// tpch_adhoc answer-checks every Nth query of each connection.
constexpr uint64_t kAdhocCheckEvery = 8;

/// The workloads by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Number of TPC-H-style query patterns: Q6 revenue sum, Q1 grouped
/// summary, lineitem⋈orders count, orders priority histogram, orders sum.
constexpr int kNumPatterns = 5;

/// Statement `i` of `pattern`'s small literal pool (i < 6; the reuse
/// population).
std::string PooledStatement(int pattern, int i);

/// One statement of `pattern` with literals drawn uniformly over continuous
/// date, discount, quantity and price ranges (tpch_adhoc).
std::string FreshStatement(int pattern, recycledb::Rng& rng);

/// The finite reuse population: the first `per_pattern` statements of each
/// pattern's pool, in rank order (rank 0 is the most popular).
std::vector<std::string> ReusePopulation(uint64_t seed, int per_pattern);

/// Zipf(s) sampler over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(recycledb::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Statements per writer transaction (kOrders).
constexpr uint64_t kTxnStatements = 5;
/// Statements per rolled-back writer transaction (kProbe).
constexpr uint64_t kProbeTxnStatements = 40;

/// The statement of writer tick `tick`. `next_key` is the next unused
/// o_orderkey (kOrders) or r_regionkey (kProbe) and advances past the keys
/// the statement inserts; `own_base` is the first key the writer ever
/// inserts.
std::string WriterStatement(WriterKind kind, uint64_t tick, uint64_t own_base,
                            uint64_t* next_key, recycledb::Rng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
