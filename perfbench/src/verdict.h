#ifndef PERFBENCH_VERDICT_H_
#define PERFBENCH_VERDICT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A window whose throughput drifted by more than this share (see Drift) is
/// not steady: its numbers are not reported. Over about eighty runs of the
/// three workloads without host steal, Drift reached 0.25; a pool filling
/// at a third of the steady rate for one second shows as 0.33, for two as
/// 0.67.
constexpr double kMaxDrift = 0.3;
/// Drift compares the mean throughput of this many leading seconds against
/// the rest, so a pool still filling for a second or two shows.
constexpr size_t kLeadSeconds = 2;

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double p);

/// How far the per-second throughput of a window moved, as a share of the
/// larger side: the larger of (a) the mean of the first kLeadSeconds
/// seconds against the median of the rest, which sees a slow start, and
/// (b) the median of the first half against that of the second, which
/// sees a sustained shift. A dip of a second or two mid-window is neither.
double Drift(const std::vector<double>& per_second);

/// What a run observed, for the verdict.
struct RunFacts {
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< errors, refusals and wrong answers
  uint64_t mismatches = 0;  ///< wrong answers among `failed`
  /// Completions in each counted second of the window, in order.
  std::vector<double> counted_qps;
  /// Fewer clean seconds than asked for turned up before the window's
  /// limit: the host stole CPU time.
  bool host_noisy = false;
  size_t reads = 0;   ///< SELECT latencies in the counted seconds
  size_t writes = 0;  ///< writer latencies in the counted seconds
  bool expect_no_evictions = false;  ///< the pool holds the population
  bool expect_evictions = false;     ///< the pool is below the volume
  uint64_t evicted = 0;              ///< evictions in the window
};

/// Why the run's numbers cannot be reported; empty when they can.
std::vector<std::string> FailedGuards(const RunFacts& f);

}  // namespace perfbench

#endif  // PERFBENCH_VERDICT_H_
