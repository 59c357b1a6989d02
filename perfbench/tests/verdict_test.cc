// Self-test of the benchmark's run verdict: a run with a failed operation,
// a drifted window or a noisy host is not reported; a steady, clean run is.
//
//   verdict_test   (exit code 0 = pass)

#include <cstdio>
#include <vector>

#include "verdict.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

/// Ten seconds around 20,000 completions each, within ±4%.
std::vector<double> SteadySeconds() {
  return {20000, 20600, 19300, 20100, 19800, 20700, 19400, 20200, 19900, 20300};
}

/// A clean reuse run over SteadySeconds().
perfbench::RunFacts CleanRun() {
  perfbench::RunFacts f;
  f.counted_qps = SteadySeconds();
  f.attempted = 200000;
  f.reads = 200000;
  f.writes = 400;
  f.expect_no_evictions = true;
  return f;
}

}  // namespace

int main() {
  using perfbench::FailedGuards;
  using perfbench::RunFacts;

  Expect(FailedGuards(CleanRun()).empty(), "a steady, clean run is reported");

  RunFacts f = CleanRun();
  f.failed = 1;
  Expect(!FailedGuards(f).empty(), "one failed operation fails the run");

  f = CleanRun();
  f.failed = f.mismatches = 1;
  Expect(!FailedGuards(f).empty(), "one wrong answer fails the run");

  f = CleanRun();
  f.writes = 0;
  Expect(!FailedGuards(f).empty(), "a window without writer latencies fails");

  f = CleanRun();
  f.host_noisy = true;
  Expect(!FailedGuards(f).empty(), "a window with host steal fails");

  // The pool still filling: the first two seconds at a third of the rate.
  f = CleanRun();
  f.counted_qps[0] /= 3;
  f.counted_qps[1] /= 3;
  Expect(perfbench::Drift(f.counted_qps) > perfbench::kMaxDrift,
         "a two-second slow start is drift");
  Expect(!FailedGuards(f).empty(), "a two-second slow start fails the run");

  f = CleanRun();
  f.counted_qps[0] /= 3;
  Expect(!FailedGuards(f).empty(), "a one-second slow start fails the run");

  // Throughput falling by a third over the second half.
  f = CleanRun();
  for (size_t i = 5; i < f.counted_qps.size(); ++i) f.counted_qps[i] *= 0.66;
  Expect(!FailedGuards(f).empty(), "a slower second half fails the run");

  // One second at half the rate mid-window is not drift.
  f = CleanRun();
  f.counted_qps[5] /= 2;
  Expect(FailedGuards(f).empty(), "a one-second dip mid-window is reported");

  f = CleanRun();
  f.evicted = 3;
  Expect(!FailedGuards(f).empty(), "evictions in the reuse window fail it");

  f = CleanRun();
  f.expect_no_evictions = false;
  f.expect_evictions = true;
  Expect(!FailedGuards(f).empty(), "an ad-hoc window without evictions fails");

  std::vector<double> v = {5, 1, 4, 2, 3};
  Expect(perfbench::Percentile(&v, 50) == 3 && perfbench::Percentile(&v, 99) == 5,
         "nearest-rank percentile");

  std::printf("%s\n", failures == 0 ? "PASS" : "FAILED");
  return failures == 0 ? 0 : 1;
}
