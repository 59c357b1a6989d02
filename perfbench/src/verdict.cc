#include "verdict.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

using Seconds = std::vector<double>::const_iterator;

double Mean(Seconds a, Seconds b) {
  double sum = 0;
  for (auto it = a; it != b; ++it) sum += *it;
  return b > a ? sum / static_cast<double>(b - a) : 0;
}

double Median(Seconds a, Seconds b) {
  std::vector<double> v(a, b);
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Apart(double a, double b) {
  const double hi = std::max(a, b);
  return hi > 0 ? std::fabs(a - b) / hi : 0;
}

}  // namespace

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v->size()));
  return (*v)[std::max<size_t>(rank, 1) - 1];
}

double Drift(const std::vector<double>& q) {
  const size_t n = q.size();
  if (n < 2) return 0;
  const Seconds mid = q.begin() + n / 2;
  double d = Apart(Median(q.begin(), mid), Median(mid, q.end()));
  if (n > kLeadSeconds) {
    const Seconds lead = q.begin() + kLeadSeconds;
    d = std::max(d, Apart(Mean(q.begin(), lead), Median(lead, q.end())));
  }
  return d;
}

std::vector<std::string> FailedGuards(const RunFacts& f) {
  std::vector<std::string> out;
  char buf[160];
  if (f.attempted == 0) out.push_back("no operation was attempted");
  if (f.mismatches > 0) out.push_back("answer mismatch");
  if (f.failed > 0) {
    std::snprintf(buf, sizeof(buf), "%llu of %llu operations failed",
                  static_cast<unsigned long long>(f.failed),
                  static_cast<unsigned long long>(f.attempted));
    out.push_back(buf);
  }
  if (f.host_noisy) out.push_back("host stole CPU time during the window");
  const double drift = Drift(f.counted_qps);
  if (drift > kMaxDrift) {
    std::snprintf(buf, sizeof(buf), "window drifted by %.0f%%", drift * 100);
    out.push_back(buf);
  }
  if (f.reads == 0) out.push_back("no SELECT completed in the window");
  if (f.writes == 0) out.push_back("no writer statement in the window");
  if (f.expect_no_evictions && f.evicted != 0)
    out.push_back("pool evicted during the reuse window");
  if (f.expect_evictions && f.evicted == 0)
    out.push_back("ad-hoc window did not evict");
  return out;
}

}  // namespace perfbench
