#include "workload.h"

#include <algorithm>
#include <cmath>

#include "util/date.h"
#include "util/str.h"

namespace perfbench {

using recycledb::DateFromYmd;
using recycledb::DateT;
using recycledb::DateToString;
using recycledb::Rng;
using recycledb::StrFormat;

namespace {

// Pool budgets: tpch_reuse and tpch_rw hold their whole population (about
// 77 MB of intermediates at SF 0.01) with room to spare; tpch_adhoc's budget
// is far below its intermediate volume, so every query admits and evicts.
// tpch_reuse has three readers: a fourth oversubscribed the four vCPUs and
// its throughput moved by a fifth between runs. tpch_adhoc runs two
// workers: at one, its per-query tail moved by a quarter between runs.
// tpch_rw commits 2.5 times a second (5 statements per transaction, so
// COMMITs are a fifth of the writer's statements and write_p90_ms is their
// median): faster commits made the readers' re-computation waves overlap
// the next commit, whose stale declines fed back into bimodal throughput.
constexpr size_t kMiB = size_t{1} << 20;

const WorkloadSpec kWorkloads[] = {
    {"tpch_reuse", 0.01, 3, 1, 128 * kMiB, 6, WriterKind::kProbe, 25.0},
    {"tpch_adhoc", 0.01, 4, 2, 16 * kMiB, 0, WriterKind::kProbe, 25.0},
    {"tpch_rw", 0.01, 3, 1, 128 * kMiB, 6, WriterKind::kOrders, 80.0},
};

const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};

std::string Date(int y, int m, int d) {
  return DateToString(DateFromYmd(y, m, d));
}

/// Uniform day in [lo, hi).
DateT DayBetween(Rng& rng, DateT lo, DateT hi) {
  return lo + static_cast<DateT>(rng.Uniform(static_cast<uint64_t>(hi - lo)));
}

int Pick(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.UniformRange(lo, hi));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::string PooledStatement(int pattern, int i) {
  switch (pattern) {
    case 0: {  // Q6 revenue sum
      const int y = 1993 + i % 3;
      const double d = 0.03 + 0.02 * (i / 3 % 2);
      return StrFormat(
          "select sum(l_extendedprice * l_discount) from lineitem where "
          "l_shipdate >= date '%d-01-01' and l_shipdate < date '%d-01-01' "
          "and l_discount between %.2f and %.2f and l_quantity < 24",
          y, y + 1, d - 0.01, d + 0.01);
    }
    case 1:  // Q1 grouped summary
      return StrFormat(
          "select l_returnflag, l_linestatus, sum(l_quantity), "
          "sum(l_extendedprice), count(*) from lineitem where l_shipdate <= "
          "date '%s' group by l_returnflag, l_linestatus",
          Date(1998, 2 + 2 * (i % 6), 1).c_str());
    case 2: {  // lineitem ⋈ orders count over a half year
      const int y = 1993 + i / 2 % 3;
      const bool h1 = i % 2 == 0;
      return StrFormat(
          "select count(*) from lineitem inner join orders on l_orderkey = "
          "o_orderkey where o_orderdate >= date '%s' and o_orderdate < date "
          "'%s'",
          Date(y, h1 ? 1 : 7, 1).c_str(),
          Date(h1 ? y : y + 1, h1 ? 7 : 1, 1).c_str());
    }
    case 3: {  // orders priority histogram over two months
      const int y = 1993 + i / 3 % 2;
      const int m = 1 + 3 * (i % 3);
      return StrFormat(
          "select o_orderpriority, count(*) from orders where o_orderdate "
          "between date '%s' and date '%s' group by o_orderpriority",
          Date(y, m, 1).c_str(), Date(y, m + 2, 1).c_str());
    }
    default:  // orders sum since a half-year boundary
      return StrFormat(
          "select sum(o_totalprice) from orders where o_orderdate >= date "
          "'%s'",
          Date(1993 + i / 2 % 3, i % 2 == 0 ? 1 : 7, 1).c_str());
  }
}

std::string FreshStatement(int pattern, Rng& rng) {
  const DateT kLo = DateFromYmd(1992, 1, 1);
  const DateT kHi = DateFromYmd(1998, 8, 1);
  switch (pattern) {
    case 0: {
      const DateT from = DayBetween(rng, kLo, kHi - 365);
      const DateT to = from + Pick(rng, 90, 365);
      const double lo = rng.UniformDouble(0.0, 0.08);
      return StrFormat(
          "select sum(l_extendedprice * l_discount) from lineitem where "
          "l_shipdate >= date '%s' and l_shipdate < date '%s' and l_discount "
          "between %.4f and %.4f and l_quantity < %d",
          DateToString(from).c_str(), DateToString(to).c_str(), lo,
          lo + rng.UniformDouble(0.005, 0.03), Pick(rng, 10, 50));
    }
    case 1:
      return StrFormat(
          "select l_returnflag, l_linestatus, sum(l_quantity), "
          "sum(l_extendedprice), count(*) from lineitem where l_shipdate <= "
          "date '%s' group by l_returnflag, l_linestatus",
          DateToString(DayBetween(rng, DateFromYmd(1995, 1, 1), kHi)).c_str());
    case 2: {
      const DateT from = DayBetween(rng, kLo, kHi - 365);
      return StrFormat(
          "select count(*) from lineitem inner join orders on l_orderkey = "
          "o_orderkey where o_orderdate >= date '%s' and o_orderdate < date "
          "'%s'",
          DateToString(from).c_str(),
          DateToString(from + Pick(rng, 30, 365)).c_str());
    }
    case 3: {
      const DateT from = DayBetween(rng, kLo, kHi - 120);
      return StrFormat(
          "select o_orderpriority, count(*) from orders where o_orderdate "
          "between date '%s' and date '%s' group by o_orderpriority",
          DateToString(from).c_str(),
          DateToString(from + Pick(rng, 30, 120)).c_str());
    }
    default:
      return StrFormat(
          "select sum(o_totalprice) from orders where o_orderdate >= date "
          "'%s' and o_totalprice < %.2f",
          DateToString(DayBetween(rng, kLo, kHi)).c_str(),
          rng.UniformDouble(50000.0, 400000.0));
  }
}

std::vector<std::string> ReusePopulation(uint64_t seed, int per_pattern) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  // Each pattern's pool in a seeded order: the seed decides which literals
  // are hot, while the population itself stays the same.
  std::vector<std::vector<std::string>> by_pattern(kNumPatterns);
  for (int p = 0; p < kNumPatterns; ++p) {
    for (int i = 0; i < per_pattern; ++i)
      by_pattern[p].push_back(PooledStatement(p, i));
    for (size_t i = by_pattern[p].size(); i > 1; --i)
      std::swap(by_pattern[p][i - 1], by_pattern[p][rng.Uniform(i)]);
  }
  // Ranks interleave the patterns (rank r has pattern r % kNumPatterns), so
  // every pattern carries the same popularity mass whatever the seed.
  std::vector<std::string> pop;
  for (int i = 0; i < per_pattern; ++i)
    for (int p = 0; p < kNumPatterns; ++p) pop.push_back(by_pattern[p][i]);
  return pop;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t i = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

std::string WriterStatement(WriterKind kind, uint64_t tick,
                            uint64_t own_base, uint64_t* next_key, Rng& rng) {
  if (kind == WriterKind::kProbe) {
    // A commit here ran the recycler's update listener against the readers'
    // pool under its exclusive lock, and write_p90_ms on tpch_adhoc moved
    // by a fifth between runs; commits are tpch_rw's to measure.
    const uint64_t slot = tick % kProbeTxnStatements;
    if (slot == 0) return "begin";
    if (slot == kProbeTxnStatements - 1) return "rollback";
    return StrFormat("insert into region values (%llu, 'PERFBENCH')",
                     static_cast<unsigned long long>((*next_key)++));
  }
  // One transaction per kTxnStatements ticks: BEGIN, a first statement that
  // sets the transaction's kind, INSERT batches, COMMIT. Three in five
  // transactions are insert-only (§6.3 propagation); the others UPDATE or
  // DELETE the writer's own rows (invalidation).
  const uint64_t slot = tick % kTxnStatements;
  const uint64_t txn = tick / kTxnStatements;
  const auto base = static_cast<unsigned long long>(own_base);
  if (slot == 0) return "begin";
  if (slot == kTxnStatements - 1) return "commit";
  if (slot == 1 && txn % 5 == 3)
    return StrFormat(
        "update orders set o_totalprice = o_totalprice + 1.5 where "
        "o_orderkey >= %llu",
        base);
  if (slot == 1 && txn % 5 == 4)
    return StrFormat("delete from orders where o_orderkey >= %llu", base);
  std::string sql = "insert into orders values ";
  const DateT lo = DateFromYmd(1992, 1, 1);
  for (int r = 0; r < 2; ++r) {
    if (r > 0) sql += ", ";
    sql += StrFormat(
        "(%llu, %d, 'O', %.2f, date '%s', '%s', 'perfbench')",
        static_cast<unsigned long long>((*next_key)++), Pick(rng, 0, 999),
        rng.UniformDouble(1000.0, 400000.0),
        DateToString(DayBetween(rng, lo, DateFromYmd(1998, 8, 1))).c_str(),
        kPriorities[rng.Uniform(5)]);
  }
  return sql;
}

}  // namespace perfbench
