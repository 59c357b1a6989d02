// Self-test of the benchmark's answer check: recycled results match their
// recycler-free references, and one corrupted result is detected.
//
//   answers_test   (exit code 0 = pass)

#include <cstdio>
#include <string>
#include <vector>

#include "answers.h"
#include "server/query_service.h"
#include "tpch/tpch.h"
#include "workload.h"

namespace {

using recycledb::Bat;
using recycledb::Catalog;
using recycledb::Column;
using recycledb::MalValue;
using recycledb::QueryResult;
using recycledb::Scalar;

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

/// Copies `r` with its first scalar nudged by 1%, or with the last row of
/// its first bat dropped.
QueryResult Corrupt(const QueryResult& r) {
  QueryResult bad = r;
  for (auto& [label, v] : bad.values) {
    if (!v.is_bat()) {
      const Scalar& s = v.scalar();
      v = s.tag() == recycledb::TypeTag::kDbl ? Scalar::Dbl(s.AsDbl() * 1.01)
                                               : Scalar::Lng(s.ToInt64() + 1);
      return bad;
    }
    const auto& b = v.bat();
    if (b->size() > 0) {
      v = Bat::Make(b->head(), b->tail(), b->size() - 1);
      return bad;
    }
  }
  return bad;
}

}  // namespace

int main() {
  Catalog cat;
  recycledb::tpch::TpchConfig tcfg;
  tcfg.scale_factor = 0.002;
  if (!recycledb::tpch::LoadTpch(&cat, tcfg).ok()) {
    std::printf("FAIL: LoadTpch\n");
    return 1;
  }
  recycledb::QueryService svc(&cat);
  recycledb::Session session;

  perfbench::AnswerChecker checker;
  for (int p = 0; p < perfbench::kNumPatterns; ++p) {
    const std::string sql = perfbench::PooledStatement(p, p);
    auto want = perfbench::ReferenceAnswer(&cat, sql);
    Expect(want.ok(), ("reference runs: " + sql).c_str());
    if (!want.ok()) continue;
    // The second submission is answered from the recycle pool.
    for (int round = 0; round < 2; ++round) {
      auto got = svc.Submit(recycledb::Request{sql, &session, {}}).future.get();
      Expect(got.ok() && checker.Check(sql, want.value(), got.value()),
             "recycled result matches its reference");
    }
    auto got = svc.Submit(recycledb::Request{sql, &session, {}}).future.get();
    if (!got.ok()) continue;
    const uint64_t before = checker.mismatches();
    Expect(!checker.Check(sql, want.value(), Corrupt(got.value())),
           "corrupted result is rejected");
    Expect(checker.mismatches() == before + 1, "mismatch is counted");
  }
  Expect(svc.recycler().stats().hits > 0,
         "the pool answered some instructions");

  // A changed group key is a different answer.
  perfbench::Answer a;
  a.labels = {"k", "n"};
  perfbench::Cell k1, k2, n1, n2;
  k1.tag = k2.tag = recycledb::TypeTag::kStr;
  k1.s = "A";
  k2.s = "B";
  n1.tag = n2.tag = recycledb::TypeTag::kLng;
  n1.i = 3;
  n2.i = 4;
  a.rows = {{k1, n1}, {k2, n2}};
  perfbench::Answer c = a;
  c.rows[1][0].s = "C";
  Expect(!perfbench::SameAnswer(a, c), "a changed group key is detected");

  std::printf("%s\n", failures == 0 ? "PASS" : "FAILED");
  return failures == 0 ? 0 : 1;
}
