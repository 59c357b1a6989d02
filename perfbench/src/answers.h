#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "interp/query_result.h"
#include "util/status.h"

namespace perfbench {

/// One result value in comparable form.
struct Cell {
  recycledb::TypeTag tag = recycledb::TypeTag::kVoid;
  int64_t i = 0;   ///< bit/int/lng/oid/date payload
  double d = 0;    ///< dbl payload
  std::string s;   ///< str payload
};

/// A query answer in canonical, order-insensitive form: the export labels
/// plus one row per result position (scalars are one-row columns), rows
/// sorted. When the exported columns differ in length, each column becomes
/// one row of its own sorted cells instead.
struct Answer {
  std::vector<std::string> labels;
  std::vector<std::vector<Cell>> rows;
};

/// Canonicalises a result, whether it came from an in-process run or was
/// decoded off the wire.
Answer Canonicalize(const recycledb::QueryResult& r);

/// Exact on labels, types, row counts, integers and strings; doubles agree
/// to a relative 1e-9 (recycled and recomputed aggregates may sum in a
/// different order).
bool SameAnswer(const Answer& a, const Answer& b);

/// First rows of an answer, for mismatch reports.
std::string Describe(const Answer& a, size_t max_rows = 4);

/// The reference answer: `sql` compiled with sql::CompileSql and run by an
/// Interpreter with no recycler over `cat`. The caller guarantees that no
/// commit runs meanwhile.
recycledb::Result<Answer> ReferenceAnswer(recycledb::Catalog* cat,
                                          const std::string& sql);

/// Compares results against references and counts mismatches; thread-safe.
class AnswerChecker {
 public:
  /// True when `got` matches `want`; otherwise counts a mismatch and logs
  /// the first few to stderr.
  bool Check(const std::string& sql, const Answer& want,
             const recycledb::QueryResult& got);

  uint64_t checked() const { return checked_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> mismatches_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
