// Recycler decision parity under encoded intermediates: compressed pool
// entries (Catalog::BuildEncodings, after which gathers out of encoded
// columns stay encoded) must not change WHAT the recycler does — same
// hits, same admissions, same subsumption reuse, same entry multiset — only
// how many bytes the entries occupy. A fig4-style workload (kKeepAll,
// unlimited budget) replays on two identically-loaded catalogs, one raw and
// one encoded, and every decision statistic must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "core/recycler.h"
#include "core/recycler_optimizer.h"
#include "interp/interpreter.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace recycledb {
namespace {

std::unique_ptr<Catalog> LoadTinyTpch() {
  auto c = std::make_unique<Catalog>();
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.002;
  EXPECT_TRUE(tpch::LoadTpch(c.get(), cfg).ok());
  return c;
}

struct Batch {
  std::vector<tpch::QueryTemplate> templates;
  std::vector<std::pair<int, std::vector<Scalar>>> queries;
};

Batch MakeBatch(const std::vector<int>& qnums, int instances, uint64_t seed) {
  Batch b;
  for (int qn : qnums) b.templates.push_back(tpch::BuildQuery(qn));
  Rng rng(seed);
  for (int i = 0; i < instances; ++i) {
    for (size_t t = 0; t < b.templates.size(); ++t) {
      b.queries.emplace_back(static_cast<int>(t),
                             b.templates[t].gen_params(rng));
    }
  }
  return b;
}

struct RunOutcome {
  RecyclerStats stats;
  std::vector<std::string> content;  ///< signatures, bytes field stripped
  size_t entries = 0;
  size_t bytes = 0;
  size_t encoded_bytes = 0;
  size_t savings = 0;
  std::vector<std::string> answers;  ///< exported values, in query order
};

/// EntrySignature carries owned_bytes, which legitimately differs between
/// raw and encoded runs — that is the point of the encoding. Everything
/// else (opcode, row count, reuse counters, dependency count) must match.
std::string StripBytes(const std::string& sig) {
  static const std::regex kBytes("\\|bytes=[0-9]+");
  return std::regex_replace(sig, kBytes, "");
}

RunOutcome RunBatch(Catalog* cat, const Batch& b) {
  Recycler rec;  // defaults: kKeepAll, unlimited, subsumption on
  Interpreter interp(cat, &rec);
  RunOutcome out;
  for (const auto& [t, params] : b.queries) {
    auto r = interp.Run(b.templates[t].prog, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.answers.push_back(r.value().ToString());
  }
  out.stats = rec.stats();
  const RecyclePool& pool = rec.pool();
  for (const PoolEntry* e : pool.Entries())
    out.content.push_back(StripBytes(RecyclePool::EntrySignature(*e)));
  std::sort(out.content.begin(), out.content.end());
  out.entries = pool.num_entries();
  out.bytes = pool.total_bytes();
  out.encoded_bytes = pool.encoded_bytes();
  out.savings = pool.encoding_savings_bytes();
  return out;
}

TEST(EncodingParityTest, Fig4WorkloadDecisionsUnchangedByEncoding) {
  Batch b = MakeBatch({11, 18, 19}, 5, 42);

  auto raw_cat = LoadTinyTpch();
  ASSERT_FALSE(raw_cat->has_encodings());
  RunOutcome raw = RunBatch(raw_cat.get(), b);

  auto enc_cat = LoadTinyTpch();
  size_t ncols = enc_cat->BuildEncodings();
  EXPECT_GT(ncols, 0u) << "no TPC-H column was encodable";
  ASSERT_TRUE(enc_cat->has_encodings());
  RunOutcome enc = RunBatch(enc_cat.get(), b);

  // Answers are the ground truth: encoding must be invisible to results.
  ASSERT_EQ(raw.answers, enc.answers);

  // Decision statistics replay exactly.
  EXPECT_EQ(raw.stats.monitored, enc.stats.monitored);
  EXPECT_EQ(raw.stats.hits, enc.stats.hits);
  EXPECT_EQ(raw.stats.exact_hits, enc.stats.exact_hits);
  EXPECT_EQ(raw.stats.subsumed_hits, enc.stats.subsumed_hits);
  EXPECT_EQ(raw.stats.combined_hits, enc.stats.combined_hits);
  EXPECT_EQ(raw.stats.admitted, enc.stats.admitted);
  EXPECT_EQ(raw.stats.rejected, enc.stats.rejected);
  EXPECT_EQ(raw.stats.evicted, enc.stats.evicted);
  EXPECT_EQ(raw.entries, enc.entries);
  EXPECT_EQ(raw.content, enc.content);
  EXPECT_GT(enc.stats.hits, 0u);
  EXPECT_GT(enc.stats.subsumed_hits + enc.stats.combined_hits, 0u)
      << "workload never exercised the subsumption path";

  // And the bytes actually shrink — otherwise the encoded run silently
  // fell back to raw intermediates and the parity above proves nothing.
  EXPECT_LT(enc.bytes, raw.bytes);
  EXPECT_GT(enc.encoded_bytes, 0u);
  EXPECT_GT(enc.savings, 0u);
  EXPECT_EQ(raw.encoded_bytes, 0u);
  EXPECT_EQ(raw.savings, 0u);
}

}  // namespace
}  // namespace recycledb
