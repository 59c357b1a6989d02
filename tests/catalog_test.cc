#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "util/rng.h"

namespace recycledb {
namespace {

std::unique_ptr<Catalog> SmallDb() {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("orders", {{"o_orderkey", TypeTag::kOid},
                              {"o_totalprice", TypeTag::kDbl}});
  cat->CreateTable("lineitem", {{"l_orderkey", TypeTag::kOid},
                                {"l_quantity", TypeTag::kInt}});
  EXPECT_TRUE(cat->LoadColumn<Oid>("orders", "o_orderkey", {100, 101, 102},
                                   true, true)
                  .ok());
  EXPECT_TRUE(
      cat->LoadColumn<double>("orders", "o_totalprice", {10.0, 20.0, 30.0})
          .ok());
  EXPECT_TRUE(
      cat->LoadColumn<Oid>("lineitem", "l_orderkey", {101, 100, 101, 102})
          .ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("lineitem", "l_quantity", {1, 2, 3, 4})
                  .ok());
  EXPECT_TRUE(cat->RegisterFkIndex("li_fkey", "lineitem", "l_orderkey",
                                   "orders", "o_orderkey")
                  .ok());
  return cat;
}

TEST(CatalogTest, CreateAndBind) {
  auto cat = SmallDb();
  auto b = cat->BindColumn("orders", "o_totalprice").ValueOrDie();
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(b->TailAt(1), Scalar::Dbl(20.0));
  EXPECT_TRUE(b->head().dense());
  EXPECT_TRUE(b->tail().col->persistent());
}

TEST(CatalogTest, BindIdentityIsStable) {
  auto cat = SmallDb();
  auto a = cat->BindColumn("orders", "o_totalprice").ValueOrDie();
  auto b = cat->BindColumn("orders", "o_totalprice").ValueOrDie();
  EXPECT_EQ(a->id(), b->id()) << "persistent bats must have stable identity";
}

TEST(CatalogTest, MissingObjects) {
  auto cat = SmallDb();
  EXPECT_FALSE(cat->BindColumn("nope", "x").ok());
  EXPECT_FALSE(cat->BindColumn("orders", "nope").ok());
  EXPECT_FALSE(cat->BindIndex("nope").ok());
}

TEST(CatalogTest, RowCountMismatchRejected) {
  Catalog cat;
  cat.CreateTable("t", {{"a", TypeTag::kInt}, {"b", TypeTag::kInt}});
  EXPECT_TRUE(cat.LoadColumn<int32_t>("t", "a", {1, 2}).ok());
  EXPECT_FALSE(cat.LoadColumn<int32_t>("t", "b", {1, 2, 3}).ok());
}

TEST(CatalogTest, FkIndexMapsPositions) {
  auto cat = SmallDb();
  auto idx = cat->BindIndex("li_fkey").ValueOrDie();
  ASSERT_EQ(idx->size(), 4u);
  EXPECT_EQ(idx->TailAt(0), Scalar::OidVal(1));  // 101 -> orders row 1
  EXPECT_EQ(idx->TailAt(1), Scalar::OidVal(0));
  EXPECT_EQ(idx->TailAt(3), Scalar::OidVal(2));
}

TEST(CatalogTest, ColumnIds) {
  auto cat = SmallDb();
  auto a = cat->GetColumnId("orders", "o_orderkey").ValueOrDie();
  auto b = cat->GetColumnId("orders", "o_totalprice").ValueOrDie();
  EXPECT_EQ(a.table, b.table);
  EXPECT_NE(a.col, b.col);
  auto i = cat->GetIndexId("li_fkey").ValueOrDie();
  EXPECT_GE(i.col, kIndexColBase);
}

TEST(CatalogUpdateTest, AppendCommit) {
  auto cat = SmallDb();
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(
      cat->Append(&ws, "orders", {{Scalar::OidVal(103), Scalar::Dbl(40.0)}})
          .ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  auto b = cat->BindColumn("orders", "o_totalprice").ValueOrDie();
  ASSERT_EQ(b->size(), 4u);
  EXPECT_EQ(b->TailAt(3), Scalar::Dbl(40.0));
  EXPECT_TRUE(cat->LastCommitInsertOnly("orders"));
}

TEST(CatalogUpdateTest, DeleteCompacts) {
  auto cat = SmallDb();
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(cat->Delete(&ws, "orders", {1}).ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  auto b = cat->BindColumn("orders", "o_orderkey").ValueOrDie();
  ASSERT_EQ(b->size(), 2u);
  EXPECT_EQ(b->TailAt(0), Scalar::OidVal(100));
  EXPECT_EQ(b->TailAt(1), Scalar::OidVal(102));
  EXPECT_FALSE(cat->LastCommitInsertOnly("orders"));
}

TEST(CatalogUpdateTest, CommitRefreshesBindIdentity) {
  auto cat = SmallDb();
  auto before = cat->BindColumn("orders", "o_totalprice").ValueOrDie();
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(
      cat->Append(&ws, "orders", {{Scalar::OidVal(104), Scalar::Dbl(1.0)}})
          .ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  auto after = cat->BindColumn("orders", "o_totalprice").ValueOrDie();
  EXPECT_NE(before->id(), after->id());
}

TEST(CatalogUpdateTest, IndexRebuiltOnParentUpdate) {
  auto cat = SmallDb();
  // Delete order row 0 (key 100): lineitem rows pointing at 100 become nil;
  // others shift.
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(cat->Delete(&ws, "orders", {0}).ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  auto idx = cat->BindIndex("li_fkey").ValueOrDie();
  EXPECT_EQ(idx->TailAt(0), Scalar::OidVal(0));  // 101 now at row 0
  EXPECT_EQ(idx->TailAt(1), Scalar::OidVal(kNilOid));
}

TEST(CatalogUpdateTest, ListenerReceivesAffectedColumns) {
  auto cat = SmallDb();
  std::vector<ColumnId> seen;
  cat->SetUpdateListener(
      [&](const std::vector<ColumnId>& cols, Catalog::UpdateKind) { seen = cols; });
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(
      cat->Append(&ws, "lineitem", {{Scalar::OidVal(100), Scalar::Int(9)}})
          .ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  // Both lineitem columns + the join index must be reported.
  auto lq = cat->GetColumnId("lineitem", "l_quantity").ValueOrDie();
  auto li = cat->GetIndexId("li_fkey").ValueOrDie();
  EXPECT_NE(std::find(seen.begin(), seen.end(), lq), seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), li), seen.end());
  // Orders columns untouched.
  auto oc = cat->GetColumnId("orders", "o_totalprice").ValueOrDie();
  EXPECT_EQ(std::find(seen.begin(), seen.end(), oc), seen.end());
}

TEST(CatalogUpdateTest, InsertDeltaExposed) {
  auto cat = SmallDb();
  TxnWriteSet ws = cat->BeginWrite();
  ASSERT_TRUE(cat->Append(&ws, "orders",
                          {{Scalar::OidVal(103), Scalar::Dbl(40.0)},
                           {Scalar::OidVal(104), Scalar::Dbl(50.0)}})
                  .ok());
  ASSERT_TRUE(cat->CommitWrite(&ws).ok());
  auto d = cat->LastInsertDelta("orders", "o_totalprice").ValueOrDie();
  ASSERT_EQ(d->size(), 2u);
  EXPECT_EQ(d->HeadAt(0), Scalar::OidVal(3));  // rows continue numbering
  EXPECT_EQ(d->TailAt(1), Scalar::Dbl(50.0));
}

TEST(CatalogUpdateTest, DropTableNotifies) {
  auto cat = SmallDb();
  std::vector<ColumnId> seen;
  cat->SetUpdateListener(
      [&](const std::vector<ColumnId>& cols, Catalog::UpdateKind) { seen = cols; });
  ASSERT_TRUE(cat->DropTable("lineitem").ok());
  EXPECT_GE(seen.size(), 2u);
  EXPECT_EQ(cat->FindTable("lineitem"), nullptr);
  EXPECT_FALSE(cat->BindIndex("li_fkey").ok());
}

// ---------------------------------------------------------------------------
// FK maps: nil keys, and an oracle over commit sequences.
// ---------------------------------------------------------------------------

/// p(p_key oid, p_val int) and c(c_key oid, c_val int) with the index
/// c_p: c.c_key -> p.p_key.
std::unique_ptr<Catalog> FkDb(std::vector<Oid> pkeys, bool sorted_key,
                              std::vector<Oid> ckeys) {
  auto cat = std::make_unique<Catalog>();
  cat->CreateTable("p", {{"p_key", TypeTag::kOid}, {"p_val", TypeTag::kInt}});
  cat->CreateTable("c", {{"c_key", TypeTag::kOid}, {"c_val", TypeTag::kInt}});
  const std::vector<int32_t> pvals(pkeys.size(), 0);
  const std::vector<int32_t> cvals(ckeys.size(), 0);
  EXPECT_TRUE(cat->LoadColumn<Oid>("p", "p_key", std::move(pkeys), sorted_key,
                                   sorted_key)
                  .ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("p", "p_val", pvals).ok());
  EXPECT_TRUE(cat->LoadColumn<Oid>("c", "c_key", std::move(ckeys)).ok());
  EXPECT_TRUE(cat->LoadColumn<int32_t>("c", "c_val", cvals).ok());
  EXPECT_TRUE(cat->RegisterFkIndex("c_p", "c", "c_key", "p", "p_key").ok());
  return cat;
}

std::vector<Oid> IndexValues(const CatalogSnapshot& snap) {
  return snap.BindIndex("c_p").ValueOrDie()->tail().col->Data<Oid>();
}

TEST(CatalogTest, FkIndexNeverMatchesNil) {
  // A nil parent key (sorted last, so the hash path) and an unsorted one.
  for (bool sorted_key : {true, false}) {
    auto cat = FkDb({100, kNilOid}, sorted_key, {kNilOid, 100, 7});
    EXPECT_EQ(IndexValues(*cat->Snapshot()),
              (std::vector<Oid>{kNilOid, 0, kNilOid}))
        << "sorted_key " << sorted_key;
  }
  // No nil parent key: the direct path, probed with a nil child key.
  auto cat = FkDb({100, 101}, true, {kNilOid, 101});
  EXPECT_EQ(IndexValues(*cat->Snapshot()), (std::vector<Oid>{kNilOid, 1}));
}

/// Each child key's first parent row with an equal key; nil never matches.
std::vector<Oid> OracleFkMap(const std::vector<Oid>& child,
                             const std::vector<Oid>& parent) {
  std::vector<Oid> map(child.size(), kNilOid);
  for (size_t i = 0; i < child.size(); ++i) {
    if (child[i] == kNilOid) continue;
    auto it = std::find(parent.begin(), parent.end(), child[i]);
    if (it != parent.end()) map[i] = static_cast<Oid>(it - parent.begin());
  }
  return map;
}

/// Checks `snap`'s c_p index against the oracle over its own key columns;
/// returns whether the parent key took the direct path.
bool ExpectIndexMatchesOracle(const CatalogSnapshot& snap,
                              const std::string& where) {
  const ColumnPtr ck = snap.BindColumn("c", "c_key").ValueOrDie()->tail().col;
  const ColumnPtr pk = snap.BindColumn("p", "p_key").ValueOrDie()->tail().col;
  const auto& cv = ck->Data<Oid>();
  const auto& pv = pk->Data<Oid>();
  EXPECT_EQ(IndexValues(snap), OracleFkMap(cv, pv)) << where;
  return pk->sorted() && pk->key() &&
         DirectSpan(pv.data(), pv.size(), cv.size() + pv.size()) != 0;
}

TEST(CatalogTest, FkIndexMatchesOracleOverCommitSequences) {
  // Parent keys 0..19; child keys drawn from them, nils, and orphans
  // (29, 36, ..., 57) that later parent inserts give a parent.
  std::vector<Oid> pkeys, ckeys;
  for (Oid k = 0; k < 20; ++k) pkeys.push_back(k);
  for (Oid k = 0; k < 40; ++k)
    ckeys.push_back(k % 9 == 0 ? kNilOid : k % 7 == 0 ? 22 + k : k % 20);
  auto cat = FkDb(pkeys, true, ckeys);
  Rng rng(43);
  Oid next_key = 20;
  int direct = 0, hashed = 0, kept = 0, rebuilt = 0;
  auto row = [](Oid key, int32_t val) {
    return std::vector<Scalar>{Scalar::OidVal(key), Scalar::Int(val)};
  };
  for (int step = 0; step < 400; ++step) {
    const std::string where = "step " + std::to_string(step);
    auto before = cat->Snapshot();
    const BatPtr old_idx = before->BindIndex("c_p").ValueOrDie();
    const std::vector<Oid> old_map = IndexValues(*before);
    const auto& pv =
        before->BindColumn("p", "p_key").ValueOrDie()->tail().col->Data<Oid>();
    const size_t prows = pv.size();
    const size_t crows = old_map.size();
    TxnWriteSet ws = cat->BeginWrite();
    // Steps alternate between phases of 50. An ordered phase starts by
    // deleting every parent row out of ascending order and inserts
    // ascending keys only, so the parent key stays sorted and key (the
    // direct path). A disordered phase also inserts smaller, duplicate,
    // nil and far keys (the hash path) and orphans' keys.
    const bool disorder = step / 50 % 2 == 1;
    std::vector<Oid> pdel, cdel;
    std::vector<std::vector<Scalar>> pins, cins;
    const int kind = static_cast<int>(rng.Uniform(10));
    if (!disorder && step % 50 == 0) {
      bool any = false;
      Oid top = 0;  // the largest key kept so far
      for (size_t j = 0; j < prows; ++j) {
        if (pv[j] < 1000000 && (!any || pv[j] > top)) {
          any = true;
          top = pv[j];
        } else {
          pdel.push_back(j);
        }
      }
    } else if (kind == 0 && prows > 4) {
      pdel.push_back(rng.Uniform(prows));
    } else if (kind == 1 && crows > 4) {
      cdel.push_back(rng.Uniform(crows));
      cdel.push_back(rng.Uniform(crows));
    } else if (kind == 2 && prows > 4) {
      // An update of a parent row: deleted, then re-inserted with its key
      // (a new ascending key in an ordered phase).
      const Oid r = rng.Uniform(prows);
      pdel.push_back(r);
      pins.push_back(row(disorder ? pv[r] : next_key++, step));
    } else if (kind == 3 && crows > 0) {
      cdel.push_back(rng.Uniform(crows));
      cins.push_back(row(prows > 0 ? pv[rng.Uniform(prows)] : 5, step));
    }
    const int pinserts = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < pinserts; ++i) {
      const int pick = disorder ? static_cast<int>(rng.Uniform(10)) : -1;
      Oid key = next_key++;
      if (pick == 0) key = 3 + rng.Uniform(next_key);
      if (pick == 1 && prows > 0) key = pv[rng.Uniform(prows)];
      if (pick == 2) key = kNilOid;
      if (pick == 3) key = next_key + 1000000;
      if (pick == 4) key = 29 + 7 * rng.Uniform(5);
      pins.push_back(row(key, step));
    }
    // Child inserts: the newest parent keys most often (the top of the
    // direct span), any parent key, orphans and nils.
    const int cinserts =
        rng.Bernoulli(0.5) ? 0 : 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < cinserts && prows > 0; ++i) {
      const int pick = static_cast<int>(rng.Uniform(8));
      Oid key = pv[prows - 1 - rng.Uniform(std::min<size_t>(prows, 3))];
      if (pick == 0) key = next_key + 7;
      if (pick == 1) key = kNilOid;
      if (pick == 2) key = pv[rng.Uniform(prows)];
      cins.push_back(row(key, step));
    }
    if (!pdel.empty()) ASSERT_TRUE(cat->Delete(&ws, "p", pdel).ok());
    if (!cdel.empty()) ASSERT_TRUE(cat->Delete(&ws, "c", cdel).ok());
    if (!pins.empty()) ASSERT_TRUE(cat->Append(&ws, "p", pins).ok());
    if (!cins.empty()) ASSERT_TRUE(cat->Append(&ws, "c", cins).ok());
    if (ws.Empty()) continue;
    // The in-transaction read view rebuilds the index over its own merge.
    auto overlay = cat->OverlaySnapshot(before, ws).ValueOrDie();
    ExpectIndexMatchesOracle(*overlay, where + " (overlay)");

    ASSERT_TRUE(cat->CommitWrite(&ws).ok()) << where;
    auto after = cat->Snapshot();
    if (ExpectIndexMatchesOracle(*after, where))
      ++direct;
    else
      ++hashed;
    const bool same_bat =
        after->BindIndex("c_p").ValueOrDie()->id() == old_idx->id();
    EXPECT_EQ(same_bat, IndexValues(*after) == old_map) << where;
    ++(same_bat ? kept : rebuilt);
    if (HasFailure()) break;
  }
  // Both builder paths and both identity outcomes were exercised.
  EXPECT_GT(direct, 40);
  EXPECT_GT(hashed, 40);
  EXPECT_GT(kept, 40);
  EXPECT_GT(rebuilt, 40);
}

}  // namespace
}  // namespace recycledb
