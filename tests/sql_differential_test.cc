// Differential test of the planner's range folding and parent-side N:1
// predicates under recycling: a few hundred fresh statements run against a
// default-config QueryService with a 2 MB pool, so singleton and combined
// subsumption fire, and every answer must equal a recycler-free
// Interpreter's under perfbench's canonicalising comparator. Both run the
// same plan, so every count(*) is also checked against a row-at-a-time
// oracle that shares no code with the planner.
// Every other statement runs on the test thread against the service's own
// shared pool, behind a hook that records the bats it sees; every
// subset-lattice edge between two recorded bats must be a true head-set
// subset. Every pool result's sorted/key flags must hold for its values,
// since joins and fetches choose their kernels on them.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "interp/interpreter.h"
#include "perfbench/src/answers.h"
#include "perfbench/src/workload.h"
#include "server/query_service.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "testing/flag_oracle.h"
#include "tpch/tpch.h"
#include "util/date.h"
#include "util/rng.h"
#include "util/str.h"

namespace recycledb {
namespace {

/// Forwards to a pool session and records every bat that crosses the hook,
/// operands and results. The current query's bats are held; older ones
/// only weakly, so the pool alone decides what stays alive.
class RecordingHook : public RecyclerHook {
 public:
  explicit RecordingHook(RecyclerHook* inner) : inner_(inner) {}

  void BeginQuery(const Program& prog) override {
    held_.clear();
    inner_->BeginQuery(prog);
  }
  void EndQuery() override { inner_->EndQuery(); }
  bool OnEntry(const InstrView& instr,
               std::vector<MalValue>* results) override {
    Record(*instr.args);
    bool hit = inner_->OnEntry(instr, results);
    if (hit) Record(*results);
    return hit;
  }
  void OnExit(const InstrView& instr, const std::vector<MalValue>& results,
              double cpu_ms, const std::vector<ColumnId>& deps) override {
    Record(*instr.args);
    Record(results);
    inner_->OnExit(instr, results, cpu_ms, deps);
  }

  /// The recorded bat with this id, or null if never seen or since freed.
  BatPtr Find(uint64_t id) const {
    auto it = seen_.find(id);
    return it == seen_.end() ? nullptr : it->second.lock();
  }

 private:
  void Record(const std::vector<MalValue>& vals) {
    for (const MalValue& v : vals) {
      if (!v.is_bat()) continue;
      seen_[v.bat()->id()] = v.bat();
      held_.push_back(v.bat());
    }
  }

  RecyclerHook* inner_;
  std::unordered_map<uint64_t, std::weak_ptr<const Bat>> seen_;
  std::vector<BatPtr> held_;
};

struct ScalarHash {
  size_t operator()(const Scalar& s) const { return s.Hash(); }
};

bool HeadsSubset(const Bat& sub, const Bat& super) {
  std::unordered_set<Scalar, ScalarHash> heads;
  for (size_t i = 0; i < super.size(); ++i) heads.insert(super.HeadAt(i));
  for (size_t i = 0; i < sub.size(); ++i)
    if (heads.count(sub.HeadAt(i)) == 0) return false;
  return true;
}

/// `text` matches the LIKE `pattern`, where `%` is any run of characters.
bool LikeMatch(const char* text, const char* pattern) {
  if (*pattern == '\0') return *text == '\0';
  if (*pattern == '%')
    return LikeMatch(text, pattern + 1) ||
           (*text != '\0' && LikeMatch(text + 1, pattern));
  return *text == *pattern && LikeMatch(text + 1, pattern + 1);
}

/// A literal as a value of a column of type `t`.
Scalar AsValue(const sql::Literal& lit, TypeTag t) {
  switch (lit.kind) {
    case sql::Literal::Kind::kInt:
      return t == TypeTag::kDbl ? Scalar::Dbl(static_cast<double>(lit.i))
                                : Scalar::Int(static_cast<int32_t>(lit.i));
    case sql::Literal::Kind::kFloat:
      return Scalar::Dbl(lit.f);
    case sql::Literal::Kind::kString:
      return Scalar::Str(lit.s);
    case sql::Literal::Kind::kDate:
      return Scalar::DateVal(lit.d);
  }
  return Scalar();
}

/// The rows of the base table that the statement's WHERE keeps, found one
/// row at a time. A column of a joined table is read through the FK
/// indexes (lineitem -> orders -> customer), and an inner join drops rows
/// whose hop is nil.
std::vector<size_t> OracleRows(Catalog* cat, const std::string& text) {
  sql::SelectStmt stmt = sql::ParseSelect(text).ValueOrDie();
  // tables[d] is the d-th table of the join chain; hops[d - 1] maps its
  // child's rows to its rows.
  std::vector<std::string> tables = {stmt.table};
  std::vector<BatPtr> hops;
  for (const sql::JoinClause& j : stmt.joins) {
    const char* index = tables.back() == "lineitem" ? "li_orders" : "ord_cust";
    hops.push_back(cat->BindIndex(index).ValueOrDie());
    tables.push_back(j.table);
  }
  // A column's prefix names its table: l_, o_, c_.
  std::vector<BatPtr> cols;
  std::vector<size_t> level;
  for (const sql::Predicate& p : stmt.where) {
    size_t d = 0;
    while (tables[d][0] != p.col.column[0]) ++d;
    level.push_back(d);
    cols.push_back(cat->BindColumn(tables[d], p.col.column).ValueOrDie());
  }
  std::vector<size_t> rows(tables.size());
  std::vector<size_t> kept;
  for (size_t r = 0; r < cat->FindTable(stmt.table)->num_rows(); ++r) {
    bool keep = true;
    rows[0] = r;
    for (size_t d = 1; d < rows.size() && keep; ++d) {
      Oid next = hops[d - 1]->TailAt(rows[d - 1]).AsOid();
      keep = next != kNilOid;
      rows[d] = next;
    }
    for (size_t k = 0; k < stmt.where.size() && keep; ++k) {
      const sql::Predicate& p = stmt.where[k];
      Scalar v = cols[k]->TailAt(rows[level[k]]);
      TypeTag t = cols[k]->tail().LogicalType();
      switch (p.kind) {
        case sql::Predicate::Kind::kCompare: {
          int c = v.Compare(AsValue(p.value, t));
          switch (p.op) {
            case sql::CmpOp::kEq:
              keep = c == 0;
              break;
            case sql::CmpOp::kNe:
              keep = c != 0;
              break;
            case sql::CmpOp::kLt:
              keep = c < 0;
              break;
            case sql::CmpOp::kLe:
              keep = c <= 0;
              break;
            case sql::CmpOp::kGt:
              keep = c > 0;
              break;
            case sql::CmpOp::kGe:
              keep = c >= 0;
              break;
          }
          break;
        }
        case sql::Predicate::Kind::kBetween:
          keep = v.Compare(AsValue(p.lo, t)) >= 0 &&
                 v.Compare(AsValue(p.hi, t)) <= 0;
          break;
        case sql::Predicate::Kind::kLike:
        case sql::Predicate::Kind::kNotLike:
          keep = LikeMatch(v.AsStr().c_str(), p.value.s.c_str()) ==
                 (p.kind == sql::Predicate::Kind::kLike);
          break;
      }
    }
    if (keep) kept.push_back(r);
  }
  return kept;
}

int64_t OracleCount(Catalog* cat, const std::string& text) {
  return static_cast<int64_t>(OracleRows(cat, text).size());
}

/// Checks a `select a, b, count(*), sum(c) ... group by a, b` over one
/// table against a row-at-a-time grouping of the oracle's rows.
void CheckGroupOracle(Catalog* cat, const std::string& text,
                      const QueryResult& got) {
  sql::SelectStmt stmt = sql::ParseSelect(text).ValueOrDie();
  ASSERT_EQ(stmt.group_by.size(), 2u) << text;
  auto col = [&](const std::string& name) {
    return cat->BindColumn(stmt.table, name).ValueOrDie();
  };
  BatPtr k1 = col(stmt.group_by[0].column), k2 = col(stmt.group_by[1].column);
  BatPtr qty = col("l_quantity");
  std::map<std::pair<std::string, std::string>, std::pair<int64_t, int64_t>>
      want;
  for (size_t r : OracleRows(cat, text)) {
    auto& g = want[{k1->TailAt(r).AsStr(), k2->TailAt(r).AsStr()}];
    ++g.first;
    g.second += qty->TailAt(r).AsInt();
  }
  std::map<std::pair<std::string, std::string>, std::pair<int64_t, int64_t>>
      have;
  BatPtr g1 = got.Find(stmt.group_by[0].column)->bat();
  BatPtr g2 = got.Find(stmt.group_by[1].column)->bat();
  BatPtr cnt = got.Find("count")->bat();
  BatPtr sum = got.Find("sum_l_quantity")->bat();
  for (size_t i = 0; i < g1->size(); ++i) {
    have[{g1->TailAt(i).AsStr(), g2->TailAt(i).AsStr()}] = {
        cnt->TailAt(i).AsLng(), sum->TailAt(i).AsLng()};
  }
  EXPECT_EQ(have, want) << text;
}

/// Checks a `select s from t where ... order by s [desc] limit k` over a
/// string column: the returned sequence is the oracle's strings, sorted,
/// cut at k.
void CheckOrderOracle(Catalog* cat, const std::string& text,
                      const QueryResult& got) {
  sql::SelectStmt stmt = sql::ParseSelect(text).ValueOrDie();
  BatPtr c = cat->BindColumn(stmt.table, stmt.order_by.name).ValueOrDie();
  std::vector<std::string> want;
  for (size_t r : OracleRows(cat, text)) want.push_back(c->TailAt(r).AsStr());
  std::sort(want.begin(), want.end());
  if (!stmt.order_by.asc) std::reverse(want.begin(), want.end());
  if (stmt.limit >= 0 && want.size() > static_cast<size_t>(stmt.limit))
    want.resize(static_cast<size_t>(stmt.limit));
  BatPtr b = got.Find(stmt.order_by.name)->bat();
  std::vector<std::string> have;
  for (size_t i = 0; i < b->size(); ++i) have.push_back(b->TailAt(i).AsStr());
  EXPECT_EQ(have, want) << text;
}

const char* const kJoin =
    "select count(*) from lineitem inner join orders on l_orderkey = "
    "o_orderkey where ";

std::string Day(DateT d) { return "date '" + DateToString(d) + "'"; }

/// A fresh statement of pattern `p`: perfbench's five ad-hoc patterns, then
/// the same kinds of range as BETWEEN, in reversed order and with
/// strict/inclusive mixes, an inverted range, a duplicate same-side bound,
/// `<>` and NOT LIKE on orders columns through the join, predicates two
/// hops away on customer, bounds on different columns that must not fold
/// together, and string predicates, a two-string GROUP BY and ORDER BY on
/// strings, which the oracles check independently of the string kernels.
std::string Statement(int p, Rng& rng) {
  if (p < perfbench::kNumPatterns) return perfbench::FreshStatement(p, rng);
  const DateT kLo = DateFromYmd(1992, 1, 1);
  const DateT kHi = DateFromYmd(1998, 8, 1);
  const DateT from =
      kLo + static_cast<DateT>(rng.Uniform(static_cast<uint64_t>(kHi - kLo)));
  const DateT to = from + static_cast<DateT>(rng.UniformRange(30, 365));
  const char* gt = rng.Bernoulli(0.5) ? ">" : ">=";
  const char* lt = rng.Bernoulli(0.5) ? "<" : "<=";
  switch (p) {
    case 5:
      return StrFormat(
          "select count(*), sum(l_extendedprice) from lineitem inner join "
          "orders on l_orderkey = o_orderkey where l_quantity < %d and "
          "o_orderdate between %s and %s",
          static_cast<int>(rng.UniformRange(10, 50)), Day(from).c_str(),
          Day(to).c_str());
    case 6:
      return StrFormat("%so_orderdate %s %s and o_orderdate %s %s", kJoin, lt,
                       Day(to).c_str(), gt, Day(from).c_str());
    case 7:
      return StrFormat(
          "select sum(l_extendedprice * l_discount) from lineitem where "
          "l_shipdate %s %s and l_quantity < %d and l_shipdate %s %s",
          lt, Day(to).c_str(), static_cast<int>(rng.UniformRange(10, 50)), gt,
          Day(from).c_str());
    case 8:  // inverted: the lower bound lies above the upper one
      return StrFormat(
          "select count(*), sum(l_quantity) from lineitem where l_shipdate "
          "%s %s and l_shipdate %s %s",
          gt, Day(to).c_str(), lt, Day(from).c_str());
    case 9:
      return StrFormat(
          "%so_orderdate >= %s and o_orderdate %s %s and o_orderdate < %s",
          kJoin, Day(from).c_str(), gt,
          Day(from + static_cast<DateT>(rng.UniformRange(0, 60))).c_str(),
          Day(to).c_str());
    case 10:
      return StrFormat(
          "select count(*), sum(l_extendedprice) from lineitem inner join "
          "orders on l_orderkey = o_orderkey where o_orderpriority <> '%s' "
          "and o_orderstatus not like '%s' and o_orderdate %s %s and "
          "o_orderdate %s %s",
          rng.Bernoulli(0.5) ? "1-URGENT" : "5-LOW",
          rng.Bernoulli(0.5) ? "F%" : "O%", gt, Day(from).c_str(), lt,
          Day(to).c_str());
    case 11:  // two hops: predicates on customer through orders
      return StrFormat(
          "select count(*), sum(l_quantity) from lineitem inner join orders "
          "on l_orderkey = o_orderkey inner join customer on o_custkey = "
          "c_custkey where c_mktsegment <> '%s' and c_acctbal %s %.2f and "
          "o_orderdate %s %s and c_acctbal %s %.2f",
          rng.Bernoulli(0.5) ? "BUILDING" : "MACHINERY", gt,
          rng.UniformDouble(-1000.0, 4000.0), lt, Day(to).c_str(), lt,
          rng.UniformDouble(4000.0, 10000.0));
    case 13:
      return StrFormat(
          "select count(*) from lineitem where l_returnflag = '%s' and "
          "l_shipdate %s %s",
          rng.Bernoulli(0.5) ? "R" : (rng.Bernoulli(0.5) ? "N" : "X"), lt,
          Day(to).c_str());
    case 14: {
      static const char* const kModes[] = {"AIR",  "FOB",     "MAIL", "RAIL",
                                           "REG",  "REG AIR", "SHIP", "TRUCK",
                                           "ZZZ"};
      const char* a = kModes[rng.Uniform(9)];
      const char* b = kModes[rng.Uniform(9)];
      return StrFormat(
          "select count(*) from lineitem where l_shipmode between '%s' and "
          "'%s' and l_quantity %s %d",
          a, b, gt, static_cast<int>(rng.UniformRange(5, 40)));
    }
    case 15: {
      static const char* const kWords[] = {"special", "requests", "pinto",
                                           "foxes",   "quick",    "zebra"};
      return StrFormat("%so_comment like '%%%s%%' and o_orderdate %s %s", kJoin,
                       kWords[rng.Uniform(6)], gt, Day(from).c_str());
    }
    case 16:  // Q1-shaped: two string group keys
      return StrFormat(
          "select l_returnflag, l_linestatus, count(*), sum(l_quantity) from "
          "lineitem where l_shipdate %s %s group by l_returnflag, "
          "l_linestatus",
          lt, Day(to).c_str());
    case 17: {
      const char* c = rng.Bernoulli(0.5) ? "o_comment" : "o_orderpriority";
      return StrFormat(
          "select %s from orders where o_orderdate between %s and %s order "
          "by %s%s limit %d",
          c, Day(from).c_str(), Day(to).c_str(), c,
          rng.Bernoulli(0.5) ? "" : " desc",
          static_cast<int>(rng.UniformRange(1, 60)));
    }
    default:  // one-sided bounds on different columns stay apart
      return StrFormat(
          "select count(*), sum(l_extendedprice) from lineitem where "
          "l_quantity %s %d and l_linenumber %s %d and l_shipdate %s %s and "
          "l_commitdate %s %s",
          gt, static_cast<int>(rng.UniformRange(5, 30)), lt,
          static_cast<int>(rng.UniformRange(2, 7)), lt, Day(to).c_str(), gt,
          Day(from).c_str());
  }
}

constexpr int kPatterns = 18;

TEST(SqlDifferentialTest, FoldedAndParentSidePlansMatchAPlainInterpreter) {
  Catalog cat;
  tpch::TpchConfig tcfg;
  tcfg.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(&cat, tcfg).ok());

  ServiceConfig cfg;
  cfg.recycler.max_bytes = size_t{2} << 20;
  QueryService svc(&cat, cfg);
  Session sess;
  auto pool_session = svc.recycler().NewSession();
  RecordingHook hook(pool_session.get());
  Interpreter hooked(&cat, &hook);

  Rng rng(38);
  std::set<std::pair<uint64_t, uint64_t>> checked;
  std::unordered_set<uint64_t> flagged;
  for (int i = 0; i < 360; ++i) {
    const std::string sql = Statement(i % kPatterns, rng);
    auto want = perfbench::ReferenceAnswer(&cat, sql);
    ASSERT_TRUE(want.ok()) << sql << "\n" << want.status().ToString();
    Result<QueryResult> got = Status::Internal("not run");
    if (i % 2 == 0) {
      got = testutil::RunSql(&svc, &sess, sql);
    } else {
      auto q = sql::CompileSql(&cat, sql);
      ASSERT_TRUE(q.ok()) << sql << "\n" << q.status().ToString();
      got = hooked.Run(q.value().plan.prog, q.value().params);
    }
    ASSERT_TRUE(got.ok()) << sql << "\n" << got.status().ToString();
    const perfbench::Answer answer = perfbench::Canonicalize(got.value());
    ASSERT_TRUE(perfbench::SameAnswer(answer, want.value()))
        << sql << "\nrecycled: " << perfbench::Describe(answer)
        << "\nreference: " << perfbench::Describe(want.value());
    const perfbench::Answer& ref = want.value();
    if (ref.rows.size() == 1 && ref.labels[0] == "count")
      EXPECT_EQ(ref.rows[0][0].i, OracleCount(&cat, sql)) << sql;
    if (i % kPatterns == 16) CheckGroupOracle(&cat, sql, got.value());
    if (i % kPatterns == 17) CheckOrderOracle(&cat, sql, got.value());

    // Pool results are immutable, so each is checked once, when it
    // first appears.
    for (const BatPtr& b : svc.recycler().ResultBats()) {
      if (!flagged.insert(b->id()).second) continue;
      EXPECT_EQ(oracle::BatFlagError(*b), "")
          << "pool result " << b->id() << ", after " << sql;
    }
    for (const auto& edge : svc.recycler().SubsetEdges()) {
      if (checked.count(edge) != 0) continue;
      BatPtr sub = hook.Find(edge.first), super = hook.Find(edge.second);
      if (sub == nullptr || super == nullptr) continue;
      checked.insert(edge);
      EXPECT_TRUE(HeadsSubset(*sub, *super))
          << "lattice edge " << edge.first << " <= " << edge.second
          << " is not a head-set subset, after " << sql;
    }
  }
  EXPECT_GT(svc.recycler().stats().combined_hits, 0u);
  EXPECT_GT(svc.recycler().stats().subsumed_hits, 0u);
  EXPECT_GT(checked.size(), 0u);
}

// A statement text seen before binds without parsing: every pattern,
// submitted twice with the same text, answers the same, and the second
// submission is a text hit.
TEST(SqlDifferentialTest, RepeatedTextIsATextHitWithTheSameAnswer) {
  Catalog cat;
  tpch::TpchConfig tcfg;
  tcfg.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(&cat, tcfg).ok());
  QueryService svc(&cat, ServiceConfig{});
  Session sess;
  Rng rng(45);
  for (int p = 0; p < kPatterns; ++p) {
    const std::string sql = Statement(p, rng);
    auto first = testutil::RunSql(&svc, &sess, sql);
    ASSERT_TRUE(first.ok()) << sql << "\n" << first.status().ToString();
    const uint64_t text_hits = svc.SnapshotStats().plan_text_hits;
    auto second = testutil::RunSql(&svc, &sess, sql);
    ASSERT_TRUE(second.ok()) << sql << "\n" << second.status().ToString();
    EXPECT_EQ(svc.SnapshotStats().plan_text_hits, text_hits + 1) << sql;
    EXPECT_TRUE(perfbench::SameAnswer(perfbench::Canonicalize(first.value()),
                                      perfbench::Canonicalize(second.value())))
        << sql;
    EXPECT_EQ(first.value().ToString(), second.value().ToString()) << sql;
    auto want = perfbench::ReferenceAnswer(&cat, sql);
    ASSERT_TRUE(want.ok()) << sql;
    EXPECT_TRUE(perfbench::SameAnswer(perfbench::Canonicalize(second.value()),
                                      want.value()))
        << sql;
  }
}

}  // namespace
}  // namespace recycledb
