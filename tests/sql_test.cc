// SQL front end: lexer/parser/planner correctness, normalisation
// (fingerprints), clean error statuses on every bad-input path, and —
// via the query service — recycler hit/miss parity with the hand-built
// SkyServer/TPC-H templates.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "server/query_service.h"
#include "skyserver/skyserver.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "tpch/tpch.h"
#include "util/str.h"

namespace recycledb {
namespace {

// ---------------------------------------------------------------------------
// Small hand-loaded schema: emp (N:1) dept through the emp_dept FK index.
// ---------------------------------------------------------------------------
class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cat_ = std::make_unique<Catalog>();
    cat_->CreateTable("dept", {{"d_id", TypeTag::kOid},
                               {"d_name", TypeTag::kStr}});
    ASSERT_TRUE(cat_->LoadColumn<Oid>("dept", "d_id", {0, 1, 2}, true, true)
                    .ok());
    ASSERT_TRUE(cat_->LoadColumn<std::string>("dept", "d_name",
                                              {"eng", "sales", "hr"})
                    .ok());

    cat_->CreateTable("emp", {{"e_id", TypeTag::kOid},
                              {"e_name", TypeTag::kStr},
                              {"e_dept", TypeTag::kOid},
                              {"e_salary", TypeTag::kDbl},
                              {"e_age", TypeTag::kInt},
                              {"e_hired", TypeTag::kDate}});
    ASSERT_TRUE(
        cat_->LoadColumn<Oid>("emp", "e_id", {0, 1, 2, 3, 4, 5}, true, true)
            .ok());
    ASSERT_TRUE(cat_->LoadColumn<std::string>(
                        "emp", "e_name",
                        {"ann", "bob", "cho", "dan", "eve", "flo"})
                    .ok());
    ASSERT_TRUE(cat_->LoadColumn<Oid>("emp", "e_dept", {0, 0, 1, 1, 2, 0})
                    .ok());
    ASSERT_TRUE(cat_->LoadColumn<double>(
                        "emp", "e_salary",
                        {100.0, 200.0, 300.0, 400.0, 500.0, 600.0})
                    .ok());
    ASSERT_TRUE(
        cat_->LoadColumn<int32_t>("emp", "e_age", {25, 30, 35, 40, 45, 50})
            .ok());
    ASSERT_TRUE(cat_->LoadColumn<int32_t>(
                        "emp", "e_hired",
                        {DateFromYmd(2019, 1, 1), DateFromYmd(2020, 6, 1),
                         DateFromYmd(2021, 3, 1), DateFromYmd(2021, 9, 1),
                         DateFromYmd(2022, 2, 1), DateFromYmd(2023, 7, 1)})
                    .ok());
    ASSERT_TRUE(
        cat_->RegisterFkIndex("emp_dept", "emp", "e_dept", "dept", "d_id")
            .ok());
  }

  Result<QueryResult> Run(const std::string& text) {
    auto q = sql::CompileSql(cat_.get(), text);
    if (!q.ok()) return q.status();
    Interpreter interp(cat_.get());
    return interp.Run(q.value().plan.prog, q.value().params);
  }

  Status CompileStatus(const std::string& text) {
    auto q = sql::CompileSql(cat_.get(), text);
    return q.ok() ? Status::OK() : q.status();
  }

  static std::vector<double> Dbls(const QueryResult& r, const char* label) {
    const MalValue* v = r.Find(label);
    EXPECT_NE(v, nullptr) << label;
    std::vector<double> out;
    if (v == nullptr || !v->is_bat()) return out;
    for (size_t i = 0; i < v->bat()->size(); ++i)
      out.push_back(v->bat()->TailAt(i).AsDbl());
    return out;
  }

  static std::vector<std::string> Strs(const QueryResult& r,
                                       const char* label) {
    const MalValue* v = r.Find(label);
    EXPECT_NE(v, nullptr) << label;
    std::vector<std::string> out;
    if (v == nullptr || !v->is_bat()) return out;
    for (size_t i = 0; i < v->bat()->size(); ++i)
      out.push_back(v->bat()->TailAt(i).AsStr());
    return out;
  }

  std::unique_ptr<Catalog> cat_;
};

TEST_F(SqlTest, ProjectionWithRangePredicate) {
  auto r = Run("select e_name, e_salary from emp where e_salary > 350.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"dan", "eve", "flo"}));
  EXPECT_EQ(Dbls(r.value(), "e_salary"),
            (std::vector<double>{400.0, 500.0, 600.0}));
}

TEST_F(SqlTest, EqualityAndConjunction) {
  auto r = Run(
      "select e_name from emp where e_dept = 0 and e_age between 26 and 51");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"bob", "flo"}));
}

TEST_F(SqlTest, LikeAndNotLike) {
  auto r = Run("select e_name from emp where e_name like '%o%'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"bob", "cho", "flo"}));

  auto r2 = Run("select e_name from emp where e_name not like '%o%'");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(Strs(r2.value(), "e_name"),
            (std::vector<std::string>{"ann", "dan", "eve"}));
}

TEST_F(SqlTest, NotEqualAndFlippedComparison) {
  auto r = Run("select count(*) from emp where e_name <> 'ann'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 5);

  // literal-on-the-left normalises to column-on-the-left
  auto r2 = Run("select count(*) from emp where 350.0 < e_salary");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value().Find("count")->scalar().ToInt64(), 3);
}

TEST_F(SqlTest, DatePredicate) {
  auto r = Run(
      "select count(*) from emp where e_hired >= date '2021-01-01' and "
      "e_hired < date '2022-01-01'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 2);
}

TEST_F(SqlTest, GlobalAggregates) {
  auto r = Run(
      "select count(*), sum(e_salary), min(e_age), max(e_age), avg(e_salary) "
      "from emp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 6);
  EXPECT_DOUBLE_EQ(r.value().Find("sum_e_salary")->scalar().ToDouble(), 2100.0);
  EXPECT_EQ(r.value().Find("min_e_age")->scalar().ToInt64(), 25);
  EXPECT_EQ(r.value().Find("max_e_age")->scalar().ToInt64(), 50);
  EXPECT_DOUBLE_EQ(r.value().Find("avg_e_salary")->scalar().ToDouble(), 350.0);
}

TEST_F(SqlTest, GroupByWithAggregates) {
  auto r = Run(
      "select e_dept, count(*), sum(e_salary) from emp group by e_dept");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MalValue* counts = r.value().Find("count");
  ASSERT_NE(counts, nullptr);
  ASSERT_EQ(counts->bat()->size(), 3u);
  // groups appear in first-occurrence order: dept 0, 1, 2
  EXPECT_EQ(counts->bat()->TailAt(0).ToInt64(), 3);
  EXPECT_EQ(counts->bat()->TailAt(1).ToInt64(), 2);
  EXPECT_EQ(counts->bat()->TailAt(2).ToInt64(), 1);
  EXPECT_EQ(Dbls(r.value(), "sum_e_salary"),
            (std::vector<double>{900.0, 700.0, 500.0}));
}

TEST_F(SqlTest, ArithmeticExpression) {
  auto r = Run("select sum(e_salary * 0.5) from emp where e_dept = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r.value().Find("sum_0")->scalar().ToDouble(), 250.0);

  // the revenue idiom: literal-minus-column inside a product
  auto r3 = Run(
      "select sum(e_salary * (1 - e_salary / 1000)) as adj from emp "
      "where e_dept = 2");
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_DOUBLE_EQ(r3.value().Find("adj")->scalar().ToDouble(),
                   500.0 * (1.0 - 0.5));

  auto r2 = Run("select e_salary / 2 as half from emp where e_id = 1");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(Dbls(r2.value(), "half"), (std::vector<double>{100.0}));
}

TEST_F(SqlTest, JoinThroughFkIndex) {
  auto r = Run(
      "select e_name, d_name from emp inner join dept on e_dept = d_id "
      "where d_name = 'sales'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"cho", "dan"}));
  EXPECT_EQ(Strs(r.value(), "d_name"),
            (std::vector<std::string>{"sales", "sales"}));
}

TEST_F(SqlTest, JoinWithAliasesAndGroupBy) {
  auto r = Run(
      "select d.d_name, count(*) from emp e join dept d on e.e_dept = d.d_id "
      "group by d.d_name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "d_name"),
            (std::vector<std::string>{"eng", "sales", "hr"}));
  const MalValue* c = r.value().Find("count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->bat()->TailAt(0).ToInt64(), 3);
}

TEST_F(SqlTest, InnerJoinExcludesOrphanedRows) {
  // A child row whose FK has no parent maps to nil in the join index; the
  // join must drop it even when no parent column is fetched, and parent
  // and child output columns must stay row-aligned.
  cat_->CreateTable("p2", {{"p_id", TypeTag::kOid}, {"p_n", TypeTag::kStr}});
  ASSERT_TRUE(cat_->LoadColumn<Oid>("p2", "p_id", {0, 1}, true, true).ok());
  ASSERT_TRUE(cat_->LoadColumn<std::string>("p2", "p_n", {"x", "y"}).ok());
  cat_->CreateTable("c2", {{"c_fk", TypeTag::kOid}, {"c_n", TypeTag::kStr}});
  ASSERT_TRUE(cat_->LoadColumn<Oid>("c2", "c_fk", {1, 9, 0}).ok());
  ASSERT_TRUE(
      cat_->LoadColumn<std::string>("c2", "c_n", {"a", "orphan", "b"}).ok());
  ASSERT_TRUE(cat_->RegisterFkIndex("c2_p2", "c2", "c_fk", "p2", "p_id").ok());

  auto r = Run("select count(*) from c2 inner join p2 on c_fk = p_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 2);  // not 3

  auto r2 = Run("select c_n, p_n from c2 inner join p2 on c_fk = p_id");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(Strs(r2.value(), "c_n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(Strs(r2.value(), "p_n"), (std::vector<std::string>{"y", "x"}));
}

TEST_F(SqlTest, OrderByAndLimit) {
  auto r = Run("select e_salary from emp order by e_salary limit 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Dbls(r.value(), "e_salary"), (std::vector<double>{100.0, 200.0}));
}

TEST_F(SqlTest, OrderByRealignsEveryColumn) {
  // d_name is not in row order (eng, sales, hr): sorting by it must carry
  // the other columns through the same permutation, not leave them behind.
  auto r = Run("select d_id, d_name from dept order by d_name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "d_name"),
            (std::vector<std::string>{"eng", "hr", "sales"}));
  const MalValue* ids = r.value().Find("d_id");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->bat()->size(), 3u);
  EXPECT_EQ(ids->bat()->TailAt(0).AsOid(), 0u);  // eng
  EXPECT_EQ(ids->bat()->TailAt(1).AsOid(), 2u);  // hr
  EXPECT_EQ(ids->bat()->TailAt(2).AsOid(), 1u);  // sales

  // ... and a LIMIT slices the same (sorted) rows in every column.
  auto r2 = Run("select d_id, d_name from dept order by d_name limit 1");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(Strs(r2.value(), "d_name"), (std::vector<std::string>{"eng"}));
  EXPECT_EQ(r2.value().Find("d_id")->bat()->TailAt(0).AsOid(), 0u);
}

TEST_F(SqlTest, OrderByDescWithLimit) {
  auto r = Run("select e_salary from emp order by e_salary desc limit 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Dbls(r.value(), "e_salary"), (std::vector<double>{600.0, 500.0}));
}

TEST_F(SqlTest, OrderByDescRealignsEveryColumn) {
  // DESC must reverse the sort order AND carry the other columns through
  // the reversed permutation.
  auto r = Run("select d_id, d_name from dept order by d_name desc");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "d_name"),
            (std::vector<std::string>{"sales", "hr", "eng"}));
  const MalValue* ids = r.value().Find("d_id");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->bat()->size(), 3u);
  EXPECT_EQ(ids->bat()->TailAt(0).AsOid(), 1u);  // sales
  EXPECT_EQ(ids->bat()->TailAt(1).AsOid(), 2u);  // hr
  EXPECT_EQ(ids->bat()->TailAt(2).AsOid(), 0u);  // eng

  // ASC and DESC over the same query text must not be conflated: the
  // fingerprints differ, so a plan cache keyed on them keeps both.
  auto asc = sql::ParseSelect("select d_name from dept order by d_name");
  auto desc =
      sql::ParseSelect("select d_name from dept order by d_name desc");
  ASSERT_TRUE(asc.ok() && desc.ok());
  EXPECT_NE(sql::Fingerprint(asc.value()), sql::Fingerprint(desc.value()));
}

TEST_F(SqlTest, OrderByDescAlignsGroupedAggregates) {
  auto r = Run(
      "select e_dept, sum(e_salary) as total from emp group by e_dept "
      "order by total desc");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // totals: dept0=900, dept1=700, dept2=500 -> descending 900, 700, 500
  EXPECT_EQ(Dbls(r.value(), "total"),
            (std::vector<double>{900.0, 700.0, 500.0}));
  const MalValue* depts = r.value().Find("e_dept");
  ASSERT_NE(depts, nullptr);
  EXPECT_EQ(depts->bat()->TailAt(0).AsOid(), 0u);
  EXPECT_EQ(depts->bat()->TailAt(1).AsOid(), 1u);
  EXPECT_EQ(depts->bat()->TailAt(2).AsOid(), 2u);
}

TEST_F(SqlTest, OrderByAlignsGroupedAggregates) {
  auto r = Run(
      "select e_dept, sum(e_salary) as total from emp group by e_dept "
      "order by total");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // totals: dept0=900, dept1=700, dept2=500 -> sorted 500, 700, 900
  EXPECT_EQ(Dbls(r.value(), "total"),
            (std::vector<double>{500.0, 700.0, 900.0}));
  const MalValue* depts = r.value().Find("e_dept");
  ASSERT_NE(depts, nullptr);
  EXPECT_EQ(depts->bat()->TailAt(0).AsOid(), 2u);
  EXPECT_EQ(depts->bat()->TailAt(1).AsOid(), 1u);
  EXPECT_EQ(depts->bat()->TailAt(2).AsOid(), 0u);
}

TEST_F(SqlTest, SelectStar) {
  auto r = Run("select * from dept");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().Find("d_id"), nullptr);
  EXPECT_EQ(Strs(r.value(), "d_name"),
            (std::vector<std::string>{"eng", "sales", "hr"}));
}

TEST_F(SqlTest, TerminatorAndCommentsLex) {
  auto r = Run("select count(*) from emp; -- trailing note");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("count")->scalar().ToInt64(), 6);
  EXPECT_FALSE(Run("select count(*) from emp; select 1").ok());
}

TEST_F(SqlTest, EmptyResultIsClean) {
  auto r = Run("select e_name from emp where e_salary > 1000.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("e_name")->bat()->size(), 0u);
}

// ---------------------------------------------------------------------------
// Normalisation: same pattern, different literals => one fingerprint.
// ---------------------------------------------------------------------------

TEST_F(SqlTest, FingerprintNormalisesLiterals) {
  auto a = sql::ParseSelect(
      "select e_name from emp where e_salary > 350.0 and e_age between 20 "
      "and 30");
  auto b = sql::ParseSelect(
      "SELECT e_name FROM emp WHERE e_salary > 9.5 AND e_age BETWEEN 40 AND "
      "60");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(sql::Fingerprint(a.value()), sql::Fingerprint(b.value()));
}

TEST_F(SqlTest, FingerprintKeepsLiteralKind) {
  // Literal *kinds* stay in the fingerprint: a plan compiled from an
  // integer literal must not capture (and then reject or type-confuse) a
  // statement of the same shape with an unlike-typed literal.
  auto a = sql::ParseSelect("select d_name from dept where d_name = 'x'");
  auto b = sql::ParseSelect("select d_name from dept where d_name = 7");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(sql::Fingerprint(a.value()), sql::Fingerprint(b.value()));

  ServiceConfig cfg;
  cfg.num_workers = 1;
  QueryService svc(cat_.get(), cfg);
  Session sess;
  // int and float literals coerce differently but both are valid against a
  // dbl column; the kind-typed fingerprints keep them in separate entries.
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, "select e_name from emp where e_salary > 150").ok());
  auto r = testutil::RunSql(&svc, &sess, "select e_name from emp where e_salary > 150.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(svc.SnapshotStats().plan_compiles, 2u);
  // ... while a statement that cannot take the column's type still fails
  // cleanly rather than poisoning or borrowing a cached entry.
  auto bad = testutil::RunSql(&svc, &sess, "select e_name from emp where e_salary > 'rich'");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeMismatch);
}

TEST_F(SqlTest, FingerprintKeepsStructure) {
  auto a = sql::ParseSelect("select e_name from emp where e_age > 30");
  auto b = sql::ParseSelect("select e_name from emp where e_age >= 30");
  auto c = sql::ParseSelect("select e_name from emp where e_age > 30 limit 5");
  auto d = sql::ParseSelect("select e_name from emp where e_age > 30 limit 9");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_NE(sql::Fingerprint(a.value()), sql::Fingerprint(b.value()));
  EXPECT_NE(sql::Fingerprint(a.value()), sql::Fingerprint(c.value()));
  // LIMIT counts compile to constants, so they stay in the fingerprint.
  EXPECT_NE(sql::Fingerprint(c.value()), sql::Fingerprint(d.value()));
}

TEST_F(SqlTest, BindLiteralsMatchesCompileOrder) {
  auto q = sql::CompileSql(
      cat_.get(),
      "select sum(e_salary * 0.1) from emp where e_age between 30 and "
      "40 and e_name like 'd%'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto stmt = sql::ParseSelect(
      "select sum(e_salary * 0.75) from emp where e_age between 26 and "
      "51 and e_name like 'f%'");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(sql::Fingerprint(stmt.value()), q.value().fingerprint);
  auto params =
      sql::BindLiterals(stmt.value(), q.value().plan.param_types);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  ASSERT_EQ(params.value().size(), q.value().params.size());
  Interpreter interp(cat_.get());
  auto r = interp.Run(q.value().plan.prog, params.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r.value().Find("sum_0")->scalar().ToDouble(), 450.0);
}

// ---------------------------------------------------------------------------
// Error paths: every malformed/unsupported input returns a clean Status.
// ---------------------------------------------------------------------------

TEST_F(SqlTest, UnknownTableAndColumn) {
  EXPECT_EQ(CompileStatus("select x from nosuch").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(CompileStatus("select nosuch from emp").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(CompileStatus("select nosuch.e_name from emp").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(CompileStatus("select e_name from emp where nosuch = 1").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      CompileStatus("select e_name from emp group by nosuch").code(),
      StatusCode::kNotFound);
}

TEST_F(SqlTest, TypeMismatches) {
  EXPECT_EQ(CompileStatus("select * from emp where e_age = 'old'").code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(CompileStatus("select * from emp where e_name > 5").code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(CompileStatus("select * from emp where e_salary like 'x%'").code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(
      CompileStatus("select * from emp where e_hired = '2021-01-01'").code(),
      StatusCode::kTypeMismatch);  // needs a DATE literal
  EXPECT_EQ(CompileStatus("select sum(e_name) from emp").code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(CompileStatus("select sum(e_name + 1) from emp").code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(CompileStatus("select * from emp where e_age = 1.5").code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(CompileStatus("select * from emp where e_id = -3").code(),
            StatusCode::kOutOfRange);  // negative literal on an oid column
}

TEST_F(SqlTest, MalformedLiterals) {
  EXPECT_EQ(CompileStatus("select * from emp where e_name = 'oops").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      CompileStatus("select * from emp where e_hired = date 'nope'").code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(CompileStatus("select * from emp where e_age = 12abc").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, UnsupportedSyntax) {
  EXPECT_EQ(CompileStatus("select e_name from emp, dept").code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(
      CompileStatus("select e_name from emp where e_dept = d_id").code(),
      StatusCode::kNotImplemented);
  // FK direction: dept is the parent; joining the child the wrong way round
  EXPECT_EQ(CompileStatus("select * from dept join emp on e_dept = d_id")
                .code(),
            StatusCode::kNotImplemented);
  EXPECT_NE(CompileStatus("select e_name from emp order by nosuch").code(),
            StatusCode::kOk);
  // qualified ORDER BY refs are rejected (labels are unqualified)
  EXPECT_EQ(
      CompileStatus("select e_name from emp order by x.e_name").code(),
      StatusCode::kInvalidArgument);
  // a duplicated label makes ORDER BY ambiguous
  EXPECT_EQ(CompileStatus("select e_age as s, e_salary as s from emp "
                          "order by s")
                .code(),
            StatusCode::kInvalidArgument);
  // literal select items would silently change the result cardinality
  EXPECT_EQ(CompileStatus("select e_name, 5 from emp").code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(CompileStatus("select 5 from emp").code(),
            StatusCode::kNotImplemented);
  // aggregates over column-free arguments must be clean errors, not a
  // run-time scalar-where-bat-expected crash
  EXPECT_EQ(CompileStatus("select sum(5) from emp").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompileStatus("select e_dept, count(1 + 2) from emp "
                          "group by e_dept")
                .code(),
            StatusCode::kInvalidArgument);
  // outer/cross joins must not silently degrade to INNER JOIN
  EXPECT_EQ(CompileStatus("select count(*) from emp left join dept on "
                          "e_dept = d_id")
                .code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(CompileStatus("select count(*) from emp right join dept on "
                          "e_dept = d_id")
                .code(),
            StatusCode::kNotImplemented);
  EXPECT_NE(CompileStatus("select sum(count(*)) from emp").code(),
            StatusCode::kOk);
  EXPECT_NE(CompileStatus("select 1 + 2 from emp").code(), StatusCode::kOk);
  EXPECT_NE(CompileStatus("select e_name, count(*) from emp").code(),
            StatusCode::kOk);
  EXPECT_NE(
      CompileStatus("select e_salary from emp group by e_dept").code(),
      StatusCode::kOk);
  EXPECT_NE(CompileStatus("").code(), StatusCode::kOk);
  EXPECT_NE(CompileStatus("select e_name from emp garbage trailing").code(),
            StatusCode::kOk);
  // no FK index between the tables at all
  EXPECT_EQ(
      CompileStatus("select * from emp join dept on e_id = d_id").code(),
      StatusCode::kNotFound);
}

TEST_F(SqlTest, AmbiguousColumnNeedsQualifier) {
  cat_->CreateTable("emp2", {{"e_name", TypeTag::kStr}});
  ASSERT_TRUE(cat_->LoadColumn<std::string>("emp2", "e_name", {"zed"}).ok());
  // Both emp and emp2 have e_name; without a join there is no ambiguity.
  EXPECT_EQ(CompileStatus("select e_name from emp").code(), StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Plan shapes: one range select per column, parent-side N:1 predicates.
// ---------------------------------------------------------------------------

/// One algebra.select of a plan: the base column it reads ("table.column",
/// empty when it reads an intermediate), the variables of its bounds
/// (parameter i is variable i; -1 for an unbounded side) and its flags.
struct SelectShape {
  std::string over;
  int lo = -1, hi = -1;
  bool lo_inc = false, hi_inc = false;
};

std::vector<SelectShape> Selects(const Program& p) {
  std::map<int, const Instruction*> def;
  for (const Instruction& in : p.instrs)
    for (uint16_t r : in.rets) def[r] = &in;
  auto bound = [&](uint16_t v) {
    const VarDecl& d = p.vars[v];
    return d.is_const && d.const_val.is_nil() ? -1 : static_cast<int>(v);
  };
  std::vector<SelectShape> out;
  for (const Instruction& in : p.instrs) {
    if (in.op != Opcode::kSelect) continue;
    SelectShape s;
    auto it = def.find(in.args[0]);
    if (it != def.end() && it->second->op == Opcode::kBind) {
      const std::vector<uint16_t>& b = it->second->args;
      s.over = p.vars[b[1]].const_val.AsStr() + "." +
               p.vars[b[2]].const_val.AsStr();
    }
    s.lo = bound(in.args[1]);
    s.hi = bound(in.args[2]);
    s.lo_inc = p.vars[in.args[3]].const_val.AsBit();
    s.hi_inc = p.vars[in.args[4]].const_val.AsBit();
    out.push_back(s);
  }
  return out;
}

std::vector<Oid> Victims(const QueryResult& r) {
  std::vector<Oid> out;
  const MalValue* v = r.Find("victims");
  EXPECT_NE(v, nullptr);
  if (v == nullptr || !v->is_bat()) return out;
  for (size_t i = 0; i < v->bat()->size(); ++i)
    out.push_back(v->bat()->TailAt(i).AsOid());
  return out;
}

TEST_F(SqlTest, OppositeBoundsOnOneColumnFoldInAnyOrder) {
  // Upper bound first, another column between, strict lower bound last:
  // one select over the base column takes A2 as lo and A0 as hi.
  const char* text =
      "select e_name from emp where e_age <= 45 and e_salary > 150.0 and "
      "e_age > 30";
  auto q = sql::CompileSql(cat_.get(), text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sels = Selects(q.value().plan.prog);
  ASSERT_EQ(sels.size(), 2u);
  EXPECT_EQ(sels[0].over, "emp.e_age");
  EXPECT_EQ(sels[0].lo, 2);
  EXPECT_EQ(sels[0].hi, 0);
  EXPECT_FALSE(sels[0].lo_inc);
  EXPECT_TRUE(sels[0].hi_inc);
  EXPECT_EQ(sels[1].over, "");  // e_salary over the fetched candidates
  EXPECT_EQ(sels[1].lo, 1);
  EXPECT_EQ(sels[1].hi, -1);

  // Folding consumes the parameters; it does not reorder them.
  EXPECT_EQ(q.value().fingerprint,
            "select e_name from emp where e_age<=?int and e_salary>?flt and "
            "e_age>?int");
  ASSERT_EQ(q.value().params.size(), 3u);
  EXPECT_EQ(q.value().params[0], Scalar::Int(45));
  EXPECT_EQ(q.value().params[1], Scalar::Dbl(150.0));
  EXPECT_EQ(q.value().params[2], Scalar::Int(30));

  auto r = Run(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"cho", "dan", "eve"}));
}

TEST_F(SqlTest, ExtraBoundsAndBetweenStayChained) {
  // The third bound is on a side already taken: it stays a one-sided
  // select over the candidates of the folded one.
  const char* text =
      "select e_name from emp where e_age >= 30 and e_age < 50 and e_age > "
      "35";
  auto q = sql::CompileSql(cat_.get(), text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sels = Selects(q.value().plan.prog);
  ASSERT_EQ(sels.size(), 2u);
  EXPECT_EQ(sels[0].over, "emp.e_age");
  EXPECT_EQ(sels[0].lo, 0);
  EXPECT_EQ(sels[0].hi, 1);
  EXPECT_TRUE(sels[0].lo_inc);
  EXPECT_FALSE(sels[0].hi_inc);
  EXPECT_EQ(sels[1].over, "");
  EXPECT_EQ(sels[1].lo, 2);
  EXPECT_EQ(sels[1].hi, -1);
  auto r = Run(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"dan", "eve"}));

  // BETWEEN is already one select; a later bound does not join it.
  q = sql::CompileSql(cat_.get(),
                      "select e_name from emp where e_age between 30 and 45 "
                      "and e_age < 40");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  sels = Selects(q.value().plan.prog);
  ASSERT_EQ(sels.size(), 2u);
  EXPECT_EQ(sels[0].over, "emp.e_age");
  EXPECT_EQ(sels[1].over, "");
  EXPECT_EQ(sels[1].hi, 2);
}

TEST_F(SqlTest, ParentPredicatesSelectOverTheParentColumn) {
  const char* text =
      "select e_name from emp inner join dept on e_dept = d_id where d_id >= "
      "1 and e_age < 45 and d_id < 3";
  auto q = sql::CompileSql(cat_.get(), text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sels = Selects(q.value().plan.prog);
  ASSERT_EQ(sels.size(), 2u);
  EXPECT_EQ(sels[0].over, "dept.d_id");
  EXPECT_EQ(sels[0].lo, 0);
  EXPECT_EQ(sels[0].hi, 2);
  EXPECT_EQ(sels[1].over, "");
  auto r = Run(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"cho", "dan"}));

  // Anti-selects map back through the hop the same way.
  r = Run("select e_name from emp inner join dept on e_dept = d_id where "
          "d_name not like 's%' and d_name <> 'hr'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Strs(r.value(), "e_name"),
            (std::vector<std::string>{"ann", "bob", "flo"}));
}

TEST_F(SqlTest, FoldedDeleteAndUpdateSelectTheSameVictims) {
  auto del = sql::ParseStatement(
      "delete from emp where e_age > 30 and e_salary < 450.0 and e_age <= 45");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  std::vector<Scalar> params;
  auto dplan = sql::CompileDelete(cat_.get(), del.value().del, &params);
  ASSERT_TRUE(dplan.ok()) << dplan.status().ToString();
  auto sels = Selects(dplan.value().prog);
  ASSERT_EQ(sels.size(), 2u);
  EXPECT_EQ(sels[0].over, "emp.e_age");
  Interpreter interp(cat_.get());
  auto r = interp.Run(dplan.value().prog, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Victims(r.value()), (std::vector<Oid>{2, 3}));

  auto upd = sql::ParseStatement(
      "update emp set e_salary = e_salary * 2 where e_hired >= date "
      "'2020-01-01' and e_hired < date '2022-01-01'");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  auto uplan = sql::CompileUpdate(cat_.get(), upd.value().update);
  ASSERT_TRUE(uplan.ok()) << uplan.status().ToString();
  sels = Selects(uplan.value().plan.prog);
  ASSERT_EQ(sels.size(), 1u);
  EXPECT_EQ(sels[0].over, "emp.e_hired");
  r = interp.Run(uplan.value().plan.prog, uplan.value().params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Victims(r.value()), (std::vector<Oid>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Recycler parity with the hand-built templates (paper workloads).
// ---------------------------------------------------------------------------

std::string ConeSql(double ra_lo, double ra_hi, double dec_lo, double dec_hi) {
  std::string cols = "objid";
  for (const std::string& p : skyserver::PhotoProperties()) cols += ", " + p;
  return StrFormat(
      "select %s from photoobj where ra between %.6f and %.6f and dec "
      "between %.6f and %.6f and mode = 1 limit 1",
      cols.c_str(), ra_lo, ra_hi, dec_lo, dec_hi);
}

class SqlSkyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cat_ = std::make_unique<Catalog>();
    skyserver::SkyConfig cfg;
    cfg.n_objects = 20000;
    ASSERT_TRUE(skyserver::LoadSkyServer(cat_.get(), cfg).ok());
  }
  std::unique_ptr<Catalog> cat_;
};

TEST_F(SqlSkyTest, ConeSearchMatchesHandBuiltTemplate) {
  // Same parameters through the hand-built template and the SQL text must
  // produce the same object.
  std::vector<Scalar> params = {Scalar::Dbl(40.0), Scalar::Dbl(60.0),
                                Scalar::Dbl(-10.0), Scalar::Dbl(10.0)};
  Program hand = skyserver::BuildConeSearchTemplate();
  Interpreter i1(cat_.get());
  auto hr = i1.Run(hand, params);
  ASSERT_TRUE(hr.ok()) << hr.status().ToString();

  auto q = sql::CompileSql(cat_.get(), ConeSql(40.0, 60.0, -10.0, 10.0));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Interpreter i2(cat_.get());
  auto sr = i2.Run(q.value().plan.prog, q.value().params);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();

  const MalValue* ho = hr.value().Find("objID");
  const MalValue* so = sr.value().Find("objid");
  ASSERT_NE(ho, nullptr);
  ASSERT_NE(so, nullptr);
  ASSERT_EQ(ho->bat()->size(), so->bat()->size());
  for (size_t i = 0; i < ho->bat()->size(); ++i)
    EXPECT_EQ(ho->bat()->TailAt(i).AsOid(), so->bat()->TailAt(i).AsOid());
}

TEST_F(SqlSkyTest, DocAndPointPatternsMatchHandBuilt) {
  {
    Program hand = skyserver::BuildDocQueryTemplate();
    Interpreter i1(cat_.get());
    auto hr = i1.Run(hand, {Scalar::Str("DocPage0012")});
    ASSERT_TRUE(hr.ok());
    auto q = sql::CompileSql(cat_.get(),
                             "select description, type from dbobjects where "
                             "name = 'DocPage0012'");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Interpreter i2(cat_.get());
    auto sr = i2.Run(q.value().plan.prog, q.value().params);
    ASSERT_TRUE(sr.ok());
    EXPECT_EQ(hr.value().Find("description")->bat()->TailAt(0).AsStr(),
              sr.value().Find("description")->bat()->TailAt(0).AsStr());
  }
  {
    Program hand = skyserver::BuildPointQueryTemplate();
    Interpreter i1(cat_.get());
    auto hr = i1.Run(hand, {Scalar::OidVal(230)});
    ASSERT_TRUE(hr.ok());
    auto q = sql::CompileSql(cat_.get(),
                             "select z, zerr, zconf, specclass from "
                             "elredshift where specobjid = 230");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Interpreter i2(cat_.get());
    auto sr = i2.Run(q.value().plan.prog, q.value().params);
    ASSERT_TRUE(sr.ok());
    ASSERT_EQ(hr.value().Find("z")->bat()->size(),
              sr.value().Find("z")->bat()->size());
    EXPECT_EQ(hr.value().Find("z")->bat()->TailAt(0).AsDbl(),
              sr.value().Find("z")->bat()->TailAt(0).AsDbl());
  }
}

TEST_F(SqlSkyTest, RepeatedConePatternHitsThePool) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  QueryService svc(cat_.get(), cfg);
  Session sess;
  std::string text = ConeSql(42.0, 44.0, -3.0, 3.0);
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, text).ok());
  RecyclerStats before = svc.recycler().stats();
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, text).ok());
  RecyclerStats after = svc.recycler().stats();
  // Exact re-execution: the pool answers (nearly) every monitored
  // instruction of the second run, as it does for the hand-built template.
  EXPECT_GT(after.hits, before.hits);
  ServiceStats s = svc.SnapshotStats();
  EXPECT_EQ(s.plan_compiles, 1u);
  EXPECT_EQ(s.plan_hits, 1u);

  // Same pattern, different literals: still one compiled plan.
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, ConeSql(100.0, 102.0, -5.0, 5.0)).ok());
  s = svc.SnapshotStats();
  EXPECT_EQ(s.plan_compiles, 1u);
  EXPECT_EQ(s.plan_hits, 2u);
}

class SqlTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cat_ = std::make_unique<Catalog>();
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(cat_.get(), cfg).ok());
  }
  std::unique_ptr<Catalog> cat_;
};

TEST_F(SqlTpchTest, TpchStyleQueriesCompileAndRun) {
  const char* queries[] = {
      // Q1-style pricing summary
      "select l_returnflag, l_linestatus, sum(l_quantity), "
      "sum(l_extendedprice), count(*) from lineitem where l_shipdate <= "
      "date '1998-09-02' group by l_returnflag, l_linestatus",
      // Q6-style forecast
      "select sum(l_extendedprice * l_discount) from lineitem where "
      "l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
      "and l_discount between 0.05 and 0.07 and l_quantity < 24",
      // Q3-style two-hop join chain lineitem -> orders -> customer
      "select sum(l_extendedprice * (1 - l_discount)) from lineitem "
      "inner join orders on l_orderkey = o_orderkey inner join customer on "
      "o_custkey = c_custkey where c_mktsegment = 'BUILDING' and "
      "o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15'",
      // Q18-prefix: quantity per order (no literals at all)
      "select l_orderkey, sum(l_quantity) from lineitem group by l_orderkey",
      // partsupp join part with a size filter
      "select count(*), min(ps_supplycost) from partsupp inner join part on "
      "ps_partkey = p_partkey where p_size = 15",
      // priority histogram over a quarter
      "select o_orderpriority, count(*) from orders where o_orderdate "
      "between date '1994-01-01' and date '1994-03-01' group by "
      "o_orderpriority",
  };
  Interpreter interp(cat_.get());
  for (const char* text : queries) {
    auto q = sql::CompileSql(cat_.get(), text);
    ASSERT_TRUE(q.ok()) << text << "\n" << q.status().ToString();
    auto r = interp.Run(q.value().plan.prog, q.value().params);
    ASSERT_TRUE(r.ok()) << text << "\n" << r.status().ToString();
    EXPECT_FALSE(r.value().values.empty());
  }
}

TEST_F(SqlTpchTest, Q6StyleResultMatchesHandBuiltTemplate) {
  // Hand-built Q6 takes (date, disc_lo, disc_hi, qty) with an AddMonths(12)
  // window; the SQL text spells the window as two date literals. Same
  // semantics, same revenue.
  tpch::QueryTemplate hand = tpch::BuildQuery(6);
  std::vector<Scalar> params = {
      Scalar::DateVal(DateFromYmd(1994, 1, 1)), Scalar::Dbl(0.05),
      Scalar::Dbl(0.07), Scalar::Int(24)};
  Interpreter i1(cat_.get());
  auto hr = i1.Run(hand.prog, params);
  ASSERT_TRUE(hr.ok());

  auto q = sql::CompileSql(
      cat_.get(),
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= date '1994-01-01' and l_shipdate < date "
      "'1995-01-01' and l_discount between 0.05 and 0.07 and l_quantity < "
      "24");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Interpreter i2(cat_.get());
  auto sr = i2.Run(q.value().plan.prog, q.value().params);
  ASSERT_TRUE(sr.ok());
  EXPECT_DOUBLE_EQ(hr.value().Find("revenue")->scalar().ToDouble(),
                   sr.value().Find("revenue")->scalar().ToDouble());
}

TEST_F(SqlTpchTest, ParamIndependentPrefixReusesAcrossLiterals) {
  // The Q18 pattern: GROUP BY l_orderkey / sum(l_quantity) is parameter
  // independent, so two submissions with *different* thresholds reuse the
  // grouped prefix from the pool — the paper's flagship inter-query case.
  ServiceConfig cfg;
  cfg.num_workers = 1;
  QueryService svc(cat_.get(), cfg);
  Session sess;
  ASSERT_TRUE(testutil::RunSql(&svc, &sess, 
                     "select l_orderkey, sum(l_quantity) from lineitem where "
                     "l_orderkey < 100 group by l_orderkey")
                  .ok());
  RecyclerStats before = svc.recycler().stats();
  auto r = testutil::RunSql(&svc, &sess, 
      "select l_orderkey, sum(l_quantity) from lineitem where "
      "l_orderkey < 220 group by l_orderkey");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  RecyclerStats after = svc.recycler().stats();
  // The bind is shared; the subsumable range select can also hit. At minimum
  // the pool must answer something despite the different literal.
  EXPECT_GT(after.hits, before.hits);
}

TEST_F(SqlTpchTest, MixedWorkloadCompilesMuchLessThanSubmissions) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  QueryService svc(cat_.get(), cfg);
  Session sess;
  Rng rng(99);
  std::vector<std::future<Result<QueryResult>>> futs;
  for (int i = 0; i < 60; ++i) {
    int y = 1993 + static_cast<int>(rng.Uniform(4));
    std::string text;
    switch (i % 3) {
      case 0:
        text = StrFormat(
            "select count(*) from orders where o_orderdate >= date "
            "'%d-01-01' and o_orderdate < date '%d-01-01'",
            y, y + 1);
        break;
      case 1:
        text = StrFormat(
            "select o_orderpriority, count(*) from orders where o_totalprice "
            "> %.1f group by o_orderpriority",
            1000.0 + 500.0 * rng.Uniform(5));
        break;
      default:
        text = StrFormat(
            "select sum(l_extendedprice) from lineitem where l_quantity "
            "between %d and %d",
            1 + static_cast<int>(rng.Uniform(10)),
            20 + static_cast<int>(rng.Uniform(10)));
        break;
    }
    futs.push_back(testutil::SubmitSql(&svc, &sess, text));
  }
  for (auto& f : futs) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ServiceStats s = svc.SnapshotStats();
  EXPECT_EQ(s.plan_lookups, 60u);
  EXPECT_EQ(s.plan_compiles, 3u);  // one per pattern
  EXPECT_EQ(s.plan_hits, 57u);
}

TEST_F(SqlTpchTest, Q6AndJoinPatternsFoldAndSelectOnTheParent) {
  // Q6: the two l_shipdate bounds are one select over the base column.
  const char* q6 =
      "select sum(l_extendedprice * l_discount) from lineitem where "
      "l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
      "and l_discount between 0.05 and 0.07 and l_quantity < 24";
  auto q = sql::CompileSql(cat_.get(), q6);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().plan.prog.instrs.size(), 25u);  // 32 when chained
  auto sels = Selects(q.value().plan.prog);
  ASSERT_EQ(sels.size(), 3u);
  EXPECT_EQ(sels[0].over, "lineitem.l_shipdate");
  EXPECT_EQ(sels[0].lo, 0);
  EXPECT_EQ(sels[0].hi, 1);
  EXPECT_TRUE(sels[0].lo_inc);
  EXPECT_FALSE(sels[0].hi_inc);
  EXPECT_EQ(q.value().fingerprint,
            "select sum((l_extendedprice*l_discount)) from lineitem where "
            "l_shipdate>=?date and l_shipdate<?date and l_discount between "
            "?flt and ?flt and l_quantity<?int");
  ASSERT_EQ(q.value().params.size(), 5u);
  EXPECT_EQ(q.value().params[0], Scalar::DateVal(DateFromYmd(1994, 1, 1)));
  EXPECT_EQ(q.value().params[1], Scalar::DateVal(DateFromYmd(1995, 1, 1)));

  // The join pattern selects over orders' own column, not over the
  // o_orderdate values fetched for every lineitem row.
  q = sql::CompileSql(
      cat_.get(),
      "select count(*) from lineitem inner join orders on l_orderkey = "
      "o_orderkey where o_orderdate >= date '1994-01-01' and o_orderdate < "
      "date '1994-07-01'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().plan.prog.instrs.size(), 15u);  // 24 when fetched
  sels = Selects(q.value().plan.prog);
  ASSERT_EQ(sels.size(), 1u);
  EXPECT_EQ(sels[0].over, "orders.o_orderdate");
  EXPECT_EQ(sels[0].lo, 0);
  EXPECT_EQ(sels[0].hi, 1);
  EXPECT_TRUE(sels[0].lo_inc);
  EXPECT_FALSE(sels[0].hi_inc);
}

}  // namespace
}  // namespace recycledb
