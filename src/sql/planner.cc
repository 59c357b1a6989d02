#include "sql/planner.h"

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "core/recycler_optimizer.h"
#include "mal/plan_builder.h"
#include "sql/parser.h"
#include "util/str.h"

namespace recycledb::sql {

namespace {

// ---------------------------------------------------------------------------
// Canonical literal order. Both the compile path (parameter declaration) and
// the cache-hit path (parameter binding) walk the statement in exactly this
// order: select items in pre-order, then WHERE conjuncts left to right
// (BETWEEN yields lo before hi). LIMIT counts are compiled as constants and
// are deliberately absent.
// ---------------------------------------------------------------------------

void CollectExprLiterals(const Expr* e, std::vector<const Literal*>* out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      out->push_back(&e->lit);
      break;
    case Expr::Kind::kArith:
      CollectExprLiterals(e->lhs.get(), out);
      CollectExprLiterals(e->rhs.get(), out);
      break;
    case Expr::Kind::kAggregate:
      CollectExprLiterals(e->arg.get(), out);
      break;
    default:
      break;
  }
}

std::vector<const Literal*> CollectLiterals(const SelectStmt& stmt) {
  std::vector<const Literal*> out;
  for (const SelectItem& it : stmt.items)
    CollectExprLiterals(it.expr.get(), &out);
  for (const Predicate& p : stmt.where) {
    switch (p.kind) {
      case Predicate::Kind::kCompare:
      case Predicate::Kind::kLike:
      case Predicate::Kind::kNotLike:
        out.push_back(&p.value);
        break;
      case Predicate::Kind::kBetween:
        out.push_back(&p.lo);
        out.push_back(&p.hi);
        break;
    }
  }
  return out;
}

const char* LiteralKindName(Literal::Kind k) {
  switch (k) {
    case Literal::Kind::kInt:
      return "integer";
    case Literal::Kind::kFloat:
      return "float";
    case Literal::Kind::kString:
      return "string";
    case Literal::Kind::kDate:
      return "date";
  }
  return "?";
}

/// Coerces a written literal to the parameter type the plan expects.
/// Integers widen to lng/dbl/oid; everything else must match exactly.
Result<Scalar> CoerceLiteral(const Literal& lit, TypeTag want) {
  switch (lit.kind) {
    case Literal::Kind::kInt:
      switch (want) {
        case TypeTag::kInt:
          if (lit.i < INT32_MIN || lit.i > INT32_MAX)
            return Status::OutOfRange(
                StrFormat("integer literal %lld out of int range",
                          static_cast<long long>(lit.i)));
          return Scalar::Int(static_cast<int32_t>(lit.i));
        case TypeTag::kLng:
          return Scalar::Lng(lit.i);
        case TypeTag::kDbl:
          return Scalar::Dbl(static_cast<double>(lit.i));
        case TypeTag::kOid:
          if (lit.i < 0)
            return Status::OutOfRange(StrFormat(
                "negative literal %lld for an oid column",
                static_cast<long long>(lit.i)));
          return Scalar::OidVal(static_cast<Oid>(lit.i));
        default:
          break;
      }
      break;
    case Literal::Kind::kFloat:
      if (want == TypeTag::kDbl) return Scalar::Dbl(lit.f);
      break;
    case Literal::Kind::kString:
      if (want == TypeTag::kStr) return Scalar::Str(lit.s);
      break;
    case Literal::Kind::kDate:
      if (want == TypeTag::kDate) return Scalar::DateVal(lit.d);
      break;
  }
  return Status::TypeMismatch(
      StrFormat("cannot use %s literal %s where %s is expected",
                LiteralKindName(lit.kind), lit.ToString().c_str(),
                TypeName(want)));
}

bool IsNumericTag(TypeTag t) {
  return t == TypeTag::kInt || t == TypeTag::kLng || t == TypeTag::kDbl;
}

bool ContainsColumn(const Expr* e) {
  if (e == nullptr) return false;
  switch (e->kind) {
    case Expr::Kind::kColumn:
      return true;
    case Expr::Kind::kArith:
      return ContainsColumn(e->lhs.get()) || ContainsColumn(e->rhs.get());
    case Expr::Kind::kAggregate:
      return ContainsColumn(e->arg.get());
    default:
      return false;
  }
}

std::string ItemLabel(const SelectItem& it, size_t idx) {
  if (!it.alias.empty()) return it.alias;
  const Expr* e = it.expr.get();
  switch (e->kind) {
    case Expr::Kind::kColumn:
      return e->col.column;
    case Expr::Kind::kAggregate:
      if (e->arg == nullptr) return "count";
      if (e->arg->kind == Expr::Kind::kColumn)
        return std::string(AggFuncName(e->agg)) + "_" + e->arg->col.column;
      return StrFormat("%s_%zu", AggFuncName(e->agg), idx);
    default:
      return StrFormat("expr_%zu", idx);
  }
}

// ---------------------------------------------------------------------------
// The planner: resolves names against the catalog and lowers the statement
// to the MAL idioms the hand-built templates use (Fig. 1): selections yield
// [row -> value] subsets, markT/reverse turns them into dense candidate
// lists, and positional joins implement column fetches and N:1 FK hops.
// ---------------------------------------------------------------------------

class StmtPlanner {
 public:
  StmtPlanner(Catalog* catalog, const SelectStmt& stmt)
      : cat_(catalog), stmt_(stmt), b_("sql_" + stmt.table) {}

  Status Plan() {
    DeclareParams();
    RDB_RETURN_NOT_OK(SetupScopes());
    // INNER JOIN is filtering even when no parent column is ever fetched:
    // restrict the candidates to rows whose FK hop resolves (deletions
    // leave orphaned children mapped to nil in the rebuilt index). This
    // also keeps later per-column fetches row-aligned — a nil hop would
    // silently drop rows from parent columns but not child columns.
    for (size_t si = 1; si < scopes_.size(); ++si) {
      bool first = cand_ < 0;
      int sel = b_.SelectNotNil(HopChain(static_cast<int>(si)));
      cand_ = first ? b_.Recand(sel) : b_.Rebase(b_.Semijoin(cand_, sel));
    }
    RDB_RETURN_NOT_OK(LowerWhere());

    std::vector<Out> outs;
    RDB_RETURN_NOT_OK(PlanItems(&outs));

    if (stmt_.order_by.present) {
      Out* target = nullptr;
      int matches = 0;
      for (Out& o : outs) {
        if (o.label == stmt_.order_by.name) {
          target = &o;
          ++matches;
        }
      }
      if (target == nullptr)
        return Status::InvalidArgument(
            "ORDER BY must name a select-item label ('" + stmt_.order_by.name +
            "' matches none)");
      if (matches > 1)
        return Status::InvalidArgument("ambiguous ORDER BY label '" +
                                       stmt_.order_by.name +
                                       "': several select items carry it");
      if (!target->is_bat)
        return Status::InvalidArgument(
            "ORDER BY over a scalar aggregate is meaningless");
      // sort.tail keeps head/tail pairs together, so the sorted bat's heads
      // are the sort permutation; route every output column through it so
      // row i of one column still corresponds to row i of the others (and a
      // LIMIT slices the same rows everywhere). ASC and DESC are distinct
      // opcodes, and the fingerprint carries the direction, so the two
      // directions never share a cached plan.
      int sorted = stmt_.order_by.asc ? b_.SortTail(target->var)
                                      : b_.SortTailRev(target->var);
      int perm = b_.Recand(sorted);
      for (Out& o : outs)
        if (o.is_bat) o.var = b_.Join(perm, o.var);
    }
    if (stmt_.limit >= 0) {
      for (Out& o : outs)
        if (o.is_bat) o.var = b_.SliceN(o.var, 0, stmt_.limit);
    }
    for (const Out& o : outs) {
      if (o.is_bat)
        b_.ExportBat(o.var, o.label);
      else
        b_.ExportValue(o.var, o.label);
    }

    return CheckParamsBound();
  }

  /// DELETE lowering: the WHERE conjunction runs through the exact same
  /// predicate machinery as a SELECT, but instead of projecting columns the
  /// plan exports the final candidate list — whose tail values ARE the
  /// victim row oids (candidate lists are [dense -> base row], Fig. 1).
  Status PlanDelete() {
    DeclareParams();
    RDB_RETURN_NOT_OK(SetupScopes());
    RDB_RETURN_NOT_OK(LowerWhere());

    int victims;
    if (cand_ >= 0) {
      victims = cand_;
    } else {
      // No WHERE: every current row is a victim. Mirror of any bound column
      // is [row -> row], so the tail enumerates all row oids.
      victims = b_.Mirror(b_.Bind(scopes_[0].table->name(),
                                  scopes_[0].table->column_name(0)));
    }
    b_.ExportBat(victims, "victims");
    return CheckParamsBound();
  }

  /// UPDATE lowering: exports "victims" exactly like PlanDelete, plus one
  /// value bat "v<ci>" per non-constant column, row-aligned with the
  /// victims — SET expressions via ValBat over the synthetic select items
  /// (`expr_cols` maps item index -> column index), carried-over columns
  /// via FetchCol.
  Status PlanUpdate(const std::vector<std::pair<size_t, int>>& expr_cols,
                    const std::vector<int>& carry_cols) {
    DeclareParams();
    RDB_RETURN_NOT_OK(SetupScopes());
    RDB_RETURN_NOT_OK(LowerWhere());

    int victims =
        cand_ >= 0 ? cand_
                   : b_.Mirror(b_.Bind(scopes_[0].table->name(),
                                       scopes_[0].table->column_name(0)));
    b_.ExportBat(victims, "victims");
    for (const auto& [item, ci] : expr_cols) {
      RDB_ASSIGN_OR_RETURN(int v, ValBat(stmt_.items[item].expr.get()));
      b_.ExportBat(v, StrFormat("v%d", ci));
    }
    for (int ci : carry_cols)
      b_.ExportBat(FetchCol(0, ci), StrFormat("v%d", ci));
    return CheckParamsBound();
  }

  CompiledPlan Take() {
    CompiledPlan out;
    out.prog = b_.Build();
    out.param_types = std::move(param_types_);
    out.table_ids.assign(table_ids_.begin(), table_ids_.end());
    return out;
  }

  std::vector<Scalar> TakeParams() { return std::move(params_); }

 private:
  /// One FROM/JOIN table in scope. `hops` is the BindIdx path from the base
  /// table's row space to this table's rows (empty for the base table).
  struct Scope {
    std::string name;  // alias, or table name when no alias was given
    const Table* table = nullptr;
    std::vector<std::pair<std::string, std::string>> hops;  // (child, index)
  };

  struct Out {
    std::string label;
    int var = -1;
    bool is_bat = true;
  };

  /// Parameters must be declared before the first constant/instruction;
  /// both entry points (Plan, PlanDelete) start here.
  void DeclareParams() {
    literals_ = CollectLiterals(stmt_);
    for (size_t i = 0; i < literals_.size(); ++i) {
      b_.Param(StrFormat("A%zu", i));
      lit_index_[literals_[i]] = static_cast<int>(i);
    }
    param_types_.assign(literals_.size(), TypeTag::kVoid);
    params_.resize(literals_.size());
  }

  Status CheckParamsBound() const {
    for (size_t i = 0; i < param_types_.size(); ++i) {
      if (param_types_[i] == TypeTag::kVoid)
        return Status::Internal("literal was never parameterised");
    }
    return Status::OK();
  }

  Status SetupScopes() {
    const Table* base = cat_->FindTable(stmt_.table);
    if (base == nullptr)
      return Status::NotFound("unknown table '" + stmt_.table + "'");
    Scope s;
    s.name = stmt_.alias.empty() ? stmt_.table : stmt_.alias;
    s.table = base;
    scopes_.push_back(std::move(s));
    table_ids_.insert(base->id());

    for (const JoinClause& j : stmt_.joins) {
      const Table* nt = cat_->FindTable(j.table);
      if (nt == nullptr)
        return Status::NotFound("unknown table '" + j.table + "'");
      std::string nname = j.alias.empty() ? j.table : j.alias;
      for (const Scope& sc : scopes_) {
        if (sc.name == nname)
          return Status::InvalidArgument("duplicate table alias '" + nname +
                                         "'");
      }

      // Which ON side names the joined (parent) table, which an existing
      // scope? Unqualified columns resolve by lookup.
      auto in_new = [&](const ColumnRef& r) -> int {
        if (!r.table.empty() && r.table != nname) return -1;
        return nt->FindColumn(r.column);
      };
      int old_si = -1, old_ci = -1, parent_ci = -1;
      auto try_old = [&](const ColumnRef& r) {
        auto rc = TryResolveColumn(r);
        if (rc.first >= 0) {
          old_si = rc.first;
          old_ci = rc.second;
          return true;
        }
        return false;
      };
      if (try_old(j.left) && in_new(j.right) >= 0) {
        parent_ci = in_new(j.right);
      } else if (try_old(j.right) && in_new(j.left) >= 0) {
        parent_ci = in_new(j.left);
      } else {
        return Status::InvalidArgument(
            StrFormat("join condition %s = %s must relate the joined table "
                      "'%s' to a table already in FROM",
                      j.left.ToString().c_str(), j.right.ToString().c_str(),
                      j.table.c_str()));
      }

      const Scope& cs = scopes_[old_si];
      Result<std::string> idx = cat_->FindFkIndex(
          cs.table->name(), cs.table->column_name(old_ci), nt->name(),
          nt->column_name(parent_ci));
      if (!idx.ok()) {
        // Help the common mistake: the index exists the other way round.
        Result<std::string> rev = cat_->FindFkIndex(
            nt->name(), nt->column_name(parent_ci), cs.table->name(),
            cs.table->column_name(old_ci));
        if (rev.ok())
          return Status::NotImplemented(
              StrFormat("join direction not supported: '%s' is the FK child "
                        "of '%s'; list the child table first in FROM",
                        j.table.c_str(), cs.table->name().c_str()));
        return idx.status();
      }

      Scope ns;
      ns.name = std::move(nname);
      ns.table = nt;
      ns.hops = cs.hops;
      ns.hops.emplace_back(cs.table->name(), std::move(idx).value());
      scopes_.push_back(std::move(ns));
      table_ids_.insert(nt->id());
    }
    return Status::OK();
  }

  /// (scope idx, column idx), or (-1, -1) when the ref does not resolve
  /// unambiguously. Same rules as ResolveColumn, minus the error.
  std::pair<int, int> TryResolveColumn(const ColumnRef& ref) const {
    auto rc = ResolveColumn(ref);
    return rc.ok() ? rc.value() : std::make_pair(-1, -1);
  }

  Result<std::pair<int, int>> ResolveColumn(const ColumnRef& ref) const {
    if (!ref.table.empty()) {
      // Scope names are unique (SetupScopes rejects duplicate aliases).
      for (size_t si = 0; si < scopes_.size(); ++si) {
        if (scopes_[si].name != ref.table) continue;
        int ci = scopes_[si].table->FindColumn(ref.column);
        if (ci < 0)
          return Status::NotFound("unknown column '" + ref.ToString() + "'");
        return std::make_pair(static_cast<int>(si), ci);
      }
      return Status::NotFound("unknown table or alias '" + ref.table + "'");
    }
    int found_si = -1, found_ci = -1, n = 0;
    for (size_t si = 0; si < scopes_.size(); ++si) {
      int ci = scopes_[si].table->FindColumn(ref.column);
      if (ci >= 0) {
        found_si = static_cast<int>(si);
        found_ci = ci;
        ++n;
      }
    }
    if (n == 0)
      return Status::NotFound("unknown column '" + ref.column + "'");
    if (n > 1)
      return Status::InvalidArgument("ambiguous column '" + ref.column +
                                     "'; qualify it with a table or alias");
    return std::make_pair(found_si, found_ci);
  }

  Result<int> UseParam(const Literal& lit, TypeTag want) {
    auto it = lit_index_.find(&lit);
    if (it == lit_index_.end())
      return Status::Internal("literal missing from the canonical order");
    RDB_ASSIGN_OR_RETURN(Scalar s, CoerceLiteral(lit, want));
    param_types_[it->second] = want;
    params_[it->second] = std::move(s);
    return it->second;  // parameters are declared first: var index == slot
  }

  /// [x -> parent row] through a joined scope's BindIdx hop chain, from the
  /// current candidate space (or the full base-row space when none exists).
  int HopChain(int si) {
    const Scope& s = scopes_[si];
    int v;
    size_t h0 = 0;
    if (cand_ >= 0) {
      v = cand_;
    } else {
      v = b_.BindIdx(s.hops[0].first, s.hops[0].second);
      h0 = 1;
    }
    for (size_t k = h0; k < s.hops.size(); ++k)
      v = b_.Join(v, b_.BindIdx(s.hops[k].first, s.hops[k].second));
    return v;
  }

  /// [x -> value] of a column. With a candidate list, x is the candidate
  /// space; without one, x is the scope's full base-row space (plain bind,
  /// or a BindIdx hop chain for joined tables).
  int FetchCol(int si, int ci) {
    const Scope& s = scopes_[si];
    const std::string& col = s.table->column_name(ci);
    if (cand_ < 0 && s.hops.empty()) return b_.Bind(s.table->name(), col);
    int v = s.hops.empty() ? cand_ : HopChain(si);
    return b_.Join(v, b_.Bind(s.table->name(), col));
  }

  /// +1 for a lower bound (`>`, `>=`), -1 for an upper one (`<`, `<=`),
  /// 0 for every predicate that is not a one-sided comparison.
  static int BoundSide(const Predicate& p) {
    if (p.kind != Predicate::Kind::kCompare) return 0;
    switch (p.op) {
      case CmpOp::kGt:
      case CmpOp::kGe:
        return 1;
      case CmpOp::kLt:
      case CmpOp::kLe:
        return -1;
      default:
        return 0;
    }
  }

  /// Lowers the WHERE conjunction left to right. A one-sided comparison
  /// takes the first later, still unpaired conjunct on the same column that
  /// bounds the other side, and the two become one range select (the
  /// paper's select(col, lo, hi)). Pairing is by position, never by literal
  /// value: a cached plan is re-bound with other literals. A further
  /// same-side bound, `=`, `<>`, BETWEEN and LIKE stay chained.
  Status LowerWhere() {
    const std::vector<Predicate>& where = stmt_.where;
    std::vector<bool> paired(where.size(), false);
    for (size_t i = 0; i < where.size(); ++i) {
      if (paired[i]) continue;
      const Predicate* other = nullptr;
      if (int side = BoundSide(where[i]); side != 0) {
        auto rc = TryResolveColumn(where[i].col);
        for (size_t j = i + 1; j < where.size() && other == nullptr; ++j) {
          if (paired[j] || BoundSide(where[j]) != -side || rc.first < 0 ||
              TryResolveColumn(where[j].col) != rc)
            continue;
          paired[j] = true;
          other = &where[j];
        }
      }
      RDB_RETURN_NOT_OK(LowerPredicate(where[i], other));
    }
    return Status::OK();
  }

  /// One conjunct (folded with `other`, the opposite bound on the same
  /// column, when LowerWhere paired one) narrows the candidates. A
  /// predicate on a joined N:1 table selects over the parent's base column,
  /// [parent row -> value], and maps back through the hop chain to
  /// [cand -> value]: the parent has fewer rows than the fetched column,
  /// and a base-column select is the one the pool shares across patterns.
  Status LowerPredicate(const Predicate& p, const Predicate* other) {
    RDB_ASSIGN_OR_RETURN(auto rc, ResolveColumn(p.col));
    auto [si, ci] = rc;
    const Scope& s = scopes_[si];
    TypeTag ct = s.table->column_type(ci);
    bool first = cand_ < 0;
    int v = s.hops.empty() ? FetchCol(si, ci)
                           : b_.Bind(s.table->name(), s.table->column_name(ci));

    int sel = -1;
    switch (p.kind) {
      case Predicate::Kind::kCompare: {
        if (BoundSide(p) != 0) {
          int lo = -1, hi = -1;
          bool lo_inc = true, hi_inc = true;
          for (const Predicate* q : {&p, other}) {
            if (q == nullptr) continue;
            RDB_ASSIGN_OR_RETURN(int qv, UseParam(q->value, ct));
            if (BoundSide(*q) > 0) {
              lo = qv;
              lo_inc = q->op == CmpOp::kGe;
            } else {
              hi = qv;
              hi_inc = q->op == CmpOp::kLe;
            }
          }
          sel = b_.Select(v, lo >= 0 ? lo : b_.NilConst(ct),
                          hi >= 0 ? hi : b_.NilConst(ct), lo_inc, hi_inc);
          break;
        }
        RDB_ASSIGN_OR_RETURN(int pv, UseParam(p.value, ct));
        sel = p.op == CmpOp::kEq ? b_.Uselect(v, pv) : b_.AntiUselect(v, pv);
        break;
      }
      case Predicate::Kind::kBetween: {
        RDB_ASSIGN_OR_RETURN(int lo, UseParam(p.lo, ct));
        RDB_ASSIGN_OR_RETURN(int hi, UseParam(p.hi, ct));
        sel = b_.Select(v, lo, hi, true, true);
        break;
      }
      case Predicate::Kind::kLike:
      case Predicate::Kind::kNotLike: {
        if (ct != TypeTag::kStr)
          return Status::TypeMismatch("LIKE over non-string column '" +
                                      p.col.ToString() + "'");
        if (p.value.kind != Literal::Kind::kString)
          return Status::TypeMismatch("LIKE pattern must be a string literal");
        RDB_ASSIGN_OR_RETURN(int pv, UseParam(p.value, TypeTag::kStr));
        int matched = b_.LikeSelect(v, pv);
        sel = p.kind == Predicate::Kind::kLike ? matched
                                               : b_.AntiSemijoin(v, matched);
        break;
      }
    }
    if (!s.hops.empty()) sel = b_.Join(HopChain(si), sel);
    cand_ = first ? b_.Recand(sel) : b_.Rebase(b_.Semijoin(cand_, sel));
    return Status::OK();
  }

  /// Bat-valued numeric expression over the current candidates (arithmetic
  /// select items and aggregate arguments). Literals become kDbl parameters,
  /// so e.g. `l_extendedprice * (1 - l_discount)` lowers to the calc chain
  /// of the hand-built templates with the 1.0 parameterised.
  Result<int> ValBat(const Expr* e) {
    switch (e->kind) {
      case Expr::Kind::kColumn: {
        RDB_ASSIGN_OR_RETURN(auto rc, ResolveColumn(e->col));
        TypeTag ct = scopes_[rc.first].table->column_type(rc.second);
        if (!IsNumericTag(ct))
          return Status::TypeMismatch(
              StrFormat("column '%s' has type %s; arithmetic needs a numeric "
                        "column",
                        e->col.ToString().c_str(), TypeName(ct)));
        return FetchCol(rc.first, rc.second);
      }
      case Expr::Kind::kLiteral: {
        if (e->lit.kind == Literal::Kind::kString ||
            e->lit.kind == Literal::Kind::kDate)
          return Status::TypeMismatch("non-numeric literal " +
                                      e->lit.ToString() + " in arithmetic");
        return UseParam(e->lit, TypeTag::kDbl);
      }
      case Expr::Kind::kArith: {
        if (!ContainsColumn(e->lhs.get()) && !ContainsColumn(e->rhs.get()))
          return Status::InvalidArgument(
              "constant subexpressions are not supported; fold them in the "
              "query text");
        RDB_ASSIGN_OR_RETURN(int l, ValBat(e->lhs.get()));
        RDB_ASSIGN_OR_RETURN(int r, ValBat(e->rhs.get()));
        switch (e->op) {
          case ArithOp::kAdd:
            return b_.Add(l, r);
          case ArithOp::kSub:
            return b_.Sub(l, r);
          case ArithOp::kMul:
            return b_.Mul(l, r);
          case ArithOp::kDiv:
            return b_.Div(l, r);
        }
        return Status::Internal("unreachable arith op");
      }
      case Expr::Kind::kAggregate:
        return Status::InvalidArgument(
            "aggregates cannot be nested inside expressions");
      case Expr::Kind::kStar:
        return Status::InvalidArgument("'*' is not valid inside an expression");
    }
    return Status::Internal("unreachable expr kind");
  }

  /// The bat an aggregate runs over, with per-function type checking.
  Result<int> AggArgBat(AggFunc f, const Expr* arg) {
    if (!ContainsColumn(arg))
      return Status::InvalidArgument(
          StrFormat("%s argument must reference a column", AggFuncName(f)));
    if (arg->kind == Expr::Kind::kColumn) {
      RDB_ASSIGN_OR_RETURN(auto rc, ResolveColumn(arg->col));
      TypeTag ct = scopes_[rc.first].table->column_type(rc.second);
      bool ok = false;
      switch (f) {
        case AggFunc::kCount:
          ok = true;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          ok = IsNumericTag(ct);
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          ok = IsNumericTag(ct) || ct == TypeTag::kDate;
          break;
      }
      if (!ok)
        return Status::TypeMismatch(
            StrFormat("%s over column '%s' of type %s", AggFuncName(f),
                      arg->col.ToString().c_str(), TypeName(ct)));
      return FetchCol(rc.first, rc.second);
    }
    return ValBat(arg);
  }

  Status PlanItems(std::vector<Out>* outs) {
    bool grouped = !stmt_.group_by.empty();
    bool any_agg = false;
    for (const SelectItem& it : stmt_.items)
      if (it.expr->kind == Expr::Kind::kAggregate) any_agg = true;

    if (grouped) {
      std::vector<std::pair<int, int>> gcols;
      std::vector<int> gvals;
      for (const ColumnRef& g : stmt_.group_by) {
        RDB_ASSIGN_OR_RETURN(auto rc, ResolveColumn(g));
        gcols.push_back(rc);
        gvals.push_back(FetchCol(rc.first, rc.second));
      }
      auto [map, reps] = b_.GroupBy(gvals[0]);
      for (size_t i = 1; i < gvals.size(); ++i) {
        auto mr = b_.SubGroupBy(gvals[i], map);
        map = mr.first;
        reps = mr.second;
      }

      for (size_t i = 0; i < stmt_.items.size(); ++i) {
        const SelectItem& it = stmt_.items[i];
        const Expr* e = it.expr.get();
        Out o;
        o.label = ItemLabel(it, i);
        if (e->kind == Expr::Kind::kColumn) {
          RDB_ASSIGN_OR_RETURN(auto rc, ResolveColumn(e->col));
          int gi = -1;
          for (size_t g = 0; g < gcols.size(); ++g)
            if (gcols[g] == rc) gi = static_cast<int>(g);
          if (gi < 0)
            return Status::InvalidArgument(
                "column '" + e->col.ToString() +
                "' in the select list is not in GROUP BY");
          o.var = b_.Join(reps, gvals[gi]);  // [gid -> key]
        } else if (e->kind == Expr::Kind::kAggregate) {
          if (e->arg == nullptr) {  // COUNT(*)
            o.var = b_.GrpCount(gvals[0], map, reps);
          } else {
            RDB_ASSIGN_OR_RETURN(int vals, AggArgBat(e->agg, e->arg.get()));
            switch (e->agg) {
              case AggFunc::kCount:
                o.var = b_.GrpCount(vals, map, reps);
                break;
              case AggFunc::kSum:
                o.var = b_.GrpSum(vals, map, reps);
                break;
              case AggFunc::kMin:
                o.var = b_.GrpMin(vals, map, reps);
                break;
              case AggFunc::kMax:
                o.var = b_.GrpMax(vals, map, reps);
                break;
              case AggFunc::kAvg:
                o.var = b_.GrpAvg(vals, map, reps);
                break;
            }
          }
        } else {
          return Status::InvalidArgument(
              "with GROUP BY, select items must be group columns or "
              "aggregates");
        }
        outs->push_back(std::move(o));
      }
      return Status::OK();
    }

    if (any_agg) {
      for (size_t i = 0; i < stmt_.items.size(); ++i) {
        const SelectItem& it = stmt_.items[i];
        const Expr* e = it.expr.get();
        if (e->kind != Expr::Kind::kAggregate)
          return Status::InvalidArgument(
              "mixing aggregates and plain columns requires GROUP BY");
        Out o;
        o.label = ItemLabel(it, i);
        o.is_bat = false;
        if (e->arg == nullptr) {  // COUNT(*): count the candidate rows
          int rows = cand_ >= 0 ? cand_ : FetchCol(0, 0);
          o.var = b_.AggrCount(rows);
        } else {
          RDB_ASSIGN_OR_RETURN(int vals, AggArgBat(e->agg, e->arg.get()));
          switch (e->agg) {
            case AggFunc::kCount:
              o.var = b_.AggrCount(vals);
              break;
            case AggFunc::kSum:
              o.var = b_.AggrSum(vals);
              break;
            case AggFunc::kMin:
              o.var = b_.AggrMin(vals);
              break;
            case AggFunc::kMax:
              o.var = b_.AggrMax(vals);
              break;
            case AggFunc::kAvg:
              o.var = b_.AggrAvg(vals);
              break;
          }
        }
        outs->push_back(std::move(o));
      }
      return Status::OK();
    }

    // Plain projection. A bare literal item would export one scalar where
    // SQL repeats the constant per row — a silent cardinality change — so
    // it is rejected outright rather than mis-shaped.
    for (const SelectItem& it : stmt_.items) {
      if (it.expr->kind == Expr::Kind::kLiteral)
        return Status::NotImplemented(
            "bare literal select items are not supported (SQL would repeat "
            "the constant per row)");
    }
    for (size_t i = 0; i < stmt_.items.size(); ++i) {
      const SelectItem& it = stmt_.items[i];
      const Expr* e = it.expr.get();
      switch (e->kind) {
        case Expr::Kind::kStar: {
          for (size_t si = 0; si < scopes_.size(); ++si) {
            const Scope& s = scopes_[si];
            for (size_t c = 0; c < s.table->num_columns(); ++c) {
              Out o;
              o.label = s.table->column_name(static_cast<int>(c));
              o.var = FetchCol(static_cast<int>(si), static_cast<int>(c));
              outs->push_back(std::move(o));
            }
          }
          break;
        }
        case Expr::Kind::kColumn: {
          RDB_ASSIGN_OR_RETURN(auto rc, ResolveColumn(e->col));
          Out o;
          o.label = ItemLabel(it, i);
          o.var = FetchCol(rc.first, rc.second);
          outs->push_back(std::move(o));
          break;
        }
        case Expr::Kind::kLiteral:
          return Status::Internal("literal item reached projection path");
        case Expr::Kind::kArith: {
          RDB_ASSIGN_OR_RETURN(int v, ValBat(e));
          Out o;
          o.label = ItemLabel(it, i);
          o.var = v;
          outs->push_back(std::move(o));
          break;
        }
        case Expr::Kind::kAggregate:
          return Status::Internal("aggregate reached projection path");
      }
    }
    return Status::OK();
  }

  Catalog* cat_;
  const SelectStmt& stmt_;
  PlanBuilder b_;
  std::vector<Scope> scopes_;
  std::vector<const Literal*> literals_;
  std::map<const Literal*, int> lit_index_;
  std::vector<TypeTag> param_types_;
  std::vector<Scalar> params_;
  std::set<int32_t> table_ids_;
  int cand_ = -1;  ///< current candidate list [cand -> base row], -1 = all
};

/// Typed fingerprint placeholder. The literal *kind* stays in the
/// fingerprint (its value does not): two statements share a plan only when
/// their literals can take the same parameter types, otherwise a cached
/// entry compiled from `x = 1` would reject a valid `x = 'a'` (or worse,
/// type-confuse it under an insert race).
const char* Ph(Literal::Kind k) {
  switch (k) {
    case Literal::Kind::kInt:
      return "?int";
    case Literal::Kind::kFloat:
      return "?flt";
    case Literal::Kind::kString:
      return "?str";
    case Literal::Kind::kDate:
      return "?date";
  }
  return "?";
}

void FpExpr(const Expr* e, std::string* o) {
  switch (e->kind) {
    case Expr::Kind::kColumn:
      *o += e->col.ToString();
      break;
    case Expr::Kind::kLiteral:
      *o += Ph(e->lit.kind);
      break;
    case Expr::Kind::kArith:
      *o += "(";
      FpExpr(e->lhs.get(), o);
      *o += ArithOpName(e->op);
      FpExpr(e->rhs.get(), o);
      *o += ")";
      break;
    case Expr::Kind::kAggregate:
      *o += AggFuncName(e->agg);
      *o += "(";
      if (e->arg)
        FpExpr(e->arg.get(), o);
      else
        *o += "*";
      *o += ")";
      break;
    case Expr::Kind::kStar:
      *o += "*";
      break;
  }
}

}  // namespace

std::string Fingerprint(const SelectStmt& stmt) {
  std::string o = "select ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i) o += ",";
    FpExpr(stmt.items[i].expr.get(), &o);
    if (!stmt.items[i].alias.empty()) o += " as " + stmt.items[i].alias;
  }
  o += " from " + stmt.table;
  if (!stmt.alias.empty()) o += " " + stmt.alias;
  for (const JoinClause& j : stmt.joins) {
    o += " join " + j.table;
    if (!j.alias.empty()) o += " " + j.alias;
    o += " on " + j.left.ToString() + "=" + j.right.ToString();
  }
  if (!stmt.where.empty()) {
    o += " where ";
    for (size_t i = 0; i < stmt.where.size(); ++i) {
      const Predicate& p = stmt.where[i];
      if (i) o += " and ";
      o += p.col.ToString();
      switch (p.kind) {
        case Predicate::Kind::kCompare:
          o += CmpOpName(p.op);
          o += Ph(p.value.kind);
          break;
        case Predicate::Kind::kBetween:
          o += std::string(" between ") + Ph(p.lo.kind) + " and " +
               Ph(p.hi.kind);
          break;
        case Predicate::Kind::kLike:
          o += std::string(" like ") + Ph(p.value.kind);
          break;
        case Predicate::Kind::kNotLike:
          o += std::string(" not like ") + Ph(p.value.kind);
          break;
      }
    }
  }
  if (!stmt.group_by.empty()) {
    o += " group by ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i) o += ",";
      o += stmt.group_by[i].ToString();
    }
  }
  if (stmt.order_by.present)
    o += " order by " + stmt.order_by.name + (stmt.order_by.asc ? "" : " desc");
  if (stmt.limit >= 0)
    o += StrFormat(" limit %lld", static_cast<long long>(stmt.limit));
  return o;
}

Result<CompiledPlan> CompileStmt(Catalog* catalog, const SelectStmt& stmt,
                                 std::vector<Scalar>* params_out) {
  StmtPlanner planner(catalog, stmt);
  RDB_RETURN_NOT_OK(planner.Plan());
  CompiledPlan out = planner.Take();
  MarkForRecycling(&out.prog);
  if (params_out != nullptr) *params_out = planner.TakeParams();
  return out;
}

Result<std::vector<Scalar>> BindLiterals(const SelectStmt& stmt,
                                         const std::vector<TypeTag>& types) {
  std::vector<const Literal*> lits = CollectLiterals(stmt);
  if (lits.size() != types.size())
    return Status::Internal(
        "plan-cache entry does not match the statement's literal count");
  std::vector<Scalar> out;
  out.reserve(lits.size());
  for (size_t i = 0; i < lits.size(); ++i) {
    RDB_ASSIGN_OR_RETURN(Scalar s, CoerceLiteral(*lits[i], types[i]));
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

/// Re-wraps a coercion error with "which row/column" context, keeping the
/// original status code (TypeMismatch vs OutOfRange matters to callers).
Status WithInsertContext(const Status& st, const std::string& table,
                         const std::string& column, size_t row) {
  std::string msg = StrFormat("INSERT row %zu, column '%s.%s': %s", row + 1,
                              table.c_str(), column.c_str(),
                              st.message().c_str());
  switch (st.code()) {
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    default:
      return Status::TypeMismatch(std::move(msg));
  }
}

}  // namespace

Result<std::vector<std::vector<Scalar>>> BindInsert(const Catalog& catalog,
                                                    const InsertStmt& stmt) {
  const Table* t = catalog.FindTable(stmt.table);
  if (t == nullptr)
    return Status::NotFound("unknown table '" + stmt.table + "'");
  const size_t ncols = t->num_columns();

  // slot[i]: position in the written row holding declared column i's value.
  std::vector<int> slot(ncols, -1);
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < ncols; ++i) slot[i] = static_cast<int>(i);
  } else {
    for (size_t w = 0; w < stmt.columns.size(); ++w) {
      int ci = t->FindColumn(stmt.columns[w]);
      if (ci < 0)
        return Status::NotFound("unknown column '" + stmt.table + "." +
                                stmt.columns[w] + "'");
      if (slot[ci] >= 0)
        return Status::InvalidArgument("column '" + stmt.columns[w] +
                                       "' listed twice in INSERT");
      slot[ci] = static_cast<int>(w);
    }
    for (size_t i = 0; i < ncols; ++i) {
      if (slot[i] < 0)
        return Status::InvalidArgument(StrFormat(
            "INSERT into '%s' must provide column '%s' (the engine has no "
            "defaults or NULLs)",
            stmt.table.c_str(), t->column_name(static_cast<int>(i)).c_str()));
    }
  }

  std::vector<std::vector<Scalar>> out;
  out.reserve(stmt.rows.size());
  for (size_t ri = 0; ri < stmt.rows.size(); ++ri) {
    const std::vector<Literal>& row = stmt.rows[ri];
    if (row.size() != ncols)
      return Status::InvalidArgument(StrFormat(
          "VALUES row %zu has %zu value(s); INSERT into '%s' needs %zu",
          ri + 1, row.size(), stmt.table.c_str(), ncols));
    std::vector<Scalar> bound(ncols);
    for (size_t i = 0; i < ncols; ++i) {
      int ci = static_cast<int>(i);
      Result<Scalar> s = CoerceLiteral(row[slot[i]], t->column_type(ci));
      if (!s.ok())
        return WithInsertContext(s.status(), stmt.table, t->column_name(ci),
                                 ri);
      bound[i] = std::move(s).value();
    }
    out.push_back(std::move(bound));
  }
  return out;
}

Result<CompiledPlan> CompileDelete(Catalog* catalog, const DeleteStmt& stmt,
                                   std::vector<Scalar>* params_out) {
  // A DELETE's FROM/WHERE is a degenerate SELECT; reuse the planner's scope
  // and predicate machinery on a synthetic statement.
  SelectStmt synth;
  synth.table = stmt.table;
  synth.alias = stmt.alias;
  synth.where = stmt.where;
  StmtPlanner planner(catalog, synth);
  RDB_RETURN_NOT_OK(planner.PlanDelete());
  CompiledPlan out = planner.Take();
  if (params_out != nullptr) *params_out = planner.TakeParams();
  return out;
}

namespace {

std::unique_ptr<Expr> CloneExpr(const Expr* e) {
  if (e == nullptr) return nullptr;
  auto out = std::make_unique<Expr>();
  out->kind = e->kind;
  out->col = e->col;
  out->lit = e->lit;
  out->op = e->op;
  out->lhs = CloneExpr(e->lhs.get());
  out->rhs = CloneExpr(e->rhs.get());
  out->agg = e->agg;
  out->arg = CloneExpr(e->arg.get());
  return out;
}

}  // namespace

Result<CompiledUpdate> CompileUpdate(Catalog* catalog,
                                     const UpdateStmt& stmt) {
  const Table* t = catalog->FindTable(stmt.table);
  if (t == nullptr)
    return Status::NotFound("unknown table '" + stmt.table + "'");
  const size_t ncols = t->num_columns();

  CompiledUpdate out;
  out.table = stmt.table;
  out.table_id = t->id();
  out.is_constant.assign(ncols, false);
  out.constants.resize(ncols);
  out.column_types.resize(ncols);
  for (size_t ci = 0; ci < ncols; ++ci)
    out.column_types[ci] = t->column_type(static_cast<int>(ci));

  std::vector<int> set_of(ncols, -1);  // ci -> index into stmt.sets
  for (size_t s = 0; s < stmt.sets.size(); ++s) {
    int ci = t->FindColumn(stmt.sets[s].column);
    if (ci < 0)
      return Status::NotFound("unknown column '" + stmt.table + "." +
                              stmt.sets[s].column + "'");
    if (set_of[ci] >= 0)
      return Status::InvalidArgument("column '" + stmt.sets[s].column +
                                     "' set twice in UPDATE");
    set_of[ci] = static_cast<int>(s);
  }

  // Victim scan + SET expressions ride the SELECT planner on a synthetic
  // statement: the column-containing SET values become its select items (so
  // their literals join the canonical parameter order), bare-literal SETs
  // become constants applied client-side, everything else is carried over.
  SelectStmt synth;
  synth.table = stmt.table;
  synth.alias = stmt.alias;
  synth.where = stmt.where;
  std::vector<std::pair<size_t, int>> expr_cols;
  std::vector<int> carry_cols;
  for (size_t ci = 0; ci < ncols; ++ci) {
    int s = set_of[ci];
    if (s < 0) {
      carry_cols.push_back(static_cast<int>(ci));
      continue;
    }
    const Expr* e = stmt.sets[s].value.get();
    const TypeTag ct = t->column_type(static_cast<int>(ci));
    if (e->kind == Expr::Kind::kLiteral) {
      Result<Scalar> c = CoerceLiteral(e->lit, ct);
      if (!c.ok())
        return Status::TypeMismatch(StrFormat(
            "SET %s.%s: %s", stmt.table.c_str(),
            stmt.sets[s].column.c_str(), c.status().message().c_str()));
      out.is_constant[ci] = true;
      out.constants[ci] = std::move(c).value();
      continue;
    }
    if (!ContainsColumn(e))
      return Status::InvalidArgument(
          "constant SET expressions must be a single literal; fold the "
          "arithmetic in the query text");
    if (!IsNumericTag(ct))
      return Status::TypeMismatch(StrFormat(
          "SET %s.%s = <expression>: computed SET values need a numeric "
          "column, not %s",
          stmt.table.c_str(), stmt.sets[s].column.c_str(), TypeName(ct)));
    SelectItem item;
    item.expr = CloneExpr(e);
    expr_cols.emplace_back(synth.items.size(), static_cast<int>(ci));
    synth.items.push_back(std::move(item));
  }

  StmtPlanner planner(catalog, synth);
  RDB_RETURN_NOT_OK(planner.PlanUpdate(expr_cols, carry_cols));
  out.plan = planner.Take();
  out.params = planner.TakeParams();
  return out;
}

Result<SqlQuery> CompileSql(Catalog* catalog, const std::string& text) {
  RDB_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(text));
  SqlQuery q;
  q.fingerprint = Fingerprint(stmt);
  RDB_ASSIGN_OR_RETURN(q.plan, CompileStmt(catalog, stmt, &q.params));
  return q;
}

}  // namespace recycledb::sql
