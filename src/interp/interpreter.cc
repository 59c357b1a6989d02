#include "interp/interpreter.h"

#include <algorithm>

#include "engine/materialize.h"
#include "engine/operators.h"
#include "util/check.h"
#include "util/timer.h"

namespace recycledb {

namespace {

/// Merges sorted ColumnId dependency sets (kept small and sorted).
void MergeDeps(std::vector<ColumnId>* into, const std::vector<ColumnId>& from) {
  if (from.empty()) return;
  std::vector<ColumnId> merged;
  merged.reserve(into->size() + from.size());
  std::set_union(into->begin(), into->end(), from.begin(), from.end(),
                 std::back_inserter(merged));
  *into = std::move(merged);
}

engine::AggFn AggFnOf(Opcode op) {
  switch (op) {
    case Opcode::kAggrCount:
    case Opcode::kGrpCount:
      return engine::AggFn::kCount;
    case Opcode::kAggrSum:
    case Opcode::kGrpSum:
      return engine::AggFn::kSum;
    case Opcode::kAggrMin:
    case Opcode::kGrpMin:
      return engine::AggFn::kMin;
    case Opcode::kAggrMax:
    case Opcode::kGrpMax:
      return engine::AggFn::kMax;
    case Opcode::kAggrAvg:
    case Opcode::kGrpAvg:
      return engine::AggFn::kAvg;
    default:
      RDB_UNREACHABLE();
  }
}

engine::BinOp BinOpOf(Opcode op) {
  switch (op) {
    case Opcode::kCalcAdd:
      return engine::BinOp::kAdd;
    case Opcode::kCalcSub:
      return engine::BinOp::kSub;
    case Opcode::kCalcMul:
      return engine::BinOp::kMul;
    case Opcode::kCalcDiv:
      return engine::BinOp::kDiv;
    default:
      RDB_UNREACHABLE();
  }
}

engine::CmpOp CmpOpOf(Opcode op) {
  switch (op) {
    case Opcode::kCmpEq:
      return engine::CmpOp::kEq;
    case Opcode::kCmpNe:
      return engine::CmpOp::kNe;
    case Opcode::kCmpLt:
      return engine::CmpOp::kLt;
    case Opcode::kCmpLe:
      return engine::CmpOp::kLe;
    case Opcode::kCmpGt:
      return engine::CmpOp::kGt;
    case Opcode::kCmpGe:
      return engine::CmpOp::kGe;
    default:
      RDB_UNREACHABLE();
  }
}

}  // namespace

Result<std::vector<MalValue>> Interpreter::ExecInstr(
    const Instruction& ins, const std::vector<MalValue>& a,
    QueryResult* result) {
  using namespace engine;  // NOLINT: operator vocabulary
  std::vector<MalValue> out;
  switch (ins.op) {
    case Opcode::kBind: {
      // With a snapshot pinned, binds resolve against the immutable epoch
      // view and never touch the mutable catalog (lock-free MVCC reads).
      RDB_ASSIGN_OR_RETURN(
          BatPtr b, snapshot_ != nullptr
                        ? snapshot_->BindColumn(a[1].scalar().AsStr(),
                                                a[2].scalar().AsStr())
                        : catalog_->BindColumn(a[1].scalar().AsStr(),
                                               a[2].scalar().AsStr()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kBindIdx: {
      RDB_ASSIGN_OR_RETURN(
          BatPtr b, snapshot_ != nullptr
                        ? snapshot_->BindIndex(a[2].scalar().AsStr())
                        : catalog_->BindIndex(a[2].scalar().AsStr()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kSelect: {
      RDB_ASSIGN_OR_RETURN(
          BatPtr b, Select(a[0].bat(), a[1].scalar(), a[2].scalar(),
                           a[3].scalar().AsBit(), a[4].scalar().AsBit()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kUselect: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, Uselect(a[0].bat(), a[1].scalar()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kAntiUselect: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, AntiUselect(a[0].bat(), a[1].scalar()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kLikeSelect: {
      RDB_ASSIGN_OR_RETURN(BatPtr b,
                           LikeSelect(a[0].bat(), a[1].scalar().AsStr()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kSelectNotNil: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, SelectNotNil(a[0].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kJoin: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, Join(a[0].bat(), a[1].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kSemijoin: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, Semijoin(a[0].bat(), a[1].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kAntiSemijoin: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, AntiSemijoin(a[0].bat(), a[1].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kMarkT:
      out.emplace_back(MarkT(a[0].bat(), a[1].scalar().AsOid()));
      break;
    case Opcode::kReverse:
      out.emplace_back(Reverse(a[0].bat()));
      break;
    case Opcode::kMirror:
      out.emplace_back(Mirror(a[0].bat()));
      break;
    case Opcode::kSlice: {
      RDB_ASSIGN_OR_RETURN(
          BatPtr b,
          Slice(a[0].bat(), static_cast<size_t>(a[1].scalar().AsLng()),
                static_cast<size_t>(a[2].scalar().AsLng())));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kKunique: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, Kunique(a[0].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kGroupBy: {
      RDB_ASSIGN_OR_RETURN(GroupResult g, GroupBy(a[0].bat()));
      out.emplace_back(std::move(g.map));
      out.emplace_back(std::move(g.reps));
      break;
    }
    case Opcode::kSubGroupBy: {
      RDB_ASSIGN_OR_RETURN(GroupResult g, SubGroupBy(a[0].bat(), a[1].bat()));
      out.emplace_back(std::move(g.map));
      out.emplace_back(std::move(g.reps));
      break;
    }
    case Opcode::kAggrCount:
    case Opcode::kAggrSum:
    case Opcode::kAggrMin:
    case Opcode::kAggrMax:
    case Opcode::kAggrAvg: {
      RDB_ASSIGN_OR_RETURN(Scalar s, Aggr(AggFnOf(ins.op), a[0].bat()));
      out.emplace_back(std::move(s));
      break;
    }
    case Opcode::kGrpCount:
    case Opcode::kGrpSum:
    case Opcode::kGrpMin:
    case Opcode::kGrpMax:
    case Opcode::kGrpAvg: {
      RDB_ASSIGN_OR_RETURN(
          BatPtr b, GroupedAggr(AggFnOf(ins.op), a[0].bat(), a[1].bat(),
                                a[2].bat()->size()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kCalcAdd:
    case Opcode::kCalcSub:
    case Opcode::kCalcMul:
    case Opcode::kCalcDiv: {
      engine::BinOp op = BinOpOf(ins.op);
      Result<BatPtr> r = [&]() -> Result<BatPtr> {
        if (a[0].is_bat() && a[1].is_bat())
          return CalcBin(op, a[0].bat(), a[1].bat());
        if (a[0].is_bat()) return CalcBinConst(op, a[0].bat(), a[1].scalar());
        if (a[1].is_bat()) return CalcConstBin(op, a[0].scalar(), a[1].bat());
        return Status::InvalidArgument("calc needs at least one bat operand");
      }();
      if (!r.ok()) return r.status();
      out.emplace_back(std::move(r).value());
      break;
    }
    case Opcode::kCalcYear: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, CalcYear(a[0].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe: {
      RDB_ASSIGN_OR_RETURN(BatPtr b,
                           CalcCmp(CmpOpOf(ins.op), a[0].bat(), a[1].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kSortTail: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, SortTail(a[0].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kSortTailRev: {
      RDB_ASSIGN_OR_RETURN(BatPtr b, SortTailRev(a[0].bat()));
      out.emplace_back(std::move(b));
      break;
    }
    case Opcode::kScalarMul:
      out.emplace_back(
          Scalar::Dbl(a[0].scalar().ToDouble() * a[1].scalar().ToDouble()));
      break;
    case Opcode::kAddMonths:
      out.emplace_back(Scalar::DateVal(
          AddMonths(a[0].scalar().AsDate(), a[1].scalar().AsInt())));
      break;
    case Opcode::kAddDays:
      out.emplace_back(Scalar::DateVal(
          AddDays(a[0].scalar().AsDate(), a[1].scalar().AsInt())));
      break;
    case Opcode::kExportValue:
      result->values.emplace_back(a[1].scalar().AsStr(), a[0]);
      break;
    case Opcode::kExportBat:
      result->values.emplace_back(a[1].scalar().AsStr(), a[0]);
      break;
  }
  return out;
}

Result<QueryResult> Interpreter::Run(const Program& prog,
                                     const std::vector<Scalar>& params) {
  if (static_cast<int>(params.size()) != prog.num_params)
    return Status::InvalidArgument("parameter count mismatch");
  StopWatch total;
  last_run_ = RunStats();

  std::vector<MalValue> stack(prog.vars.size());
  std::vector<std::vector<ColumnId>> deps(prog.vars.size());
  for (size_t i = 0; i < prog.vars.size(); ++i) {
    if (prog.vars[i].is_const) stack[i] = prog.vars[i].const_val;
  }
  for (int i = 0; i < prog.num_params; ++i) stack[i] = params[i];

  QueryResult result;
  if (recycler_) recycler_->BeginQuery(prog);

  std::vector<MalValue> args;
  for (size_t pc = 0; pc < prog.instrs.size(); ++pc) {
    const Instruction& ins = prog.instrs[pc];
    args.clear();
    for (uint16_t ai : ins.args) args.push_back(stack[ai]);

    // Dependency propagation: results derive from all bat arguments plus
    // whatever the instruction touches directly (bind/bindIdx).
    std::vector<ColumnId> instr_deps;
    for (uint16_t ai : ins.args) MergeDeps(&instr_deps, deps[ai]);
    if (ins.op == Opcode::kBind) {
      auto cid = snapshot_ != nullptr
                     ? snapshot_->GetColumnId(args[1].scalar().AsStr(),
                                              args[2].scalar().AsStr())
                     : catalog_->GetColumnId(args[1].scalar().AsStr(),
                                             args[2].scalar().AsStr());
      if (cid.ok()) instr_deps.push_back(cid.value());
    } else if (ins.op == Opcode::kBindIdx) {
      auto cid = snapshot_ != nullptr
                     ? snapshot_->GetIndexId(args[2].scalar().AsStr())
                     : catalog_->GetIndexId(args[2].scalar().AsStr());
      if (cid.ok()) instr_deps.push_back(cid.value());
    }
    std::sort(instr_deps.begin(), instr_deps.end());
    instr_deps.erase(std::unique(instr_deps.begin(), instr_deps.end()),
                     instr_deps.end());

    ++last_run_.instrs;
    RecyclerHook::InstrView view{&prog, static_cast<int>(pc), ins.op, &args};

    std::vector<MalValue> rets;
    bool reused = false;
    if (recycler_ && ins.monitored) {
      ++last_run_.monitored;
      reused = recycler_->OnEntry(view, &rets);
      if (reused) ++last_run_.pool_hits;
    }
    if (!reused) {
      StopWatch sw;
      auto r = ExecInstr(ins, args, &result);
      if (!r.ok()) {
        if (recycler_) recycler_->EndQuery();
        return r.status();
      }
      rets = std::move(r).value();
      double ms = sw.ElapsedMillis();
      last_run_.exec_ms += ms;
      if (ins.monitored) last_run_.monitored_exec_ms += ms;
      if (recycler_ && ins.monitored) {
        recycler_->OnExit(view, rets, ms, instr_deps);
      }
    }

    RDB_CHECK(rets.size() == ins.rets.size());
    for (size_t k = 0; k < rets.size(); ++k) {
      stack[ins.rets[k]] = std::move(rets[k]);
      deps[ins.rets[k]] = instr_deps;
    }
  }

  if (recycler_) recycler_->EndQuery();
  last_run_.wall_ms = total.ElapsedMillis();
  return result;
}

}  // namespace recycledb
