// Instruction subsumption (paper §5). subsumption.h describes the chain DP
// behind combined subsumption and what the candidate cap is for.

#include "core/subsumption.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "engine/operators.h"
#include "util/timer.h"

namespace recycledb {

namespace {

/// lo <= hi as interval endpoints (true when the interval [lo, hi] is
/// non-empty at these bounds).
bool LoLeHi(const RangeBound& lo, const RangeBound& hi) {
  if (lo.unbounded || hi.unbounded) return true;
  int c = lo.v.Compare(hi.v);
  if (c < 0) return true;
  if (c > 0) return false;
  return lo.inclusive && hi.inclusive;
}

/// outer.lo covers inner.lo (extends at least as far down).
bool LoCovers(const RangeBound& outer, const RangeBound& inner) {
  if (outer.unbounded) return true;
  if (inner.unbounded) return false;
  int c = outer.v.Compare(inner.v);
  if (c < 0) return true;
  if (c > 0) return false;
  return outer.inclusive || !inner.inclusive;
}

/// outer.hi covers inner.hi (extends at least as far up).
bool HiCovers(const RangeBound& outer, const RangeBound& inner) {
  if (outer.unbounded) return true;
  if (inner.unbounded) return false;
  int c = outer.v.Compare(inner.v);
  if (c > 0) return true;
  if (c < 0) return false;
  return outer.inclusive || !inner.inclusive;
}

/// min of two upper bounds (the more restrictive one).
RangeBound MinHi(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded) return b;
  if (b.unbounded) return a;
  int c = a.v.Compare(b.v);
  if (c < 0) return a;
  if (c > 0) return b;
  RangeBound r = a;
  r.inclusive = a.inclusive && b.inclusive;
  return r;
}

Scalar BoundValueOrNil(const RangeBound& b, TypeTag t) {
  return b.unbounded ? Scalar::Nil(t) : b.v;
}

/// Literal segments of a LIKE pattern (split on both wildcards): any string
/// matching the pattern is guaranteed to contain each segment.
std::vector<std::string> LikeSegments(const std::string& pattern) {
  std::vector<std::string> segs;
  std::string cur;
  for (char c : pattern) {
    if (c == '%' || c == '_') {
      if (!cur.empty()) segs.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) segs.push_back(cur);
  return segs;
}

/// True if `pattern` is of the form %s% with a single literal s and no
/// other wildcards.
bool IsContainsPattern(const std::string& pattern, std::string* literal) {
  if (pattern.size() < 2 || pattern.front() != '%' || pattern.back() != '%')
    return false;
  std::string inner = pattern.substr(1, pattern.size() - 2);
  if (inner.find('%') != std::string::npos ||
      inner.find('_') != std::string::npos)
    return false;
  *literal = inner;
  return true;
}

}  // namespace

ValRange RangeOfSelect(const std::vector<MalValue>& args) {
  ValRange r;
  const Scalar& lo = args[1].scalar();
  const Scalar& hi = args[2].scalar();
  r.lo.unbounded = lo.is_nil();
  r.lo.v = lo;
  r.lo.inclusive = args[3].scalar().AsBit();
  r.hi.unbounded = hi.is_nil();
  r.hi.v = hi;
  r.hi.inclusive = args[4].scalar().AsBit();
  return r;
}

bool RangeCovers(const ValRange& outer, const ValRange& inner) {
  return LoCovers(outer.lo, inner.lo) && HiCovers(outer.hi, inner.hi);
}

bool RangeOverlaps(const ValRange& a, const ValRange& b) {
  return LoLeHi(a.lo, b.hi) && LoLeHi(b.lo, a.hi);
}

std::vector<size_t> CheapestChainCover(const ValRange& target,
                                       const std::vector<CoverCandidate>& r,
                                       size_t overhead_rows, size_t base_rows) {
  const size_t n = r.size();
  // R by lower bound, the one reaching further down first.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return !LoCovers(r[b].range.lo, r[a].range.lo);
  });

  // best[i]: the fewest rows of a chain that covers the target's lower bound
  // and ends with order[i]; prev[i]: its predecessor in the chain.
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<size_t> best(n, kNone);
  std::vector<size_t> prev(n, kNone);
  size_t end = kNone;
  size_t end_cost = base_rows;
  for (size_t i = 0; i < n; ++i) {
    const ValRange& k = r[order[i]].range;
    const size_t rows = r[order[i]].rows;
    if (LoCovers(k.lo, target.lo)) best[i] = rows;
    for (size_t j = 0; j < i; ++j) {
      if (best[j] == kNone) continue;
      // k must share a point with j and reach past j's upper bound.
      const ValRange& pj = r[order[j]].range;
      if (!LoLeHi(k.lo, pj.hi) || HiCovers(pj.hi, k.hi)) continue;
      if (best[j] + rows < best[i]) {
        best[i] = best[j] + rows;
        prev[i] = j;
      }
    }
    if (best[i] != kNone && HiCovers(k.hi, target.hi) &&
        best[i] + overhead_rows < end_cost) {
      end = i;
      end_cost = best[i] + overhead_rows;
    }
  }

  std::vector<size_t> chain;
  for (size_t i = end; i != kNone; i = prev[i]) chain.push_back(order[i]);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::optional<SubsumeOutcome> SubsumptionEngine::TrySelect(
    Opcode op, const std::vector<MalValue>& args, uint64_t visible_epoch,
    double* combined_ms) {
  if (combined_ms != nullptr) *combined_ms = 0;
  if (!args[0].is_bat()) return std::nullopt;
  uint64_t src_bat = args[0].bat()->id();

  ValRange target;
  if (op == Opcode::kSelect) {
    target = RangeOfSelect(args);
  } else if (op == Opcode::kUselect) {
    target.lo = {args[1].scalar(), true, false};
    target.hi = {args[1].scalar(), true, false};
  } else {
    return std::nullopt;
  }
  // Unbounded-both-ways targets are the whole column; nothing to gain.
  if (target.lo.unbounded && target.hi.unbounded) return std::nullopt;

  std::vector<PoolEntry*> cands =
      pool_->FindByOpAndFirstArg(Opcode::kSelect, src_bat, visible_epoch);
  if (cands.empty()) return std::nullopt;

  // --- singleton subsumption (§5.1): cheapest covering intermediate -------
  PoolEntry* best = nullptr;
  for (PoolEntry* c : cands) {
    ValRange cr = RangeOfSelect(c->args);
    if (!RangeCovers(cr, target)) continue;
    if (best == nullptr || c->result_rows < best->result_rows) best = c;
  }
  if (best != nullptr) {
    const BatPtr& inter = best->results[0].bat();
    TypeTag t = inter->tail().LogicalType();
    auto r = engine::Select(inter, BoundValueOrNil(target.lo, t),
                            BoundValueOrNil(target.hi, t), target.lo.inclusive,
                            target.hi.inclusive);
    if (!r.ok()) return std::nullopt;
    SubsumeOutcome out;
    out.results.emplace_back(std::move(r).value());
    out.sources.push_back(best);
    return out;
  }

  if (!opts_.allow_combined) return std::nullopt;
  return TryCombined(target, args, std::move(cands), combined_ms);
}

std::optional<SubsumeOutcome> SubsumptionEngine::TryCombined(
    const ValRange& target, const std::vector<MalValue>& args,
    std::vector<PoolEntry*> cands, double* combined_ms) {
  StopWatch alg_timer;

  // R: candidates overlapping the target (Algorithm 2 lines 6-9), capped to
  // the ones with the fewest rows. Ties keep the earlier-admitted entry.
  std::vector<PoolEntry*> r_set;
  for (PoolEntry* c : cands) {
    if (RangeOverlaps(RangeOfSelect(c->args), target)) r_set.push_back(c);
  }
  if (r_set.size() > opts_.max_candidates) {
    std::sort(r_set.begin(), r_set.end(),
              [](const PoolEntry* a, const PoolEntry* b) {
                if (a->result_rows != b->result_rows)
                  return a->result_rows < b->result_rows;
                return a->id < b->id;
              });
    r_set.resize(opts_.max_candidates);
  }
  std::vector<CoverCandidate> r;
  r.reserve(r_set.size());
  for (PoolEntry* c : r_set) {
    r.push_back({RangeOfSelect(c->args), c->result_rows});
  }
  // The cost of the regular computation is the size of the column operand
  // (§5.2, C(Xi) = Sz(Xi)); a cover must beat it.
  size_t base_rows = args[0].bat()->size();
  std::vector<size_t> chain =
      CheapestChainCover(target, r, opts_.overhead_rows, base_rows);
  if (combined_ms != nullptr) *combined_ms = alg_timer.ElapsedMillis();
  if (chain.empty()) return std::nullopt;

  // Piecewise execution over disjoint sub-ranges: each chain member answers
  // the part of the target between the previous member's upper bound and
  // its own.
  SubsumeOutcome out;
  out.combined = true;
  RangeBound pos = target.lo;
  std::vector<BatPtr> pieces;
  for (size_t idx : chain) {
    RangeBound piece_hi = MinHi(r[idx].range.hi, target.hi);
    const BatPtr& inter = r_set[idx]->results[0].bat();
    TypeTag t = inter->tail().LogicalType();
    auto piece = engine::Select(inter, BoundValueOrNil(pos, t),
                                BoundValueOrNil(piece_hi, t), pos.inclusive,
                                piece_hi.inclusive);
    if (!piece.ok()) return std::nullopt;
    pieces.push_back(std::move(piece).value());
    out.sources.push_back(r_set[idx]);
    pos.v = piece_hi.v;
    pos.inclusive = !piece_hi.inclusive;
    pos.unbounded = false;
  }

  auto cat = engine::Concat(pieces);
  if (!cat.ok()) return std::nullopt;
  out.results.emplace_back(std::move(cat).value());
  return out;
}

std::optional<SubsumeOutcome> SubsumptionEngine::TryLike(
    const std::vector<MalValue>& args, uint64_t visible_epoch) {
  if (!args[0].is_bat()) return std::nullopt;
  uint64_t src_bat = args[0].bat()->id();
  const std::string& pattern = args[1].scalar().AsStr();
  std::vector<std::string> segments = LikeSegments(pattern);

  std::vector<PoolEntry*> cands =
      pool_->FindByOpAndFirstArg(Opcode::kLikeSelect, src_bat, visible_epoch);
  PoolEntry* best = nullptr;
  for (PoolEntry* c : cands) {
    const std::string& cp = c->args[1].scalar().AsStr();
    if (cp == pattern) continue;  // exact match handles this
    bool covers = false;
    if (cp == "%") {
      covers = true;
    } else {
      std::string literal;
      if (IsContainsPattern(cp, &literal)) {
        for (const std::string& seg : segments) {
          if (seg.find(literal) != std::string::npos) {
            covers = true;
            break;
          }
        }
      }
    }
    if (!covers) continue;
    if (best == nullptr || c->result_rows < best->result_rows) best = c;
  }
  if (best == nullptr) return std::nullopt;
  auto r = engine::LikeSelect(best->results[0].bat(), pattern);
  if (!r.ok()) return std::nullopt;
  SubsumeOutcome out;
  out.results.emplace_back(std::move(r).value());
  out.sources.push_back(best);
  return out;
}

std::optional<SubsumeOutcome> SubsumptionEngine::TrySemijoin(
    const std::vector<MalValue>& args, uint64_t visible_epoch) {
  if (!args[0].is_bat() || !args[1].is_bat()) return std::nullopt;
  uint64_t src_bat = args[0].bat()->id();
  uint64_t w_bat = args[1].bat()->id();

  std::vector<PoolEntry*> cands =
      pool_->FindByOpAndFirstArg(Opcode::kSemijoin, src_bat, visible_epoch);
  PoolEntry* best = nullptr;
  for (PoolEntry* c : cands) {
    if (!c->args[1].is_bat()) continue;
    uint64_t v_bat = c->args[1].bat()->id();
    if (v_bat == w_bat) continue;  // exact match handles this
    if (!pool_->IsSubsetOf(w_bat, v_bat)) continue;
    if (best == nullptr || c->result_rows < best->result_rows) best = c;
  }
  if (best == nullptr) return std::nullopt;
  auto r = engine::Semijoin(best->results[0].bat(), args[1].bat());
  if (!r.ok()) return std::nullopt;
  SubsumeOutcome out;
  out.results.emplace_back(std::move(r).value());
  out.sources.push_back(best);
  return out;
}

}  // namespace recycledb
