#include "answers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "interp/interpreter.h"
#include "sql/planner.h"

namespace perfbench {

using recycledb::Scalar;
using recycledb::TypeTag;

namespace {

Cell ToCell(const Scalar& v) {
  Cell c;
  c.tag = v.tag();
  switch (v.tag()) {
    case TypeTag::kVoid:
      break;
    case TypeTag::kBit:
      c.i = v.AsBit() ? 1 : 0;
      break;
    case TypeTag::kInt:
      c.i = v.AsInt();
      break;
    case TypeTag::kDate:
      c.i = v.AsDate();
      break;
    case TypeTag::kLng:
      c.i = v.AsLng();
      break;
    case TypeTag::kOid:
      c.i = static_cast<int64_t>(v.AsOid());
      break;
    case TypeTag::kDbl:
      c.d = v.AsDbl();
      break;
    case TypeTag::kStr:
      c.s = v.AsStr();
      break;
  }
  return c;
}

bool CellLess(const Cell& a, const Cell& b) {
  return std::tie(a.tag, a.i, a.d, a.s) < std::tie(b.tag, b.i, b.d, b.s);
}

bool RowLess(const std::vector<Cell>& a, const std::vector<Cell>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      CellLess);
}

bool SameCell(const Cell& a, const Cell& b) {
  if (a.tag != b.tag || a.i != b.i || a.s != b.s) return false;
  if (std::isnan(a.d) || std::isnan(b.d))
    return std::isnan(a.d) && std::isnan(b.d);
  const double scale = std::max({std::fabs(a.d), std::fabs(b.d), 1.0});
  return std::fabs(a.d - b.d) <= 1e-9 * scale;
}

std::string CellText(const Cell& c) {
  char buf[64];
  switch (c.tag) {
    case TypeTag::kDbl:
      std::snprintf(buf, sizeof(buf), "%.12g", c.d);
      return buf;
    case TypeTag::kStr:
      return "'" + c.s + "'";
    default:
      return std::to_string(c.i);
  }
}

}  // namespace

Answer Canonicalize(const recycledb::QueryResult& r) {
  Answer a;
  std::vector<std::vector<Cell>> cols;
  for (const auto& [label, v] : r.values) {
    a.labels.push_back(label);
    std::vector<Cell> col;
    if (v.is_bat()) {
      const auto& bat = v.bat();
      col.reserve(bat->size());
      for (size_t i = 0; i < bat->size(); ++i)
        col.push_back(ToCell(bat->TailAt(i)));
    } else {
      col.push_back(ToCell(v.scalar()));
    }
    cols.push_back(std::move(col));
  }
  bool aligned = true;
  for (const auto& c : cols) aligned &= c.size() == cols.front().size();
  if (aligned && !cols.empty()) {
    a.rows.resize(cols.front().size());
    for (auto& c : cols)
      for (size_t i = 0; i < c.size(); ++i)
        a.rows[i].push_back(std::move(c[i]));
  } else {
    for (auto& c : cols) {
      std::sort(c.begin(), c.end(), CellLess);
      a.rows.push_back(std::move(c));
    }
  }
  std::sort(a.rows.begin(), a.rows.end(), RowLess);
  return a;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.labels != b.labels || a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c)
      if (!SameCell(a.rows[r][c], b.rows[r][c])) return false;
  }
  return true;
}

std::string Describe(const Answer& a, size_t max_rows) {
  std::string out = std::to_string(a.rows.size()) + " rows";
  for (size_t r = 0; r < a.rows.size() && r < max_rows; ++r) {
    out += " [";
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (c > 0) out += ", ";
      out += CellText(a.rows[r][c]);
    }
    out += "]";
  }
  return out;
}

recycledb::Result<Answer> ReferenceAnswer(recycledb::Catalog* cat,
                                          const std::string& sql) {
  auto q = recycledb::sql::CompileSql(cat, sql);
  if (!q.ok()) return q.status();
  recycledb::Interpreter interp(cat);
  auto r = interp.Run(q.value().plan.prog, q.value().params);
  if (!r.ok()) return r.status();
  return Canonicalize(r.value());
}

bool AnswerChecker::Check(const std::string& sql, const Answer& want,
                          const recycledb::QueryResult& got) {
  checked_.fetch_add(1);
  Answer have = Canonicalize(got);
  if (SameAnswer(want, have)) return true;
  if (mismatches_.fetch_add(1) < 3) {
    std::fprintf(stderr, "answer mismatch: %s\n  want %s\n  got  %s\n",
                 sql.c_str(), Describe(want).c_str(), Describe(have).c_str());
  }
  return false;
}

}  // namespace perfbench
