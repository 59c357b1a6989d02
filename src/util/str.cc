#include "util/str.h"

#include <cstdio>
#include <vector>

namespace recycledb {

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n <= 0) {
    va_end(ap2);
    return std::string();
  }
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

bool LikeMatch(std::string_view value, const std::string& pattern) {
  // Iterative two-pointer wildcard matching: linear in |value| + |pattern|
  // with backtracking to the last '%'.
  size_t v = 0, p = 0;
  size_t star_p = std::string::npos, star_v = 0;
  while (v < value.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == value[v])) {
      ++v;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

LikePattern::LikePattern(std::string pattern) : pattern_(std::move(pattern)) {
  size_t first = pattern_.find_first_not_of('%');
  if (first == std::string::npos) {
    // Only '%' runs (including the empty pattern matching only "").
    shape_ = pattern_.empty() ? Shape::kExact : Shape::kAny;
    return;
  }
  size_t last = pattern_.find_last_not_of('%');
  std::string core = pattern_.substr(first, last - first + 1);
  if (core.find('%') != std::string::npos ||
      core.find('_') != std::string::npos) {
    shape_ = Shape::kGeneral;
    return;
  }
  bool lead = first > 0;                      // pattern starts with '%'
  bool trail = last + 1 < pattern_.size();    // pattern ends with '%'
  literal_ = std::move(core);
  shape_ = lead ? (trail ? Shape::kContains : Shape::kSuffix)
                : (trail ? Shape::kPrefix : Shape::kExact);
}

bool LikePattern::Match(std::string_view value) const {
  switch (shape_) {
    case Shape::kAny:
      return true;
    case Shape::kExact:
      return value == literal_;
    case Shape::kPrefix:
      return value.size() >= literal_.size() &&
             value.compare(0, literal_.size(), literal_) == 0;
    case Shape::kSuffix:
      return value.size() >= literal_.size() &&
             value.compare(value.size() - literal_.size(), literal_.size(),
                           literal_) == 0;
    case Shape::kContains:
      return value.find(literal_) != std::string::npos;
    case Shape::kGeneral:
      return LikeMatch(value, pattern_);
  }
  return false;
}

}  // namespace recycledb
