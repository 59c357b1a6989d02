#ifndef RECYCLEDB_UTIL_STR_H_
#define RECYCLEDB_UTIL_STR_H_

#include <cstdarg>
#include <string>
#include <string_view>

namespace recycledb {

/// printf-style formatting into a std::string (gcc 12 lacks std::format).
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// SQL LIKE pattern match with '%' (any run) and '_' (any single char).
/// No escape-character support; the workloads do not use escapes.
bool LikeMatch(std::string_view value, const std::string& pattern);

/// A LIKE pattern preprocessed once and matched many times: classification
/// happens at construction (LikeSelect compiles one per call instead of
/// re-interpreting the raw pattern per row), and the common literal shapes
/// — exact, "lit%", "%lit", "%lit%", "%" — match without entering the
/// general wildcard automaton. Matches LikeMatch exactly on every input.
class LikePattern {
 public:
  explicit LikePattern(std::string pattern);

  bool Match(std::string_view value) const;

 private:
  enum class Shape {
    kAny,       ///< "%" (or a run of only '%'): everything matches
    kExact,     ///< no wildcards: value == literal
    kPrefix,    ///< "lit%"
    kSuffix,    ///< "%lit"
    kContains,  ///< "%lit%"
    kGeneral,   ///< anything else: fall back to LikeMatch
  };

  Shape shape_;
  std::string literal_;  ///< the wildcard-free literal of the fast shapes
  std::string pattern_;  ///< original pattern (kGeneral)
};

}  // namespace recycledb

#endif  // RECYCLEDB_UTIL_STR_H_
