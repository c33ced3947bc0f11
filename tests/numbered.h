// Numbered names for test fixtures ("n0", "a3", ...).
#pragma once

#include <cstdint>
#include <string>

namespace argo::test {

/// `prefix` followed by the decimal `n`. Appended, not built as
/// `"literal" + std::string`: GCC 12 reports false -Wrestrict warnings on
/// that inlined operator+ in optimized builds.
inline std::string numbered(const char* prefix, std::int64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace argo::test
