// Small string helpers shared across the tool-chain (lexers, printers).
//
// Pure functions over string_view/string only — no locale, no allocation
// surprises, no dependency on anything else in support/. The ADL parser
// and Scilab front end tokenize with split/trim/startsWith; report and
// bench code formats with join/formatCycles; the CLIs read numeric flags
// with parseNumber. All helpers are deterministic (ASCII-only semantics),
// which keeps every printed report byte-stable across platforms — the
// determinism tests compare reports verbatim.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace argo::support {

/// Splits `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// True if `text` starts with `prefix`.
[[nodiscard]] bool startsWith(std::string_view text,
                              std::string_view prefix) noexcept;

/// Joins items with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep);

/// Parses the whole of `text` as a decimal number. Defined for int,
/// std::uint64_t and double; std::nullopt when `text` is empty, has
/// any character the number does not consume (a sign on an unsigned type,
/// surrounding whitespace, a trailing suffix), or is out of range.
template <typename T>
[[nodiscard]] std::optional<T> parseNumber(std::string_view text) noexcept;

/// Formats a cycle count with thousands separators for reports, e.g. 1_234_567.
[[nodiscard]] std::string formatCycles(long long cycles);

}  // namespace argo::support
