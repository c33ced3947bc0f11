#include "support/strings.h"

#include <cctype>
#include <charconv>

namespace argo::support {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

template <typename T>
std::optional<T> parseNumber(std::string_view text) noexcept {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return parsed;
}

template std::optional<int> parseNumber<int>(std::string_view) noexcept;
template std::optional<std::uint64_t> parseNumber<std::uint64_t>(
    std::string_view) noexcept;
template std::optional<double> parseNumber<double>(std::string_view) noexcept;

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool startsWith(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string formatCycles(long long cycles) {
  std::string raw = std::to_string(cycles);
  std::string out;
  const bool neg = !raw.empty() && raw.front() == '-';
  const std::size_t first = neg ? 1 : 0;
  for (std::size_t i = first; i < raw.size(); ++i) {
    if (i != first && (raw.size() - i) % 3 == 0) out += '_';
    out += raw[i];
  }
  return neg ? "-" + out : out;
}

}  // namespace argo::support
