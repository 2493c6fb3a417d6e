// Whole-string number parsing for configuration text (the spawn bundle,
// fault plans, command-line flags).
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace sia {

// Parses all of `text` as a number of `out`'s own type. Trailing bytes,
// an empty string, or a value outside the type's range (e.g. 4294967297
// for an int) make it a bad value: returns false and leaves `out` as is.
template <class T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || text.empty()) return false;
  out = value;
  return true;
}

}  // namespace sia
