/// \file parse.hpp
/// Strict parsing of numeric command-line values. A token is accepted only
/// when it is wholly one number of the requested type, so a typo such as
/// "abc", "2x" or "500m" is rejected instead of being read as 0 or as its
/// numeric prefix the way std::atoi/std::atof would.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace etcs::util {

/// The value `text` spells as a `T` (an integer type in decimal, or a
/// floating-point type), or nullopt when `text` is empty, has any character
/// outside that number (whitespace and a leading '+' included), or is out
/// of `T`'s range.
template <typename T>
[[nodiscard]] std::optional<T> parseNumber(std::string_view text) {
    T value{};
    const char* const end = text.data() + text.size();
    const auto [rest, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || rest != end) {
        return std::nullopt;
    }
    return value;
}

}  // namespace etcs::util
