// Minimal string helpers shared by the constraint and KISS2 parsers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace encodesat {

/// Splits on any run of the given delimiter characters; empty tokens are
/// dropped, so "  a  b " -> {"a", "b"}.
std::vector<std::string> split_ws(std::string_view s,
                                  std::string_view delims = " \t\r\n");

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Parses a decimal count: digits only (no sign, no spaces), value in
/// [0, max]. Returns std::nullopt otherwise — the KISS2 and PLA header
/// parsers turn that into a line-specific diagnostic.
std::optional<int> parse_count(std::string_view s, int max);

/// True if s starts with the given prefix.
bool starts_with(std::string_view s, std::string_view prefix);

}  // namespace encodesat
