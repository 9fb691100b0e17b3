//===- ParseNumber.h - Strict decimal command-line values -------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one number parser behind every command-line value (the bigfoot
/// CLI, the bench binaries, lane counts). atoi-style parsing turns "abc"
/// into 0 and "-1" into a huge unsigned value, so a typo silently selects
/// a different run; this parser rejects both.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_PARSENUMBER_H
#define BIGFOOT_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <string_view>
#include <system_error>

namespace bigfoot {

/// A strict decimal: digits only, no sign, no trailing text, no overflow.
/// Leaves \p Out unspecified and returns false otherwise.
template <typename T> bool parseNumber(std::string_view Text, T &Out) {
  if (Text.empty() || Text.front() == '-')
    return false;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_PARSENUMBER_H
