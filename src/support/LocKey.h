//===- LocKey.h - Human-readable shadow-location keys -----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place that renders shadow locations as strings: "obj#N.f",
/// "arr#N", "arr#N[range]". The detector's race reports and the tests'
/// oracle messages agree on these spellings because they all call these
/// helpers. Rendering happens only at report time — never on the
/// per-access hot path, which works on packed ids (support/Symbol.h).
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_LOCKEY_H
#define BIGFOOT_SUPPORT_LOCKEY_H

#include <cstdint>
#include <string>

namespace bigfoot::lockey {

/// "obj#N" — an object without a field (lock identity, allocation trace).
inline std::string obj(uint64_t Id) { return "obj#" + std::to_string(Id); }

/// "obj#N.f" — a field shadow location.
inline std::string objField(uint64_t Id, const std::string &Field) {
  return "obj#" + std::to_string(Id) + "." + Field;
}

/// "arr#N" — a whole array (racy-location keys collapse ranges).
inline std::string array(uint64_t Id) { return "arr#" + std::to_string(Id); }

/// "arr#N<range>" — an element range, using the range's own rendering
/// ("[3]" for one element, "[0..8]" or "[0..8:2]" for more); \p RangeStr
/// comes from StridedRange::str().
inline std::string arrayRange(uint64_t Id, const std::string &RangeStr) {
  return "arr#" + std::to_string(Id) + RangeStr;
}

} // namespace bigfoot::lockey

#endif // BIGFOOT_SUPPORT_LOCKEY_H
