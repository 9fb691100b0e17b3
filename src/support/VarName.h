//===- VarName.h - Interned variable names for StaticBF ---------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one type of a local or field name, from the parser to StaticBF's
/// solver, interned once per process: program variables and fields as the
/// parser reads them, their renamed copies (i'2), the alias probe, and the
/// entailment engine's alias-term and constant representatives. A VarName
/// is a handle to one entry of a process-wide, append-only name table.
///
/// Equality and hashing compare handles. Ordering compares the names, so a
/// sorted term array, the union-find's "smaller root wins" rule and every
/// printed fact keep the order they would have as strings, whatever order
/// the names were interned in.
///
/// Every parse, every placement run and every thread shares the table.
/// Interning takes its one lock, once per identifier the parser reads and
/// once per name the analysis or the engine makes; reading a handle's name
/// takes none, because an entry never moves or changes once published. The
/// table keeps one copy of each distinct name and frees nothing before the
/// process exits.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_VARNAME_H
#define BIGFOOT_SUPPORT_VARNAME_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace bigfoot {

class VarName {
public:
  /// One interned name. Immutable once published.
  struct Entry {
    std::string Name;
    /// Set for a "#const:<n>" name, which stands for the integer n.
    std::optional<int64_t> Value;
  };

  /// A null handle, equal only to another null handle; it has no name.
  VarName() = default;

  /// False for the null handle.
  explicit operator bool() const { return E != nullptr; }

  /// The handle of \p Name, interned on first use. Thread-safe.
  static VarName intern(std::string_view Name);

  /// The handle of "#const:<Value>", the entailment engine's
  /// representative of the integer \p Value, which it carries.
  static VarName constant(int64_t Value);

  const std::string &name() const { return E->Name; }

  /// The integer a "#const:<n>" name stands for, else nullopt.
  const std::optional<int64_t> &constantValue() const { return E->Value; }

  bool operator==(VarName O) const { return E == O.E; }
  bool operator!=(VarName O) const { return E != O.E; }

  /// Name order; two handles are equal exactly when their names are.
  bool operator<(VarName O) const { return E != O.E && E->Name < O.E->Name; }

  size_t hash() const { return std::hash<const Entry *>()(E); }

private:
  explicit VarName(const Entry *E) : E(E) {}

  const Entry *E = nullptr;
};

/// Writes \p V's name.
inline std::ostream &operator<<(std::ostream &OS, VarName V) {
  return OS << V.name();
}

} // namespace bigfoot

template <> struct std::hash<bigfoot::VarName> {
  size_t operator()(bigfoot::VarName V) const { return V.hash(); }
};

#endif // BIGFOOT_SUPPORT_VARNAME_H
