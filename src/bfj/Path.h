//===- Path.h - Check paths (x.f and x[r]) ----------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paths are the operands of check(C) statements (Figure 5): a field path
/// `x.f` (or a coalesced field path `x.f/g/h` after the Section 4
/// coalescing step), or an array path `x[r]` for a strided range r whose
/// bounds are affine in the method's locals. Each path carries whether it
/// is a read or a write check (Section 5).
///
/// A path is source data: the interned names of its designator and
/// fields (support/VarName.h), and symbolic bounds over the same handles,
/// so the analysis compares and renames paths without reading a name. The
/// VM never reads one on its hot path; the compiler lowers each placed
/// check into a check record of registers, field ids and compiled bounds
/// (vm/Bytecode.h), and keeps the path only to render an error.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_BFJ_PATH_H
#define BIGFOOT_BFJ_PATH_H

#include "support/AffineExpr.h"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace bigfoot {

/// Whether a check (or an access) is a read or a write. Two concurrent
/// accesses conflict only when at least one is a write; a write check
/// covers reads and writes, a read check covers only reads (Section 5).
enum class AccessKind { Read, Write };

inline const char *accessKindName(AccessKind K) {
  return K == AccessKind::Read ? "read" : "write";
}

/// One checked path.
struct Path {
  enum class Kind { Field, Array };

  Kind PathKind = Kind::Field;
  AccessKind Access = AccessKind::Read;

  /// Local variable naming the object or array.
  VarName Designator;

  /// Field path: one or more field names (more than one after coalescing,
  /// rendered x.f/g/h).
  std::vector<VarName> Fields;

  /// Array path: the checked index range, bounds affine in locals.
  SymbolicRange Range;

  static Path field(AccessKind Access, VarName Designator, VarName Field) {
    return fieldGroup(Access, Designator, {Field});
  }

  static Path fieldGroup(AccessKind Access, VarName Designator,
                         std::vector<VarName> Fields) {
    assert(!Fields.empty() && "field group needs at least one field");
    Path P;
    P.PathKind = Kind::Field;
    P.Access = Access;
    P.Designator = Designator;
    P.Fields = std::move(Fields);
    return P;
  }

  static Path array(AccessKind Access, VarName Designator,
                    SymbolicRange Range) {
    Path P;
    P.PathKind = Kind::Array;
    P.Access = Access;
    P.Designator = Designator;
    P.Range = std::move(Range);
    return P;
  }

  static Path arrayIndex(AccessKind Access, VarName Designator,
                         const AffineExpr &Index) {
    return array(Access, Designator, SymbolicRange::singleton(Index));
  }

  bool isField() const { return PathKind == Kind::Field; }
  bool isArray() const { return PathKind == Kind::Array; }

  /// True if variable \p V appears as designator or in range bounds.
  bool mentions(VarName V) const {
    return Designator == V || (isArray() && Range.mentions(V));
  }

  /// Substitutes \p Replacement for \p V in index bounds. The designator
  /// is NOT substituted (designators are variables, not expressions); use
  /// rename for [RENAME].
  Path substituteIndex(VarName V, const AffineExpr &Replacement) const {
    Path P = *this;
    if (P.isArray())
      P.Range = P.Range.substitute(V, Replacement);
    return P;
  }

  /// Renames the designator and index-bound occurrences of \p From.
  Path rename(VarName From, VarName To) const {
    Path P = *this;
    if (P.Designator == From)
      P.Designator = To;
    if (P.isArray())
      P.Range = P.Range.substitute(From, AffineExpr::variable(To));
    return P;
  }

  /// Renders e.g. "p.x/y/z" or "a[0..i]".
  std::string str() const {
    std::string S = Designator.name();
    if (isArray())
      return S + Range.str();
    for (size_t I = 0; I < Fields.size(); ++I) {
      S += I ? "/" : ".";
      S += Fields[I].name();
    }
    return S;
  }

  /// True if \p Other names the same locations, whatever its access kind.
  bool sameLocations(const Path &Other) const {
    return PathKind == Other.PathKind && Designator == Other.Designator &&
           Fields == Other.Fields && Range == Other.Range;
  }

  bool operator==(const Path &Other) const {
    return Access == Other.Access && sameLocations(Other);
  }

  bool operator<(const Path &Other) const {
    if (PathKind != Other.PathKind)
      return PathKind < Other.PathKind;
    if (Access != Other.Access)
      return Access < Other.Access;
    if (Designator != Other.Designator)
      return Designator < Other.Designator;
    if (Fields != Other.Fields)
      return Fields < Other.Fields;
    return Range < Other.Range;
  }
};

} // namespace bigfoot

#endif // BIGFOOT_BFJ_PATH_H
