//===- Coalesce.cpp - Post-analysis path coalescing -------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/Coalesce.h"

#include <algorithm>

using namespace bigfoot;

std::optional<SymbolicRange> bigfoot::mergeRanges(const SymbolicRange &A,
                                                  const SymbolicRange &B,
                                                  ConstraintSystem &CS) {
  // Identical sets.
  if (CS.proveEq(A.Begin, B.Begin) && CS.proveEq(A.End, B.End) &&
      A.Stride == B.Stride)
    return A;
  // One contains the other.
  if (CS.proveRangeSubset(B, A))
    return A;
  if (CS.proveRangeSubset(A, B))
    return B;

  // Unit-stride chaining: [b1..e1) + [b2..e2) with b2 <= e1 (abut or
  // overlap) and b1 <= b2 gives [b1..max) — exact when neither leaves a
  // gap. We require e1 within [b2-? ...]: overlap/abutment both ways.
  auto ChainUnit = [&CS](const SymbolicRange &L, const SymbolicRange &R)
      -> std::optional<SymbolicRange> {
    if (L.Stride != 1 || R.Stride != 1)
      return std::nullopt;
    // L.Begin <= R.Begin <= L.End and L.End <= R.End: union is
    // [L.Begin .. R.End) exactly.
    if (CS.proveLe(L.Begin, R.Begin) && CS.proveLe(R.Begin, L.End) &&
        CS.proveLe(L.End, R.End))
      return SymbolicRange(L.Begin, R.End, 1);
    return std::nullopt;
  };
  if (auto M = ChainUnit(A, B))
    return M;
  if (auto M = ChainUnit(B, A))
    return M;

  // Singleton extends a strided range at its upper end: [b..e:k] + [x]
  // where x is the next strided element (e aligned so the last element is
  // e - something)... We only handle the common shape produced by loops:
  // [b..x:k] + [x] = [b..x+1:k] when (x - b) % k == 0 provable via
  // constant offset.
  auto ExtendUp = [&CS](const SymbolicRange &R, const SymbolicRange &Single)
      -> std::optional<SymbolicRange> {
    if (!Single.isSingleton())
      return std::nullopt;
    const AffineExpr &X = Single.Begin;
    if (!CS.proveEq(R.End, X))
      return std::nullopt;
    if (R.Stride != 1 &&
        !CS.proveCongruent(X - R.Begin, R.Stride, 0))
      return std::nullopt;
    return SymbolicRange(R.Begin, X + 1, R.Stride);
  };
  if (auto M = ExtendUp(A, B))
    return M;
  if (auto M = ExtendUp(B, A))
    return M;

  // Singleton extends at the lower end: [x] + [x+k..e:k] = [x..e:k].
  auto ExtendDown = [&CS](const SymbolicRange &R, const SymbolicRange &Single)
      -> std::optional<SymbolicRange> {
    if (!Single.isSingleton())
      return std::nullopt;
    const AffineExpr &X = Single.Begin;
    if (!CS.proveEq(R.Begin, X + R.Stride))
      return std::nullopt;
    return SymbolicRange(X, R.End, R.Stride);
  };
  if (auto M = ExtendDown(A, B))
    return M;
  if (auto M = ExtendDown(B, A))
    return M;

  // Two singletons with constant gap k become a stride-k pair.
  if (A.isSingleton() && B.isSingleton()) {
    AffineExpr Diff = B.Begin - A.Begin;
    if (auto C = Diff.constantValue()) {
      if (*C > 0)
        return SymbolicRange(A.Begin, B.Begin + 1, *C);
      if (*C < 0 && *C != INT64_MIN)
        return SymbolicRange(B.Begin, A.Begin + 1, -*C);
      if (*C == 0)
        return SymbolicRange(A.Begin, A.Begin + 1, 1); // Same index.
    }
  }

  // Interleave: [b..e:2k] + [b+k..e':2k] = [b..max(e,e'):k]. Restrict to
  // the constant-offset case.
  if (A.Stride == B.Stride && A.Stride % 2 == 0) {
    int64_t Half = A.Stride / 2;
    AffineExpr Diff = B.Begin - A.Begin;
    if (auto C = Diff.constantValue()) {
      if (*C == Half && CS.proveEq(A.End + Half, B.End))
        return SymbolicRange(A.Begin, B.End, Half);
      if (*C == -Half && CS.proveEq(B.End + Half, A.End))
        return SymbolicRange(B.Begin, A.End, Half);
    }
  }
  return std::nullopt;
}

std::vector<Path> bigfoot::coalescePaths(const std::vector<Path> &Paths,
                                         const History &H) {
  ConstraintSystem &CS = H.constraints();

  // Group paths by (kind-of-path, access kind, designator equivalence
  // class). Designator classes are built with the entailment engine, as
  // in "H ⊢ d1 = d2".
  struct Group {
    Path::Kind PathKind;
    AccessKind Access;
    VarName Designator; // Representative.
    std::vector<Path> Members;
  };
  std::vector<Group> Groups;
  for (const Path &P : Paths) {
    Group *Found = nullptr;
    for (Group &G : Groups) {
      if (G.PathKind != P.PathKind || G.Access != P.Access)
        continue;
      if (G.Designator == P.Designator ||
          CS.equivVars(G.Designator, P.Designator)) {
        Found = &G;
        break;
      }
    }
    if (!Found) {
      Groups.push_back({P.PathKind, P.Access, P.Designator, {}});
      Found = &Groups.back();
    }
    Found->Members.push_back(P);
  }

  std::vector<Path> Out;
  for (Group &G : Groups) {
    if (G.PathKind == Path::Kind::Field) {
      // All fields of the group merge into one coalesced field path.
      std::vector<VarName> Fields;
      for (const Path &P : G.Members)
        for (VarName F : P.Fields)
          if (std::find(Fields.begin(), Fields.end(), F) == Fields.end())
            Fields.push_back(F);
      Out.push_back(Path::fieldGroup(G.Access, G.Designator,
                                     std::move(Fields)));
      continue;
    }
    // Array paths: greedily merge ranges pairwise to a fixed point.
    std::vector<SymbolicRange> Ranges;
    for (const Path &P : G.Members)
      Ranges.push_back(P.Range);
    bool Merged = true;
    while (Merged && Ranges.size() > 1) {
      Merged = false;
      for (size_t I = 0; I < Ranges.size() && !Merged; ++I) {
        for (size_t J = I + 1; J < Ranges.size() && !Merged; ++J) {
          // A merge whose bounds overflow int64 is not made.
          auto M = mergeRanges(Ranges[I], Ranges[J], CS);
          if (M && !M->overflowed()) {
            Ranges[I] = *M;
            Ranges.erase(Ranges.begin() + static_cast<ptrdiff_t>(J));
            Merged = true;
          }
        }
      }
    }
    for (SymbolicRange &R : Ranges)
      Out.push_back(Path::array(G.Access, G.Designator, std::move(R)));
  }
  return Out;
}
