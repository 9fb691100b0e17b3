//===- HistoryContext.cpp - Analysis contexts H • A ------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/HistoryContext.h"

#include "bfj/Expr.h"

#include <algorithm>

using namespace bigfoot;

std::string BoolFact::str() const {
  if (Op == RelOp::Cong)
    return L.str() + " ≡ " + R.str() + " (mod " + std::to_string(Mod) + ")";
  const char *OpText = "?";
  switch (Op) {
  case RelOp::Eq:
    OpText = "=";
    break;
  case RelOp::Ne:
    OpText = "!=";
    break;
  case RelOp::Lt:
    OpText = "<";
    break;
  case RelOp::Le:
    OpText = "<=";
    break;
  case RelOp::Cong:
    break;
  }
  return L.str() + " " + OpText + " " + R.str();
}

std::string AliasFact::str() const {
  if (IsArray)
    return X + " = " + Base + "[" + Index.str() + "]";
  return X + " = " + Base + "." + Field;
}

//===----------------------------------------------------------------------===
// Fact insertion.
//===----------------------------------------------------------------------===

void History::addBool(BoolFact Fact) {
  for (const BoolFact &Existing : Bools)
    if (Existing == Fact)
      return;
  Bools.push_back(std::move(Fact));
  factsChanged();
}

void History::addCondition(const Expr *Cond, bool Negated) {
  switch (Cond->kind()) {
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(Cond);
    if (U->op() == UnaryOp::Not)
      addCondition(U->operand(), !Negated);
    return;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(Cond);
    // Conjunctions decompose positively; negated disjunctions decompose by
    // De Morgan. The dual cases would need disjunctive facts — dropped.
    if (B->op() == BinaryOp::And && !Negated) {
      addCondition(B->lhs(), false);
      addCondition(B->rhs(), false);
      return;
    }
    if (B->op() == BinaryOp::Or && Negated) {
      addCondition(B->lhs(), true);
      addCondition(B->rhs(), true);
      return;
    }
    if (!isComparison(B->op()))
      return;
    std::optional<AffineExpr> L = toAffine(B->lhs());
    std::optional<AffineExpr> R = toAffine(B->rhs());
    if (!L || !R)
      return;
    BinaryOp Op = B->op();
    // Normalize Gt/Ge by swapping operands.
    if (Op == BinaryOp::Gt || Op == BinaryOp::Ge) {
      std::swap(*L, *R);
      Op = Op == BinaryOp::Gt ? BinaryOp::Lt : BinaryOp::Le;
    }
    if (Negated) {
      // !(L < R) == R <= L,  !(L <= R) == R < L,  !(L == R) == L != R.
      switch (Op) {
      case BinaryOp::Lt:
        addBool({RelOp::Le, *R, *L});
        return;
      case BinaryOp::Le:
        addBool({RelOp::Lt, *R, *L});
        return;
      case BinaryOp::Eq:
        addBool({RelOp::Ne, *L, *R});
        return;
      case BinaryOp::Ne:
        addBool({RelOp::Eq, *L, *R});
        return;
      default:
        return;
      }
    }
    switch (Op) {
    case BinaryOp::Lt:
      addBool({RelOp::Lt, *L, *R});
      return;
    case BinaryOp::Le:
      addBool({RelOp::Le, *L, *R});
      return;
    case BinaryOp::Eq:
      addBool({RelOp::Eq, *L, *R});
      return;
    case BinaryOp::Ne:
      addBool({RelOp::Ne, *L, *R});
      return;
    default:
      return;
    }
  }
  default:
    return;
  }
}

void History::addAlias(AliasFact Fact) {
  for (const AliasFact &Existing : Aliases)
    if (Existing == Fact)
      return;
  Aliases.push_back(std::move(Fact));
  factsChanged();
}

void History::addAccess(const Path &P) {
  for (const Path &Existing : Accesses)
    if (Existing == P)
      return;
  Accesses.push_back(P);
}

void History::addCheck(const Path &P) {
  for (const Path &Existing : Checks)
    if (Existing == P)
      return;
  Checks.push_back(P);
}

//===----------------------------------------------------------------------===
// Entailment.
//===----------------------------------------------------------------------===

namespace {

/// The system of \p Bools then \p Aliases, in order.
std::shared_ptr<ConstraintSystem>
prepareSystem(const std::vector<BoolFact> &Bools,
              const std::vector<AliasFact> &Aliases,
              EntailmentCounts *Counts) {
  auto CS = std::make_shared<ConstraintSystem>();
  CS->countInto(Counts);
  for (const BoolFact &Fact : Bools) {
    switch (Fact.Op) {
    case RelOp::Eq:
      CS->addEquality(Fact.L, Fact.R);
      break;
    case RelOp::Ne:
      CS->addNe(Fact.L, Fact.R);
      break;
    case RelOp::Lt:
      CS->addLt(Fact.L, Fact.R);
      break;
    case RelOp::Le:
      CS->addLe(Fact.L, Fact.R);
      break;
    case RelOp::Cong:
      CS->addCongruence(Fact.L - Fact.R, Fact.Mod, 0);
      break;
    }
  }
  for (const AliasFact &Fact : Aliases) {
    VarName X = VarName::intern(Fact.X), Base = VarName::intern(Fact.Base);
    if (Fact.IsArray)
      CS->addArrayAlias(X, Base, Fact.Index);
    else
      CS->addFieldAlias(X, Base, VarName::intern(Fact.Field));
  }
  return CS;
}

} // namespace

size_t EntailmentTable::hashFacts(const std::vector<BoolFact> &Bools,
                                  const std::vector<AliasFact> &Aliases) {
  size_t H = Bools.size();
  auto Mix = [&H](size_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  std::hash<std::string> HashString;
  for (const BoolFact &Fact : Bools) {
    Mix(static_cast<size_t>(Fact.Op));
    Mix(Fact.L.hash());
    Mix(Fact.R.hash());
    Mix(static_cast<size_t>(Fact.Mod));
  }
  for (const AliasFact &Fact : Aliases) {
    Mix(Fact.IsArray);
    Mix(HashString(Fact.X));
    Mix(HashString(Fact.Base));
    Mix(Fact.IsArray ? Fact.Index.hash() : HashString(Fact.Field));
  }
  return H;
}

std::shared_ptr<ConstraintSystem>
EntailmentTable::systemFor(const std::vector<BoolFact> &Bools,
                           const std::vector<AliasFact> &Aliases) {
  auto It = Systems.find(std::tie(Bools, Aliases));
  if (It == Systems.end())
    It = Systems
             .emplace(std::tuple(Bools, Aliases),
                      prepareSystem(Bools, Aliases, &Counts))
             .first;
  return It->second;
}

ConstraintSystem &History::constraints() const {
  if (!System)
    System = Table ? Table->systemFor(Bools, Aliases)
                   : prepareSystem(Bools, Aliases, nullptr);
  return *System;
}

void History::countQuery() const {
  if (Table)
    ++Table->Counts.Queries;
}

bool History::entailsBool(const BoolFact &Fact) const {
  countQuery();
  for (const BoolFact &Existing : Bools)
    if (Existing == Fact)
      return true;
  ConstraintSystem &CS = constraints();
  switch (Fact.Op) {
  case RelOp::Eq:
    return CS.proveEq(Fact.L, Fact.R);
  case RelOp::Ne:
    return CS.proveNe(Fact.L, Fact.R);
  case RelOp::Lt:
    return CS.proveLt(Fact.L, Fact.R);
  case RelOp::Le:
    return CS.proveLe(Fact.L, Fact.R);
  case RelOp::Cong:
    return CS.proveCongruent(Fact.L - Fact.R, Fact.Mod, 0);
  }
  return false;
}

bool History::entailsAlias(const AliasFact &Fact) const {
  countQuery();
  for (const AliasFact &Existing : Aliases)
    if (Existing == Fact)
      return true;
  // Query "x = y.f" holds iff x is congruent to a fresh variable aliased
  // to y.f under the existing facts.
  ConstraintSystem CS = constraints();
  static const VarName Probe = VarName::intern("$probe");
  VarName Base = VarName::intern(Fact.Base);
  if (Fact.IsArray)
    CS.addArrayAlias(Probe, Base, Fact.Index);
  else
    CS.addFieldAlias(Probe, Base, VarName::intern(Fact.Field));
  return CS.equivVars(VarName::intern(Fact.X), Probe);
}

bool History::entailsPathIn(const std::vector<Path> &Facts,
                            const Path &P) const {
  countQuery();
  ConstraintSystem &CS = constraints();
  // Inconsistent facts mark dead code, which entails everything; this is
  // what lets the rotated-loop's infeasible else arm drop out of merges.
  if (CS.inconsistent())
    return true;

  // Designators stay strings; a differing pair is interned to ask the
  // closure.
  const VarName Designator = VarName::intern(P.Designator);
  auto SameObject = [&CS, &P, Designator](const Path &Fact) {
    return Fact.Designator == P.Designator ||
           CS.equivVars(VarName::intern(Fact.Designator), Designator);
  };

  if (P.isField()) {
    // Every queried field must be covered by some fact on an equivalent
    // designator with sufficient kind.
    for (const std::string &F : P.Fields) {
      bool Covered = false;
      for (const Path &Fact : Facts) {
        if (!Fact.isField() || !kindSatisfies(Fact.Access, P.Access))
          continue;
        if (std::find(Fact.Fields.begin(), Fact.Fields.end(), F) ==
            Fact.Fields.end())
          continue;
        if (SameObject(Fact)) {
          Covered = true;
          break;
        }
      }
      if (!Covered)
        return false;
    }
    return true;
  }

  // Array query. Provably empty ranges are trivially entailed.
  if (CS.proveLe(P.Range.End, P.Range.Begin))
    return true;

  std::vector<const Path *> Candidates;
  for (const Path &Fact : Facts) {
    if (!Fact.isArray() || !kindSatisfies(Fact.Access, P.Access))
      continue;
    if (SameObject(Fact))
      Candidates.push_back(&Fact);
  }
  // Single-fact coverage.
  for (const Path *Fact : Candidates)
    if (CS.proveRangeSubset(P.Range, Fact->Range))
      return true;
  // Chaining: tile the aligned elements of [Begin..End):k left to right.
  // A same-stride aligned fact [b..e:k] with b <= F <= e advances the
  // frontier to e (aligned elements in [F, e) lie in [b, e)); an aligned
  // singleton [s] with s <= F <= s+k advances it to s+k (any aligned
  // element in [F, s+k) lies in [s, s+k), whose only aligned member is
  // s). Each fact is consumed once, bounding the walk.
  const int64_t K = P.Range.Stride;
  AffineExpr Frontier = P.Range.Begin;
  std::vector<bool> Used(Candidates.size(), false);
  for (size_t Step = 0; Step <= Candidates.size(); ++Step) {
    if (CS.proveLe(P.Range.End, Frontier))
      return true;
    bool Extended = false;
    for (size_t CI = 0; CI < Candidates.size(); ++CI) {
      if (Used[CI])
        continue;
      const SymbolicRange &FR = Candidates[CI]->Range;
      if (FR.isSingleton()) {
        if (K > 1 && !CS.proveCongruent(FR.Begin - P.Range.Begin, K, 0))
          continue;
        if (CS.proveLe(FR.Begin, Frontier) &&
            CS.proveLe(Frontier, FR.Begin + K)) {
          Frontier = FR.Begin + K;
          Used[CI] = true;
          Extended = true;
          break;
        }
        continue;
      }
      if (FR.Stride != K)
        continue;
      if (K > 1 && !CS.proveCongruent(FR.Begin - P.Range.Begin, K, 0))
        continue;
      if (CS.proveLe(FR.Begin, Frontier) &&
          CS.proveLe(Frontier, FR.End)) {
        Frontier = FR.End;
        Used[CI] = true;
        Extended = true;
        break;
      }
    }
    if (!Extended)
      return false;
  }
  return false;
}

bool History::entailsAccess(const Path &P) const {
  return entailsPathIn(Accesses, P);
}

bool History::entailsCheck(const Path &P) const {
  return entailsPathIn(Checks, P);
}

bool History::entailsAnticipated(const Anticipated &A, const Path &P) const {
  return entailsPathIn(A, P);
}

//===----------------------------------------------------------------------===
// Structural operations.
//===----------------------------------------------------------------------===

History History::renamed(const std::string &From,
                         const std::string &To) const {
  // A boolean, alias or check fact whose renamed form overflows is
  // dropped; that only forgets knowledge. An access fact is kept, since
  // dropping it would drop the obligation to check that access. Its range
  // cannot overflow: no fact mentions To when a rename runs, because the
  // rename pass first gives a mentioned target a fresh copy, and RedCard
  // first drops the facts that mention it
  // (CheckPlacement.RenameTargetIsCopiedBeforeItsRangeCouldOverflow).
  History Out;
  Out.Table = Table;
  const VarName FromVar = VarName::intern(From);
  const VarName ToName = VarName::intern(To);
  const AffineExpr ToVar = AffineExpr::variable(ToName);
  for (const BoolFact &Fact : Bools) {
    BoolFact Renamed{Fact.Op, Fact.L.substitute(FromVar, ToVar),
                     Fact.R.substitute(FromVar, ToVar), Fact.Mod};
    if (!Renamed.L.overflowed() && !Renamed.R.overflowed())
      Out.Bools.push_back(std::move(Renamed));
  }
  for (AliasFact Fact : Aliases) {
    if (Fact.X == From)
      Fact.X = To;
    if (Fact.Base == From)
      Fact.Base = To;
    if (Fact.IsArray)
      Fact.Index = Fact.Index.substitute(FromVar, ToVar);
    if (!Fact.Index.overflowed())
      Out.Aliases.push_back(std::move(Fact));
  }
  for (const Path &P : Accesses)
    Out.Accesses.push_back(P.rename(FromVar, ToName));
  for (const Path &P : Checks) {
    Path Renamed = P.rename(FromVar, ToName);
    if (!Renamed.Range.overflowed())
      Out.Checks.push_back(std::move(Renamed));
  }
  return Out;
}

History History::afterRelease() const {
  // Lock hand-off may expose other threads' writes: aliases go too.
  History Out = afterAcquire();
  Out.Accesses.clear();
  Out.Checks.clear();
  return Out;
}

History History::afterAcquire() const {
  History Out = *this;
  if (!Out.Aliases.empty()) {
    Out.Aliases.clear();
    Out.factsChanged();
  }
  return Out;
}

void History::invalidateAliasesForFieldWrite(const std::string &FieldName) {
  if (std::erase_if(Aliases, [&FieldName](const AliasFact &Fact) {
        return !Fact.IsArray && Fact.Field == FieldName;
      }))
    factsChanged();
}

void History::invalidateAliasesForArrayWrite() {
  if (std::erase_if(Aliases,
                    [](const AliasFact &Fact) { return Fact.IsArray; }))
    factsChanged();
}

void History::dropMentions(const std::string &Name) {
  const VarName Var = VarName::intern(Name);
  size_t Dropped = std::erase_if(Bools, [Var](const BoolFact &F) {
    return F.L.mentions(Var) || F.R.mentions(Var);
  });
  Dropped += std::erase_if(Aliases, [&Name, Var](const AliasFact &F) {
    return F.X == Name || F.Base == Name ||
           (F.IsArray && F.Index.mentions(Var));
  });
  if (Dropped)
    factsChanged();
  auto DropPath = [Var](const Path &P) { return P.mentions(Var); };
  std::erase_if(Accesses, DropPath);
  std::erase_if(Checks, DropPath);
}

History History::meet(const History &H1, const History &H2) {
  History Out;
  Out.Table = H1.Table;
  auto Keep = [&H1, &H2, &Out](const auto &Facts, auto EntailedBy,
                               auto Add) {
    for (const auto &Fact : Facts)
      if (EntailedBy(H1, Fact) && EntailedBy(H2, Fact))
        (Out.*Add)(Fact);
  };
  auto BoolEnt = [](const History &H, const BoolFact &F) {
    return H.entailsBool(F);
  };
  auto AliasEnt = [](const History &H, const AliasFact &F) {
    return H.entailsAlias(F);
  };
  auto AccessEnt = [](const History &H, const Path &P) {
    return H.entailsAccess(P);
  };
  auto CheckEnt = [](const History &H, const Path &P) {
    return H.entailsCheck(P);
  };
  Keep(H1.Bools, BoolEnt, &History::addBool);
  Keep(H2.Bools, BoolEnt, &History::addBool);
  Keep(H1.Aliases, AliasEnt, &History::addAlias);
  Keep(H2.Aliases, AliasEnt, &History::addAlias);
  Keep(H1.Accesses, AccessEnt, &History::addAccess);
  Keep(H2.Accesses, AccessEnt, &History::addAccess);
  Keep(H1.Checks, CheckEnt, &History::addCheck);
  Keep(H2.Checks, CheckEnt, &History::addCheck);
  return Out;
}

std::string History::str() const {
  std::string S = "{";
  bool First = true;
  auto Sep = [&S, &First]() {
    if (!First)
      S += ", ";
    First = false;
  };
  for (const BoolFact &Fact : Bools) {
    Sep();
    S += Fact.str();
  }
  for (const AliasFact &Fact : Aliases) {
    Sep();
    S += Fact.str();
  }
  for (const Path &P : Accesses) {
    Sep();
    S += P.str();
    S += "✁";
    if (P.Access == AccessKind::Write)
      S += "w";
  }
  for (const Path &P : Checks) {
    Sep();
    S += P.str();
    S += "✓";
    if (P.Access == AccessKind::Write)
      S += "w";
  }
  S += "}";
  return S;
}

std::string Context::str() const {
  std::string S = H.str() + " • {";
  for (size_t I = 0; I < A.size(); ++I) {
    if (I)
      S += ", ";
    S += A[I].str();
    S += "✸";
    if (A[I].Access == AccessKind::Write)
      S += "w";
  }
  S += "}";
  return S;
}

//===----------------------------------------------------------------------===
// Anticipated-set operations.
//===----------------------------------------------------------------------===

Anticipated bigfoot::substituteAnticipated(
    const Anticipated &A, const std::string &X,
    const std::optional<AffineExpr> &E) {
  // A path whose bounds have no affine (or no int64) form after the
  // substitution is dropped: anticipating less only keeps more checks.
  const VarName XVar = VarName::intern(X);
  Anticipated Out;
  for (const Path &P : A) {
    if (P.Designator == X)
      continue; // Designator occurrences are not substitutable paths.
    if (P.isArray() && P.Range.mentions(XVar)) {
      if (!E)
        continue;
      Path Substituted = P.substituteIndex(XVar, *E);
      if (!Substituted.Range.overflowed())
        Out.push_back(std::move(Substituted));
      continue;
    }
    Out.push_back(P);
  }
  return Out;
}

Anticipated bigfoot::removeVar(const Anticipated &A, const std::string &X) {
  const VarName XVar = VarName::intern(X);
  Anticipated Out;
  for (const Path &P : A)
    if (!P.mentions(XVar))
      Out.push_back(P);
  return Out;
}

Anticipated bigfoot::renameAnticipated(const Anticipated &A,
                                       const std::string &From,
                                       const std::string &To) {
  const VarName FromVar = VarName::intern(From);
  const VarName ToVar = VarName::intern(To);
  Anticipated Out;
  Out.reserve(A.size());
  for (const Path &P : A) {
    Path Renamed = P.rename(FromVar, ToVar);
    if (!Renamed.Range.overflowed())
      Out.push_back(std::move(Renamed));
  }
  return Out;
}

void bigfoot::addAnticipated(Anticipated &A, const Path &P) {
  for (const Path &Existing : A)
    if (Existing == P)
      return;
  A.push_back(P);
}

Anticipated bigfoot::meetAnticipated(const History &H1, const Anticipated &A1,
                                     const History &H2,
                                     const Anticipated &A2) {
  Anticipated Out;
  for (const Path &P : A1)
    if (H2.entailsAnticipated(A2, P))
      addAnticipated(Out, P);
  for (const Path &P : A2)
    if (H1.entailsAnticipated(A1, P) && !H2.entailsAnticipated(Out, P))
      addAnticipated(Out, P);
  return Out;
}

//===----------------------------------------------------------------------===
// The Checks functions.
//===----------------------------------------------------------------------===

namespace {

std::vector<Path> checksImpl(const History &H, const History *Approx,
                             const Anticipated &A) {
  std::vector<Path> Out;
  // Approx-entailment ("was the access fact preserved into the merged
  // history?") is judged under H's own boolean/alias facts: they hold on
  // this path, and the merged access facts are interpreted at the same
  // point. Without this, a back-edge fact a[0..i']✁ could never be
  // matched against the invariant a[0..i]✁ even though i = i' + 1.
  History Probe;
  if (Approx) {
    Probe = H;
    Probe.Accesses = Approx->Accesses;
    Probe.Checks.clear();
  }
  // Work on a copy so each emitted check suppresses later duplicates.
  // Writes are processed first: a write check covers read accesses to the
  // same location, so the read-modify-write idiom needs only the write
  // check (Figure 1).
  History Working = H;
  std::vector<Path> Ordered = H.Accesses;
  std::stable_sort(Ordered.begin(), Ordered.end(),
                   [](const Path &A, const Path &B) {
                     return A.Access == AccessKind::Write &&
                            B.Access == AccessKind::Read;
                   });
  for (const Path &P : Ordered) {
    if (Approx && Probe.entailsAccess(P))
      continue;
    if (Working.entailsCheck(P))
      continue;
    if (Working.entailsAnticipated(A, P))
      continue;
    Out.push_back(P);
    Working.addCheck(P);
  }
  return Out;
}

} // namespace

std::vector<Path> bigfoot::checksFor(const History &H, const Anticipated &A) {
  return checksImpl(H, nullptr, A);
}

std::vector<Path> bigfoot::checksFor(const History &H, const History &Approx,
                                     const Anticipated &A) {
  return checksImpl(H, &Approx, A);
}
