//===- ConstraintSystem.cpp - Entailment engine (Z3 stand-in) --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "entail/ConstraintSystem.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_set>

using namespace bigfoot;

namespace {
/// Caps to keep Fourier-Motzkin elimination bounded. Exceeding them makes
/// a query unprovable (sound) rather than slow.
constexpr size_t MaxRows = 4096;
constexpr int64_t MaxCoeff = int64_t(1) << 48;

/// R mod M in [0, M), for M >= 1.
int64_t residue(int64_t R, int64_t M) {
  int64_t Rem = R % M;
  return Rem < 0 ? Rem + M : Rem;
}

/// N / D when D divides N and the quotient fits int64, else nullopt.
std::optional<int64_t> exactQuotient(int64_t N, int64_t D) {
  if (D == -1)
    return N == INT64_MIN ? std::nullopt : std::optional<int64_t>(-N);
  if (N % D != 0)
    return std::nullopt;
  return N / D;
}
} // namespace

void ConstraintSystem::invalidate() {
  ClosureDirty = true;
  BaseRows.reset();
  Inconsistent.reset();
  LeByDiff.clear();
}

void ConstraintSystem::addEquality(const AffineExpr &L, const AffineExpr &R) {
  Equalities.emplace_back(L, R);
  invalidate();
}

void ConstraintSystem::addLe(const AffineExpr &L, const AffineExpr &R) {
  LeFacts.emplace_back(L, R);
  invalidate();
}

void ConstraintSystem::addNe(const AffineExpr &L, const AffineExpr &R) {
  NeFacts.emplace_back(L, R);
  invalidate();
}

void ConstraintSystem::addCongruence(const AffineExpr &E, int64_t M,
                                     int64_t R) {
  assert(M >= 1 && "modulus must be positive");
  CongFact F;
  F.E = E;
  F.Mod = M;
  F.Rem = residue(R, M);
  CongFacts.push_back(std::move(F));
  invalidate();
}

bool ConstraintSystem::proveCongruent(const AffineExpr &E, int64_t M,
                                      int64_t R) {
  assert(M >= 1 && "modulus must be positive");
  if (M == 1)
    return true;
  int64_t Want = residue(R, M);
  AffineExpr Cur = canonicalize(E);
  if (Cur.overflowed())
    return false;

  auto Done = [M, Want](const AffineExpr &X) -> std::optional<bool> {
    for (const auto &[Var, Coeff] : X.terms())
      if (Coeff % M != 0)
        return std::nullopt;
    return residue(X.constantPart(), M) == Want;
  };

  // Reduce variables using congruence facts (subtracting t*(F.E - F.Rem)
  // changes nothing mod M when M | F.Mod) and equality facts (L - R = 0
  // may be subtracted any integer number of times). Congruences first —
  // equality rewriting alone can oscillate between aliases of the same
  // value; a visited set cuts any remaining cycles. A rewrite that
  // overflows is not taken.
  std::unordered_set<AffineExpr> Visited;
  for (int Round = 0; Round < 16; ++Round) {
    if (auto Result = Done(Cur))
      return *Result;
    if (!Visited.insert(Cur).second)
      break;
    bool Progress = false;
    for (const auto &[Var, Coeff] : Cur.terms()) {
      if (Coeff % M == 0)
        continue;
      // Congruence facts with a compatible modulus.
      for (const CongFact &F : CongFacts) {
        if (F.Mod % M != 0)
          continue;
        AffineExpr FE = canonicalize(F.E);
        int64_t FC = FE.coeff(Var);
        if (FC == 0)
          continue;
        std::optional<int64_t> T = exactQuotient(Coeff, FC);
        if (!T)
          continue;
        AffineExpr Next = Cur - FE * *T + AffineExpr::constant(F.Rem) * *T;
        if (Next.overflowed() || Visited.count(Next))
          continue;
        Cur = std::move(Next);
        Progress = true;
        break;
      }
      if (Progress)
        break;
      // Equality facts.
      for (const auto &[L, Rhs] : Equalities) {
        AffineExpr D = canonicalize(L) - canonicalize(Rhs);
        int64_t DC = D.coeff(Var);
        if (DC == 0)
          continue;
        std::optional<int64_t> T = exactQuotient(Coeff, DC);
        if (!T)
          continue;
        AffineExpr Next = Cur - D * *T;
        if (Next.overflowed() || Visited.count(Next))
          continue;
        Cur = std::move(Next);
        Progress = true;
        break;
      }
      if (Progress)
        break;
    }
    if (!Progress)
      break;
  }
  if (auto Result = Done(Cur))
    return *Result;
  return false;
}

void ConstraintSystem::addFieldAlias(VarName X, VarName Y, VarName F) {
  AliasFact A;
  A.X = X;
  A.Base = Y;
  A.IsArray = false;
  A.Field = F;
  Aliases.push_back(std::move(A));
  invalidate();
}

void ConstraintSystem::addArrayAlias(VarName X, VarName Y,
                                     const AffineExpr &Index) {
  AliasFact A;
  A.X = X;
  A.Base = Y;
  A.IsArray = true;
  A.Index = Index;
  Aliases.push_back(std::move(A));
  invalidate();
}

VarName ConstraintSystem::find(VarName V) {
  auto It = Parent.find(V);
  if (It == Parent.end() || It->second == V)
    return V;
  // The recursion only updates existing entries, so It stays valid.
  VarName Root = find(It->second);
  It->second = Root;
  return Root;
}

void ConstraintSystem::unite(VarName A, VarName B) {
  VarName RA = find(A);
  VarName RB = find(B);
  if (RA == RB)
    return;
  // Deterministic representative: the lexicographically smaller root, so
  // canonicalization does not depend on insertion order.
  if (RB < RA)
    std::swap(RA, RB);
  Parent[RB] = RA;
}

VarName ConstraintSystem::aliasNode(const AliasKey &Key) {
  auto It = AliasNodes.find(Key);
  if (It != AliasNodes.end())
    return It->second;
  std::string Name =
      Key.IsArray ? "a#" + Key.Base.name() + "#" + Key.Index.str()
                  : "f#" + Key.Field.name() + "#" + Key.Base.name();
  return AliasNodes.emplace(Key, VarName::intern(Name)).first->second;
}

void ConstraintSystem::rebuildClosure() {
  if (!ClosureDirty)
    return;
  if (Counts)
    ++Counts->Systems;
  Parent.clear();
  // Seed with syntactic var=var and var=const equalities.
  for (const auto &[L, R] : Equalities) {
    AffineExpr Diff = L - R;
    if (Diff.overflowed())
      continue;
    std::span<const AffineExpr::Term> Terms = Diff.terms();
    if (Terms.size() == 2 && Diff.constantPart() == 0) {
      int64_t C1 = Terms[0].Coeff, C2 = Terms[1].Coeff;
      if ((C1 == 1 && C2 == -1) || (C1 == -1 && C2 == 1))
        unite(Terms[0].Var, Terms[1].Var);
    } else if (Terms.size() == 1) {
      // Coeff * V + C = 0 with Coeff = ±1: V = -C * Coeff.
      int64_t Coeff = Terms[0].Coeff, Value = 0;
      if ((Coeff == 1 || Coeff == -1) &&
          !__builtin_mul_overflow(Diff.constantPart(), -Coeff, &Value))
        unite(Terms[0].Var, VarName::constant(Value));
    }
  }
  // Congruence over alias terms: iterate to a fixed point because keys
  // mention representatives.
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    for (const AliasFact &A : Aliases) {
      AliasKey Key;
      Key.IsArray = A.IsArray;
      Key.Base = find(A.Base);
      if (A.IsArray) {
        // Canonicalize the index through current representatives.
        Key.Index = A.Index;
        for (const auto &[Var, Coeff] : A.Index.terms())
          Key.Index =
              Key.Index.substitute(Var, AffineExpr::variable(find(Var)));
        if (Key.Index.overflowed())
          continue;
      } else {
        Key.Field = A.Field;
      }
      VarName RX = find(A.X);
      VarName RK = find(aliasNode(Key));
      if (RX != RK) {
        unite(RX, RK);
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  ClosureDirty = false;
}

AffineExpr ConstraintSystem::canonicalize(const AffineExpr &E) {
  rebuildClosure();
  AffineExpr Out = E;
  for (const auto &[Var, Coeff] : E.terms()) {
    VarName Rep = find(Var);
    if (Rep == Var)
      continue;
    // Constants fold back into the constant part.
    if (const std::optional<int64_t> &Value = Rep.constantValue())
      Out = Out.substitute(Var, AffineExpr::constant(*Value));
    else
      Out = Out.substitute(Var, AffineExpr::variable(Rep));
  }
  return Out;
}

namespace {

bool inCoeffRange(__int128 V) { return V <= MaxCoeff && V >= -MaxCoeff; }

/// Divides a row by the gcd G of its coefficients: Terms + C <= 0 ⇔
/// Terms/G <= -C/G ⇒ Terms/G <= floor(-C/G).
AffineExpr tightened(const AffineExpr &R) {
  uint64_t G = 0;
  for (const auto &[Var, Coeff] : R.terms())
    G = std::gcd(G, Coeff < 0 ? 0 - static_cast<uint64_t>(Coeff)
                              : static_cast<uint64_t>(Coeff));
  if (G <= 1)
    return R;
  __int128 NegC = -static_cast<__int128>(R.constantPart());
  __int128 Div = G;
  __int128 Floored = NegC >= 0 ? NegC / Div : -((-NegC + Div - 1) / Div);
  AffineExpr Out = AffineExpr::constant(static_cast<int64_t>(-Floored));
  for (const auto &[Var, Coeff] : R.terms())
    Out.appendTerm(Var, static_cast<int64_t>(Coeff / Div));
  return Out;
}

/// The row CN * P + CP * N, which eliminates Best (CP and CN are Best's
/// coefficients in P and -N), tightened; nullopt when a coefficient or the
/// constant leaves [-MaxCoeff, MaxCoeff] as P's share or with N's added.
std::optional<AffineExpr> eliminated(const AffineExpr &P, __int128 CN,
                                     const AffineExpr &N, __int128 CP,
                                     VarName Best) {
  __int128 C = static_cast<__int128>(P.constantPart()) * CN;
  if (!inCoeffRange(C))
    return std::nullopt;
  C += static_cast<__int128>(N.constantPart()) * CP;
  if (!inCoeffRange(C))
    return std::nullopt;
  AffineExpr Out = AffineExpr::constant(static_cast<int64_t>(C));
  std::span<const AffineExpr::Term> PT = P.terms(), NT = N.terms();
  size_t I = 0, J = 0;
  while (I < PT.size() || J < NT.size()) {
    bool TakeP = J == NT.size() || (I < PT.size() && !(NT[J].Var < PT[I].Var));
    bool TakeN = I == PT.size() || (J < NT.size() && !(PT[I].Var < NT[J].Var));
    VarName Var = TakeP ? PT[I].Var : NT[J].Var;
    __int128 V = 0;
    if (TakeP) {
      V = static_cast<__int128>(PT[I++].Coeff) * CN;
      if (Var != Best && !inCoeffRange(V))
        return std::nullopt;
    }
    if (TakeN)
      V += static_cast<__int128>(NT[J++].Coeff) * CP;
    if (Var == Best || V == 0)
      continue;
    if (!inCoeffRange(V))
      return std::nullopt;
    Out.appendTerm(Var, static_cast<int64_t>(V));
  }
  return tightened(Out);
}

} // namespace

const std::vector<ConstraintSystem::Row> &ConstraintSystem::baseRows() {
  if (BaseRows)
    return *BaseRows;
  // A fact whose row overflows is dropped: dropping only weakens.
  std::vector<Row> Rows;
  for (const auto &[L, R] : Equalities) {
    AffineExpr CL = canonicalize(L), CR = canonicalize(R);
    Row Below = CL - CR, Above = CR - CL;
    if (Below.overflowed() || Above.overflowed())
      continue;
    Rows.push_back(tightened(Below));
    Rows.push_back(tightened(Above));
  }
  for (const auto &[L, R] : LeFacts) {
    Row Below = canonicalize(L) - canonicalize(R);
    if (!Below.overflowed())
      Rows.push_back(tightened(Below));
  }
  BaseRows = std::move(Rows);
  return *BaseRows;
}

bool ConstraintSystem::refute(const Row *Goal) {
  if (Counts)
    ++Counts->Refutations;
  // Row I is baseRows()[I] below the base count, then the goal, then the
  // I-th row derived here. Rounds pass indices, so a row that survives a
  // round is never copied.
  const std::vector<Row> &Base = baseRows();
  const uint32_t NumBase = static_cast<uint32_t>(Base.size());
  std::optional<Row> TightGoal;
  if (Goal)
    TightGoal = tightened(*Goal);
  std::vector<Row> Derived;
  auto RowAt = [&](uint32_t I) -> const Row & {
    if (I < NumBase)
      return Base[I];
    return I == NumBase ? *TightGoal : Derived[I - NumBase - 1];
  };
  std::vector<uint32_t> Rows(NumBase + (Goal ? 1 : 0)), Next, Pos, Neg;
  for (uint32_t I = 0; I < Rows.size(); ++I)
    Rows[I] = I;

  struct Uses {
    VarName Var;
    size_t Pos = 0, Neg = 0;
  };
  std::vector<Uses> VarUses;
  while (true) {
    // Contradiction: a row with no variables and positive constant.
    for (uint32_t I : Rows)
      if (RowAt(I).isConstant() && RowAt(I).constantPart() > 0)
        return true;

    // Pick the variable with the cheapest elimination, the first in name
    // order among equals.
    VarUses.clear();
    for (uint32_t I : Rows)
      for (const auto &[Var, Coeff] : RowAt(I).terms()) {
        auto It = std::find_if(VarUses.begin(), VarUses.end(),
                               [V = Var](const Uses &U) { return U.Var == V; });
        if (It == VarUses.end())
          It = VarUses.insert(VarUses.end(), Uses{Var});
        ++(Coeff > 0 ? It->Pos : It->Neg);
      }
    if (VarUses.empty())
      return false;
    auto Cost = [](const Uses &U) { return U.Pos * U.Neg; };
    const Uses *Pick = &VarUses.front();
    for (const Uses &U : VarUses)
      if (Cost(U) < Cost(*Pick) ||
          (Cost(U) == Cost(*Pick) && U.Var < Pick->Var))
        Pick = &U;
    const VarName Best = Pick->Var;

    Next.clear();
    Pos.clear();
    Neg.clear();
    for (uint32_t I : Rows) {
      int64_t C = RowAt(I).coeff(Best);
      (C == 0 ? Next : C > 0 ? Pos : Neg).push_back(I);
    }
    for (uint32_t PI : Pos) {
      for (uint32_t NI : Neg) {
        const Row &P = RowAt(PI), &N = RowAt(NI);
        __int128 CP = P.coeff(Best);                          // > 0
        __int128 CN = -static_cast<__int128>(N.coeff(Best)); // > 0
        std::optional<Row> Combined = eliminated(P, CN, N, CP, Best);
        if (!Combined)
          continue; // Dropping a derived row only weakens the refutation.
        if (Combined->isConstant()) {
          if (Combined->constantPart() > 0)
            return true;
          continue; // Satisfied constant row carries no information.
        }
        Derived.push_back(std::move(*Combined));
        Next.push_back(NumBase + static_cast<uint32_t>(Derived.size()));
        if (Next.size() > MaxRows)
          return false; // Bail out: unproven.
      }
    }
    Rows.swap(Next);
  }
}

bool ConstraintSystem::proveLe(const AffineExpr &L, const AffineExpr &R) {
  AffineExpr Diff = canonicalize(L) - canonicalize(R);
  if (Diff.overflowed())
    return false;
  if (auto C = Diff.constantValue())
    return *C <= 0;
  auto [It, Fresh] = LeByDiff.try_emplace(std::move(Diff), false);
  if (!Fresh)
    return It->second;
  // Negated goal: L - R >= 1, i.e. (R - L + 1) <= 0.
  Row Negated = -It->first + 1;
  if (Negated.overflowed())
    return false;
  It->second = refute(&Negated);
  return It->second;
}

bool ConstraintSystem::proveEq(const AffineExpr &L, const AffineExpr &R) {
  AffineExpr Diff = canonicalize(L) - canonicalize(R);
  if (Diff.overflowed())
    return false;
  if (auto C = Diff.constantValue())
    return *C == 0;
  return proveLe(L, R) && proveLe(R, L);
}

bool ConstraintSystem::proveNe(const AffineExpr &L, const AffineExpr &R) {
  AffineExpr Diff = canonicalize(L) - canonicalize(R);
  if (Diff.overflowed())
    return false;
  if (auto C = Diff.constantValue())
    return *C != 0;
  AffineExpr NegDiff = -Diff;
  for (const auto &[NL, NR] : NeFacts) {
    AffineExpr NDiff = canonicalize(NL) - canonicalize(NR);
    if (!NDiff.overflowed() && (NDiff == Diff || NDiff == NegDiff))
      return true;
  }
  return proveLt(L, R) || proveLt(R, L);
}

bool ConstraintSystem::equivVars(VarName X, VarName Y) {
  if (X == Y)
    return true;
  rebuildClosure();
  if (find(X) == find(Y))
    return true;
  return proveEq(AffineExpr::variable(X), AffineExpr::variable(Y));
}

bool ConstraintSystem::proveRangeSubset(const SymbolicRange &Sub,
                                        const SymbolicRange &Sup) {
  // A provably empty Sub is a subset of anything.
  if (proveLe(Sub.End, Sub.Begin))
    return true;
  // Singletons need membership, not stride divisibility.
  if (Sub.isSingleton()) {
    if (!proveLe(Sup.Begin, Sub.Begin) || !proveLt(Sub.Begin, Sup.End))
      return false;
    return Sup.Stride == 1 ||
           proveCongruent(Sub.Begin - Sup.Begin, Sup.Stride, 0);
  }
  if (Sub.Stride % Sup.Stride != 0)
    return false;
  if (!proveLe(Sup.Begin, Sub.Begin) || !proveLe(Sub.End, Sup.End))
    return false;
  if (Sup.Stride == 1)
    return true;
  // Alignment: (Sub.Begin - Sup.Begin) must be a multiple of Sup.Stride.
  return proveCongruent(Sub.Begin - Sup.Begin, Sup.Stride, 0);
}

bool ConstraintSystem::inconsistent() {
  if (!Inconsistent)
    Inconsistent = refute(nullptr);
  return *Inconsistent;
}
