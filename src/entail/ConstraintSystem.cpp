//===- ConstraintSystem.cpp - Entailment engine (Z3 stand-in) --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "entail/ConstraintSystem.h"

#include <algorithm>
#include <set>
#include <cassert>
#include <numeric>

using namespace bigfoot;

namespace {
/// Caps to keep Fourier-Motzkin elimination bounded. Exceeding them makes
/// a query unprovable (sound) rather than slow.
constexpr size_t MaxRows = 4096;
constexpr int64_t MaxCoeff = int64_t(1) << 48;
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
  F.Rem = ((R % M) + M) % M;
  CongFacts.push_back(std::move(F));
  invalidate();
}

bool ConstraintSystem::proveCongruent(const AffineExpr &E, int64_t M,
                                      int64_t R) {
  assert(M >= 1 && "modulus must be positive");
  if (M == 1)
    return true;
  int64_t Want = ((R % M) + M) % M;
  AffineExpr Cur = canonicalize(E);

  auto Done = [M, Want](const AffineExpr &X) -> std::optional<bool> {
    for (const auto &[Name, Coeff] : X.terms())
      if (Coeff % M != 0)
        return std::nullopt;
    int64_t C = ((X.constantPart() % M) + M) % M;
    return C == Want;
  };

  // Reduce variables using congruence facts (subtracting t*(F.E - F.Rem)
  // changes nothing mod M when M | F.Mod) and equality facts (L - R = 0
  // may be subtracted any integer number of times). Congruences first —
  // equality rewriting alone can oscillate between aliases of the same
  // value; a visited set cuts any remaining cycles.
  std::set<std::string> Visited;
  for (int Round = 0; Round < 16; ++Round) {
    if (auto Result = Done(Cur))
      return *Result;
    if (!Visited.insert(Cur.str()).second)
      break;
    bool Progress = false;
    for (const auto &[Name, Coeff] : Cur.terms()) {
      if (Coeff % M == 0)
        continue;
      // Congruence facts with a compatible modulus.
      for (const CongFact &F : CongFacts) {
        if (F.Mod % M != 0)
          continue;
        AffineExpr FE = canonicalize(F.E);
        auto It = FE.terms().find(Name);
        if (It == FE.terms().end())
          continue;
        int64_t FC = It->second;
        if (FC == 0 || Coeff % FC != 0)
          continue;
        int64_t T = Coeff / FC;
        AffineExpr Next = Cur - FE * T + AffineExpr::constant(F.Rem * T);
        if (Visited.count(Next.str()))
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
        auto It = D.terms().find(Name);
        if (It == D.terms().end())
          continue;
        int64_t DC = It->second;
        if (DC == 0 || Coeff % DC != 0)
          continue;
        AffineExpr Next = Cur - D * (Coeff / DC);
        if (Visited.count(Next.str()))
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

void ConstraintSystem::addFieldAlias(const std::string &X,
                                     const std::string &Y,
                                     const std::string &F) {
  AliasFact A;
  A.X = X;
  A.Base = Y;
  A.IsArray = false;
  A.Field = F;
  Aliases.push_back(std::move(A));
  invalidate();
}

void ConstraintSystem::addArrayAlias(const std::string &X,
                                     const std::string &Y,
                                     const AffineExpr &Index) {
  AliasFact A;
  A.X = X;
  A.Base = Y;
  A.IsArray = true;
  A.Index = Index;
  Aliases.push_back(std::move(A));
  invalidate();
}

std::string ConstraintSystem::find(const std::string &Name) {
  auto It = Parent.find(Name);
  if (It == Parent.end())
    return Name;
  if (It->second == Name)
    return Name;
  std::string Root = find(It->second);
  Parent[Name] = Root;
  return Root;
}

void ConstraintSystem::unite(const std::string &A, const std::string &B) {
  std::string RA = find(A);
  std::string RB = find(B);
  if (RA == RB)
    return;
  // Deterministic representative: the lexicographically smaller root, so
  // canonicalization does not depend on insertion order.
  if (RB < RA)
    std::swap(RA, RB);
  Parent[RB] = RA;
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
    const auto &Terms = Diff.terms();
    if (Terms.size() == 2 && Diff.constantPart() == 0) {
      auto It = Terms.begin();
      auto [N1, C1] = *It;
      ++It;
      auto [N2, C2] = *It;
      if (C1 + C2 == 0 && (C1 == 1 || C1 == -1))
        unite(N1, N2);
    } else if (Terms.size() == 1) {
      auto [Name, Coeff] = *Terms.begin();
      if (Coeff == 1 || Coeff == -1) {
        int64_t Value = -Diff.constantPart() / Coeff;
        if (-Diff.constantPart() % Coeff == 0)
          unite(Name, "#const:" + std::to_string(Value));
      }
    }
  }
  // Congruence over alias terms: iterate to a fixed point because keys
  // mention representatives.
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    for (const AliasFact &A : Aliases) {
      std::string Key;
      if (A.IsArray) {
        // Canonicalize the index through current representatives.
        AffineExpr Idx = A.Index;
        for (const std::string &V : A.Index.variables())
          Idx = Idx.substitute(V, AffineExpr::variable(find(V)));
        Key = "a#" + find(A.Base) + "#" + Idx.str();
      } else {
        Key = "f#" + A.Field + "#" + find(A.Base);
      }
      std::string RX = find(A.X);
      std::string RK = find(Key);
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
  for (const std::string &V : E.variables()) {
    std::string Rep = find(V);
    if (Rep == V)
      continue;
    // Constants fold back into the constant part.
    if (Rep.rfind("#const:", 0) == 0) {
      int64_t Value = std::stoll(Rep.substr(7));
      Out = Out.substitute(V, AffineExpr::constant(Value));
    } else {
      Out = Out.substitute(V, AffineExpr::variable(Rep));
    }
  }
  return Out;
}

ConstraintSystem::Row ConstraintSystem::rowFromLe(const AffineExpr &L,
                                                  const AffineExpr &R) {
  AffineExpr Diff = L - R;
  Row Out;
  Out.Terms = Diff.terms();
  Out.Constant = Diff.constantPart();
  return Out;
}

const std::vector<ConstraintSystem::Row> &ConstraintSystem::baseRows() {
  if (BaseRows)
    return *BaseRows;
  std::vector<Row> Rows;
  for (const auto &[L, R] : Equalities) {
    AffineExpr CL = canonicalize(L), CR = canonicalize(R);
    Rows.push_back(rowFromLe(CL, CR));
    Rows.push_back(rowFromLe(CR, CL));
  }
  for (const auto &[L, R] : LeFacts)
    Rows.push_back(rowFromLe(canonicalize(L), canonicalize(R)));
  BaseRows = std::move(Rows);
  return *BaseRows;
}

namespace {

int64_t gcdOf(const std::map<std::string, int64_t> &Terms) {
  int64_t G = 0;
  for (const auto &[Name, Coeff] : Terms)
    G = std::gcd(G, Coeff < 0 ? -Coeff : Coeff);
  return G;
}

} // namespace

bool ConstraintSystem::refute(std::vector<Row> Rows) {
  if (Counts)
    ++Counts->Refutations;
  // Tighten + detect immediate contradictions; drop trivial rows.
  auto Tighten = [](Row &R) -> bool {
    int64_t G = gcdOf(R.Terms);
    if (G > 1) {
      for (auto &[Name, Coeff] : R.Terms)
        Coeff /= G;
      // Terms + C <= 0 ⇔ Terms/G <= -C/G ⇒ Terms/G <= floor(-C/G).
      int64_t NegC = -R.Constant;
      int64_t Floored =
          NegC >= 0 ? NegC / G : -((-NegC + G - 1) / G);
      R.Constant = -Floored;
    }
    return true;
  };
  for (Row &R : Rows)
    Tighten(R);

  while (true) {
    // Contradiction: a row with no variables and positive constant.
    for (const Row &R : Rows)
      if (R.Terms.empty() && R.Constant > 0)
        return true;

    // Pick the variable with the cheapest elimination.
    std::map<std::string, std::pair<size_t, size_t>> Counts;
    for (const Row &R : Rows)
      for (const auto &[Name, Coeff] : R.Terms) {
        if (Coeff > 0)
          Counts[Name].first++;
        else
          Counts[Name].second++;
      }
    if (Counts.empty())
      return false;
    std::string Best;
    size_t BestCost = SIZE_MAX;
    for (const auto &[Name, PN] : Counts) {
      size_t Cost = PN.first * PN.second;
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = Name;
      }
    }

    std::vector<Row> Pos, Neg, Rest;
    for (Row &R : Rows) {
      auto It = R.Terms.find(Best);
      if (It == R.Terms.end())
        Rest.push_back(std::move(R));
      else if (It->second > 0)
        Pos.push_back(std::move(R));
      else
        Neg.push_back(std::move(R));
    }

    std::vector<Row> Next = std::move(Rest);
    bool Overflow = false;
    for (const Row &P : Pos) {
      for (const Row &N : Neg) {
        int64_t CP = P.Terms.at(Best);       // > 0
        int64_t CN = -N.Terms.at(Best);      // > 0
        Row Combined;
        auto Accumulate = [&](const Row &Src, int64_t Scale) {
          for (const auto &[Name, Coeff] : Src.Terms) {
            if (Name == Best)
              continue;
            __int128 V = static_cast<__int128>(Combined.Terms[Name]) +
                         static_cast<__int128>(Coeff) * Scale;
            if (V > MaxCoeff || V < -MaxCoeff) {
              Overflow = true;
              return;
            }
            int64_t NV = static_cast<int64_t>(V);
            if (NV == 0)
              Combined.Terms.erase(Name);
            else
              Combined.Terms[Name] = NV;
          }
          __int128 C = static_cast<__int128>(Combined.Constant) +
                       static_cast<__int128>(Src.Constant) * Scale;
          if (C > MaxCoeff || C < -MaxCoeff) {
            Overflow = true;
            return;
          }
          Combined.Constant = static_cast<int64_t>(C);
        };
        Accumulate(P, CN);
        if (!Overflow)
          Accumulate(N, CP);
        if (Overflow) {
          Overflow = false;
          continue; // Dropping a derived row only weakens the refutation.
        }
        Tighten(Combined);
        if (Combined.Terms.empty()) {
          if (Combined.Constant > 0)
            return true;
          continue; // Satisfied constant row carries no information.
        }
        Next.push_back(std::move(Combined));
        if (Next.size() > MaxRows)
          return false; // Bail out: unproven.
      }
    }
    Rows = std::move(Next);
  }
}

bool ConstraintSystem::proveLe(const AffineExpr &L, const AffineExpr &R) {
  AffineExpr Diff = canonicalize(L) - canonicalize(R);
  if (auto C = Diff.constantValue())
    return *C <= 0;
  auto [It, Fresh] = LeByDiff.try_emplace(std::move(Diff), false);
  if (!Fresh)
    return It->second;
  std::vector<Row> Rows = baseRows();
  // Negated goal: L - R >= 1, i.e. (R - L + 1) <= 0.
  Row Negated;
  AffineExpr Neg = -It->first + 1;
  Negated.Terms = Neg.terms();
  Negated.Constant = Neg.constantPart();
  Rows.push_back(std::move(Negated));
  It->second = refute(std::move(Rows));
  return It->second;
}

bool ConstraintSystem::proveEq(const AffineExpr &L, const AffineExpr &R) {
  AffineExpr Diff = canonicalize(L) - canonicalize(R);
  if (auto C = Diff.constantValue())
    return *C == 0;
  return proveLe(L, R) && proveLe(R, L);
}

bool ConstraintSystem::proveNe(const AffineExpr &L, const AffineExpr &R) {
  AffineExpr Diff = canonicalize(L) - canonicalize(R);
  if (auto C = Diff.constantValue())
    return *C != 0;
  for (const auto &[NL, NR] : NeFacts) {
    AffineExpr NDiff = canonicalize(NL) - canonicalize(NR);
    if (NDiff == Diff || NDiff == -Diff)
      return true;
  }
  return proveLt(L, R) || proveLt(R, L);
}

bool ConstraintSystem::equivVars(const std::string &X, const std::string &Y) {
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
    Inconsistent = refute(baseRows());
  return *Inconsistent;
}
