//===- ConstraintSystem.h - Entailment engine (Z3 stand-in) ----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision procedure behind history/anticipated entailment (Section
/// 3.4: H |- h and H•A |- a). The paper discharges these queries with Z3;
/// the queries BigFoot actually emits are conjunctions of affine
/// (in)equalities over locals plus heap alias expressions (Section 5), so
/// a small dedicated engine decides them:
///
///  * a congruence closure over variables and alias terms (x = y.f,
///    x = y[i]) handles designator equivalence, and
///  * Fourier-Motzkin refutation over the affine facts proves equalities
///    and inequalities (sound: the rational relaxation only ever proves
///    valid integer facts).
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_ENTAIL_CONSTRAINTSYSTEM_H
#define BIGFOOT_ENTAIL_CONSTRAINTSYSTEM_H

#include "support/AffineExpr.h"
#include "support/VarName.h"

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace bigfoot {

/// Entailment work of one placement run, as deterministic counts. A query
/// is one H ⊢ h question asked of a History; a system is prepared each time
/// a ConstraintSystem computes its closure from its facts.
struct EntailmentCounts {
  unsigned Queries = 0;
  unsigned Systems = 0;
  unsigned Refutations = 0; ///< Fourier-Motzkin runs.
};

/// A conjunction of facts plus queries against them. Build one, add the
/// facts of a history context, then ask entailment questions. Queries are
/// conservative: "false" means "not provable", never "disproved".
///
/// A system answers each question once: its closure, its canonical base
/// rows and its inconsistent() verdict are computed on the first query
/// that needs them, and proveLe answers are memoized by canonical L - R.
/// Adding a fact after a query drops all of it, so every answer is the one
/// a system freshly built from the same ordered facts would give.
///
/// Every variable, alias term and constant representative is a VarName,
/// so the closure, the rows and the memo compare handles. Names are read
/// only where their order decides something (the closure's representative,
/// the elimination order), so no answer depends on the order in which the
/// names were interned. A fact whose row overflows int64 is dropped, and a
/// question whose row overflows is answered "not provable".
class ConstraintSystem {
public:
  /// Counts this system's closure builds and refutations into \p C, which
  /// must outlive the system and its copies (null counts nothing).
  void countInto(EntailmentCounts *C) { Counts = C; }

  /// Adds the fact L == R.
  void addEquality(const AffineExpr &L, const AffineExpr &R);

  /// Adds the fact L <= R.
  void addLe(const AffineExpr &L, const AffineExpr &R);

  /// Adds the fact L < R (as L + 1 <= R; BFJ integers are mathematical).
  void addLt(const AffineExpr &L, const AffineExpr &R) { addLe(L + 1, R); }

  /// Adds the fact L != R. Disequalities do not feed the linear solver;
  /// they only support proveNe.
  void addNe(const AffineExpr &L, const AffineExpr &R);

  /// Adds the fact E ≡ R (mod M). Congruences carry the divisibility
  /// knowledge (e.g. "i is even") that strided-range alignment proofs
  /// need; the paper obtains it from induction-variable trip counts.
  void addCongruence(const AffineExpr &E, int64_t M, int64_t R);

  /// Adds the heap alias fact X = Y.F (field read while race-free).
  void addFieldAlias(VarName X, VarName Y, VarName F);

  /// Adds the heap alias fact X = Y[Index].
  void addArrayAlias(VarName X, VarName Y, const AffineExpr &Index);

  /// True if the facts entail L == R.
  bool proveEq(const AffineExpr &L, const AffineExpr &R);

  /// True if the facts entail L <= R.
  bool proveLe(const AffineExpr &L, const AffineExpr &R);

  /// True if the facts entail L < R.
  bool proveLt(const AffineExpr &L, const AffineExpr &R) {
    return proveLe(L + 1, R);
  }

  /// True if the facts entail L != R (constant difference, a recorded
  /// disequality, or a strict bound).
  bool proveNe(const AffineExpr &L, const AffineExpr &R);

  /// True if the facts entail E ≡ R (mod M). Reduces E with equality and
  /// congruence facts until only a constant residue remains.
  bool proveCongruent(const AffineExpr &E, int64_t M, int64_t R);

  /// True if variables X and Y must denote the same value (congruence or
  /// linear equality).
  bool equivVars(VarName X, VarName Y);

  /// True if the facts entail that range Sub (with literal stride) is a
  /// subset of range Sup: Sup.Begin <= Sub.Begin, Sub.End <= Sup.End,
  /// stride divisibility, and alignment — or Sub is provably empty.
  bool proveRangeSubset(const SymbolicRange &Sub, const SymbolicRange &Sup);

  /// True if the facts are *detectably* inconsistent (e.g. both branches
  /// of an if added contradictory tests). Used to prune dead merge arms.
  bool inconsistent();

private:
  /// A Fourier-Motzkin row R stands for R <= 0.
  using Row = AffineExpr;

  std::vector<std::pair<AffineExpr, AffineExpr>> Equalities;
  std::vector<std::pair<AffineExpr, AffineExpr>> LeFacts;
  std::vector<std::pair<AffineExpr, AffineExpr>> NeFacts;

  struct CongFact {
    AffineExpr E;
    int64_t Mod = 1;
    int64_t Rem = 0;
  };
  std::vector<CongFact> CongFacts;

  struct AliasFact {
    VarName X;
    VarName Base;
    bool IsArray = false;
    VarName Field;
    AffineExpr Index;
  };
  std::vector<AliasFact> Aliases;

  /// An alias term: Field of the object Base (a field alias), or element
  /// Index of the array Base (an array alias), with Base and the index's
  /// variables already replaced by their representatives.
  struct AliasKey {
    bool IsArray = false;
    VarName Base;
    VarName Field;
    AffineExpr Index;

    bool operator==(const AliasKey &O) const {
      return IsArray == O.IsArray && Base == O.Base && Field == O.Field &&
             Index == O.Index;
    }
  };
  struct AliasKeyHash {
    size_t operator()(const AliasKey &K) const {
      return K.IsArray ? K.Index.hash() ^ (K.Base.hash() << 1)
                       : K.Field.hash() ^ (K.Base.hash() << 1);
    }
  };
  /// The union-find node of each alias term: the name "f#<field>#<base>"
  /// or "a#<base>#<index>", interned once per term, so that the term takes
  /// its place in name order.
  std::unordered_map<AliasKey, VarName, AliasKeyHash> AliasNodes;

  EntailmentCounts *Counts = nullptr;

  /// Union-find over variables, alias terms and constants, rebuilt lazily.
  std::unordered_map<VarName, VarName> Parent;
  bool ClosureDirty = true;

  /// Derived from the facts on first use; invalidate() drops them.
  std::optional<std::vector<Row>> BaseRows;
  std::optional<bool> Inconsistent;
  /// proveLe answer by canonical L - R.
  std::unordered_map<AffineExpr, bool> LeByDiff;

  /// Called by every add*: a fact added after a query drops all derived
  /// state.
  void invalidate();

  VarName find(VarName V);
  void unite(VarName A, VarName B);
  VarName aliasNode(const AliasKey &Key);
  void rebuildClosure();

  /// Rewrites every variable to its congruence representative.
  AffineExpr canonicalize(const AffineExpr &E);

  /// The base FM rows (facts only, canonicalized and tightened).
  const std::vector<Row> &baseRows();

  /// True if the base rows plus \p Goal (a negated goal row, or null) are
  /// infeasible.
  bool refute(const Row *Goal);
};

} // namespace bigfoot

#endif // BIGFOOT_ENTAIL_CONSTRAINTSYSTEM_H
