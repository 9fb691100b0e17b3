//===- HistoryContext.h - Analysis contexts H • A ---------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis contexts of Section 3.2: a history H of boolean facts,
/// heap alias expressions (Section 5), past accesses p✁ and past checks
/// p✓, paired with a set A of anticipated accesses p✸. Entailment (H ⊢ h
/// and H•A ⊢ a) is discharged through the ConstraintSystem engine.
///
/// Read/write refinement (Section 5): access kinds are ordered W ≥ R. A
/// fact of kind W satisfies a query of kind R everywhere — a past write
/// check covers read accesses, an anticipated write covers a past read,
/// and a recorded write access may stand in for the read access the merge
/// would otherwise forget.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_ANALYSIS_HISTORYCONTEXT_H
#define BIGFOOT_ANALYSIS_HISTORYCONTEXT_H

#include "bfj/Path.h"
#include "entail/ConstraintSystem.h"
#include "support/AffineExpr.h"

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace bigfoot {

/// Relational operator of a boolean history fact. Cong is L ≡ R (mod Mod)
/// — the divisibility facts that strided loop invariants rest on.
enum class RelOp { Eq, Ne, Lt, Le, Cong };

/// An affine comparison recorded from a branch test or assignment.
struct BoolFact {
  RelOp Op = RelOp::Eq;
  AffineExpr L;
  AffineExpr R;
  int64_t Mod = 0; ///< Modulus for RelOp::Cong, unused otherwise.

  bool operator==(const BoolFact &O) const {
    return Op == O.Op && L == O.L && R == O.R && Mod == O.Mod;
  }

  std::string str() const;
};

/// Heap alias fact x = y.f or x = y[i] (Section 5). Valid only while the
/// trace is race free; invalidated by acquires and same-field writes.
struct AliasFact {
  bool IsArray = false;
  std::string X;
  std::string Base;
  std::string Field;  // Field alias.
  AffineExpr Index;   // Array alias.

  bool operator==(const AliasFact &O) const {
    return IsArray == O.IsArray && X == O.X && Base == O.Base &&
           Field == O.Field && Index == O.Index;
  }

  std::string str() const;
};

/// True if Fact's access kind satisfies a query of kind \p Query (W ≥ R).
inline bool kindSatisfies(AccessKind Fact, AccessKind Query) {
  return Fact == AccessKind::Write || Query == AccessKind::Read;
}

/// The anticipated set A: paths that will be accessed, with no intervening
/// acquire, on every continuation.
using Anticipated = std::vector<Path>;

/// The prepared constraint systems of one placement run, one per distinct
/// ordered list of boolean and alias facts, so that a question asked of
/// any history with those facts is answered once per run. The placement
/// call owns the table; it starts empty, as a command-line run does.
class EntailmentTable {
public:
  /// The system of exactly these facts, prepared on first request.
  std::shared_ptr<ConstraintSystem>
  systemFor(const std::vector<BoolFact> &Bools,
            const std::vector<AliasFact> &Aliases);

  EntailmentCounts Counts;

private:
  /// Hashes a (boolean facts, alias facts) key by variable handle, given
  /// the stored tuple or a tuple of references to look one up with.
  struct FactsHash {
    using is_transparent = void;
    template <typename Facts> size_t operator()(const Facts &F) const {
      return hashFacts(std::get<0>(F), std::get<1>(F));
    }
  };
  static size_t hashFacts(const std::vector<BoolFact> &Bools,
                          const std::vector<AliasFact> &Aliases);

  std::unordered_map<std::tuple<std::vector<BoolFact>, std::vector<AliasFact>>,
                     std::shared_ptr<ConstraintSystem>, FactsHash,
                     std::equal_to<>>
      Systems;
};

/// The history component H of an analysis context.
class History {
public:
  History() = default;
  /// A history whose queries share the prepared systems of \p Table and
  /// count into its counters; histories derived from it inherit both.
  explicit History(EntailmentTable &Table) : Table(&Table) {}

  std::vector<Path> Accesses; // p✁ facts; Path::Access is the kind.
  std::vector<Path> Checks;   // p✓ facts.

  /// The boolean and alias facts change only through the methods below,
  /// which drop the history's prepared system.
  const std::vector<BoolFact> &bools() const { return Bools; }
  const std::vector<AliasFact> &aliases() const { return Aliases; }

  //===--- Fact insertion --------------------------------------------------
  void addBool(BoolFact Fact);
  /// Decomposes a conjunction of affine comparisons; non-affine conjuncts
  /// are dropped. \p Negated records the negation (else-branch / loop-exit
  /// polarity).
  void addCondition(const class Expr *Cond, bool Negated);
  void addAlias(AliasFact Fact);
  void addAccess(const Path &P);
  void addCheck(const Path &P);

  //===--- Entailment (H ⊢ h) ----------------------------------------------
  /// The constraint system of the boolean + alias facts: looked up once
  /// per history state (in the table, if any) and shared by every history
  /// with the same facts. Only query it; to add a fact, copy it first.
  ConstraintSystem &constraints() const;

  bool entailsBool(const BoolFact &Fact) const;
  /// H ⊢ p✁. Array queries may be discharged by chaining several access
  /// facts whose ranges provably tile the queried range.
  bool entailsAccess(const Path &P) const;
  /// H ⊢ p✓ (same chaining).
  bool entailsCheck(const Path &P) const;
  /// H•A ⊢ p✸.
  bool entailsAnticipated(const Anticipated &A, const Path &P) const;
  bool entailsAlias(const AliasFact &Fact) const;

  //===--- Structural operations -------------------------------------------
  /// H[From := To] for the [RENAME] rule.
  History renamed(const std::string &From, const std::string &To) const;

  /// Removes all p✁ and p✓ facts ([REL] post-history), and the alias
  /// facts (conservative: lock hand-off may expose other threads' writes).
  History afterRelease() const;

  /// Removes alias facts only (acquire invalidates them; accesses/checks
  /// persist per [ACQ]).
  History afterAcquire() const;

  /// Drops alias facts invalidated by a write to \p FieldName (all fields
  /// may alias same-named fields) or by any array write (FieldName empty).
  void invalidateAliasesForFieldWrite(const std::string &FieldName);
  void invalidateAliasesForArrayWrite();

  /// Removes every fact that mentions \p Name (an assignment without a
  /// rename invalidates facts about the old value).
  void dropMentions(const std::string &Name);

  /// The meet H1 ⊓ H2 = {h ∈ H1 ∪ H2 : H1 ⊢ h, H2 ⊢ h}.
  static History meet(const History &H1, const History &H2);

  std::string str() const;

private:
  std::vector<BoolFact> Bools;
  std::vector<AliasFact> Aliases;
  EntailmentTable *Table = nullptr;
  /// The prepared system of Bools + Aliases, or null until first queried.
  mutable std::shared_ptr<ConstraintSystem> System;

  /// Called whenever Bools or Aliases change.
  void factsChanged() { System.reset(); }
  void countQuery() const;

  /// Shared machinery for access/check entailment with range chaining.
  bool entailsPathIn(const std::vector<Path> &Facts, const Path &P) const;
};

/// The full context H • A.
struct Context {
  History H;
  Anticipated A;

  std::string str() const;
};

//===--- Anticipated-set operations -----------------------------------------

/// A[x := e] — substitutes into index bounds; paths whose designator is x
/// (no longer expressible) are dropped, as are paths whose bounds become
/// non-affine (cannot happen here since e is affine — callers pass the
/// affine form or drop).
Anticipated substituteAnticipated(const Anticipated &A, const std::string &X,
                                  const std::optional<AffineExpr> &E);

/// A \ x — removes paths mentioning x.
Anticipated removeVar(const Anticipated &A, const std::string &X);

/// A[From := To] for [RENAME].
Anticipated renameAnticipated(const Anticipated &A, const std::string &From,
                              const std::string &To);

/// Adds \p P to \p A without duplicates.
void addAnticipated(Anticipated &A, const Path &P);

/// H1•A1 ⊓ H2•A2 = {a ∈ A1 ∪ A2 : H1•A1 ⊢ a, H2•A2 ⊢ a}.
Anticipated meetAnticipated(const History &H1, const Anticipated &A1,
                            const History &H2, const Anticipated &A2);

//===--- The Checks functions (Section 3.4) ----------------------------------

/// Checks(H, A) = {p : p✁ ∈ H, H ⊬ p✓, H•A ⊬ p✸}.
std::vector<Path> checksFor(const History &H, const Anticipated &A);

/// Checks(H, H', A) = {p : p✁ ∈ H, H' ⊬ p✁, H ⊬ p✓, H•A ⊬ p✸}.
std::vector<Path> checksFor(const History &H, const History &Approx,
                            const Anticipated &A);

} // namespace bigfoot

#endif // BIGFOOT_ANALYSIS_HISTORYCONTEXT_H
