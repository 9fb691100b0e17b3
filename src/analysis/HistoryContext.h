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

#include <algorithm>
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
  VarName X;
  VarName Base;
  VarName Field;    // Field alias.
  AffineExpr Index; // Array alias.

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

/// True if \p Fact mentions variable \p V.
inline bool mentions(const BoolFact &Fact, VarName V) {
  return Fact.L.mentions(V) || Fact.R.mentions(V);
}
inline bool mentions(const AliasFact &Fact, VarName V) {
  return Fact.X == V || Fact.Base == V ||
         (Fact.IsArray && Fact.Index.mentions(V));
}
inline bool mentions(const Path &Fact, VarName V) { return Fact.mentions(V); }

/// One of a history's fact lists, or an anticipated set. Copies of a list
/// share its storage; the first change to a shared list copies that list
/// alone, so copying a History copies four pointers however many facts it
/// holds, and the backward pass stores one anticipated set per statement
/// for the cost of a pointer while the statement changes nothing in it. A
/// list is used by one placement run, on one thread.
template <typename T> class FactList {
public:
  const std::vector<T> &items() const { return Items ? *Items : none(); }
  operator const std::vector<T> &() const { return items(); }
  auto begin() const { return items().begin(); }
  auto end() const { return items().end(); }
  size_t size() const { return items().size(); }
  bool empty() const { return items().empty(); }

  /// The list to change, copied first if another list shares it.
  std::vector<T> &edit() {
    if (!Items)
      Items = std::make_shared<std::vector<T>>();
    else if (Items.use_count() > 1)
      Items = std::make_shared<std::vector<T>>(*Items);
    return *Items;
  }

  /// Appends \p Fact unless the list holds it; true if it was appended.
  bool addNew(T Fact) {
    if (std::find(begin(), end(), Fact) != end())
      return false;
    edit().push_back(std::move(Fact));
    return true;
  }

  /// Erases the facts \p Drop matches, copying the list only if some do.
  template <typename Pred> size_t eraseIf(Pred Drop) {
    if (std::none_of(begin(), end(), Drop))
      return 0;
    return std::erase_if(edit(), Drop);
  }

  /// Replaces each fact that mentions \p V by what \p Rename makes of it,
  /// or drops it when that is nothing; the other facts keep their places.
  /// A list with no fact about V stays as it is, shared. True if it was
  /// replaced.
  template <typename RenameFn> bool renameFacts(VarName V, RenameFn Rename) {
    auto About = [V](const T &Fact) { return mentions(Fact, V); };
    if (std::none_of(begin(), end(), About))
      return false;
    std::vector<T> Renamed;
    for (const T &Fact : items()) {
      if (!About(Fact))
        Renamed.push_back(Fact);
      else if (std::optional<T> R = Rename(Fact))
        Renamed.push_back(std::move(*R));
    }
    assign(std::move(Renamed));
    return true;
  }

  /// Replaces the list by \p Facts.
  void assign(std::vector<T> Facts) {
    Items = std::make_shared<std::vector<T>>(std::move(Facts));
  }

  void clear() { Items.reset(); }

private:
  static const std::vector<T> &none() {
    static const std::vector<T> Empty;
    return Empty;
  }

  std::shared_ptr<std::vector<T>> Items; ///< Null while empty.
};

/// The anticipated set A: paths that will be accessed, with no intervening
/// acquire, on every continuation.
using Anticipated = FactList<Path>;

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

  FactList<Path> Accesses; // p✁ facts; Path::Access is the kind.
  FactList<Path> Checks;   // p✓ facts.

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
  History renamed(VarName From, VarName To) const;

  /// Removes all p✁ and p✓ facts ([REL] post-history), and the alias
  /// facts (conservative: lock hand-off may expose other threads' writes).
  History afterRelease() const;

  /// Removes alias facts only (acquire invalidates them; accesses/checks
  /// persist per [ACQ]).
  History afterAcquire() const;

  /// Drops the alias facts invalidated by a write to field \p Field (all
  /// fields may alias same-named fields), or by any array write.
  void invalidateAliasesForFieldWrite(VarName Field);
  void invalidateAliasesForArrayWrite();

  /// Removes every fact that mentions \p Var (an assignment without a
  /// rename invalidates facts about the old value).
  void dropMentions(VarName Var);

  /// The meet H1 ⊓ H2 = {h ∈ H1 ∪ H2 : H1 ⊢ h, H2 ⊢ h}.
  static History meet(const History &H1, const History &H2);

  std::string str() const;

private:
  FactList<BoolFact> Bools;
  FactList<AliasFact> Aliases;
  EntailmentTable *Table = nullptr;
  /// The prepared system of Bools + Aliases, or null until first queried.
  mutable std::shared_ptr<ConstraintSystem> System;

  /// Called whenever Bools or Aliases change.
  void factsChanged() { System.reset(); }
  void countQuery() const;

  /// Shared machinery for access/check entailment with range chaining. A
  /// path that is itself one of \p Facts, of a kind that covers the query,
  /// is entailed without preparing the constraint system.
  bool entailsPathIn(const std::vector<Path> &Facts, const Path &P) const;
};

/// The full context H • A.
struct Context {
  History H;
  Anticipated A;

  std::string str() const;
};

//===--- Anticipated-set operations -----------------------------------------

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
