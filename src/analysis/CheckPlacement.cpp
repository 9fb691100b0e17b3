//===- CheckPlacement.cpp - The StaticBF check placement analysis ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"

#include "analysis/Coalesce.h"
#include "analysis/HistoryContext.h"
#include "analysis/Rename.h"
#include "support/Timer.h"

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>

using namespace bigfoot;

namespace {

/// How a statement interacts with the happens-before graph.
enum class SyncKind {
  None,
  DirectAcquire, ///< acq, join, volatile read: accesses/checks persist.
  DirectRelease, ///< rel, fork, volatile write: accesses+checks dropped.
  CallAcquire,   ///< call that may acquire: accesses dropped, checks kept.
  CallRelease,   ///< call that may release: accesses+checks dropped.
  CallBoth,      ///< call that may do both.
  Barrier,       ///< await / $g-sync access: release then acquire.
};

bool isAcquireSide(SyncKind K) {
  return K == SyncKind::DirectAcquire || K == SyncKind::CallAcquire ||
         K == SyncKind::CallBoth || K == SyncKind::Barrier;
}

/// Classifies \p S by its KillSets effect: a call by its callee's summary,
/// any other statement by its direct effect (an await, and a $g access
/// under GlobalFieldsSynchronize, both release and acquire).
SyncKind syncKind(const KillSets &Kills, const Stmt *S) {
  SyncEffect E = Kills.effectOf(S);
  bool Call = isa<CallStmt>(S);
  if (E.Acquires && E.Releases)
    return Call ? SyncKind::CallBoth : SyncKind::Barrier;
  if (E.Acquires)
    return Call ? SyncKind::CallAcquire : SyncKind::DirectAcquire;
  if (E.Releases)
    return Call ? SyncKind::CallRelease : SyncKind::DirectRelease;
  return SyncKind::None;
}

/// One per-body run of the three placement passes.
class BodyAnalyzer {
public:
  BodyAnalyzer(const KillSets &Kills, const PlacementOptions &Opts,
               PlacementStats &Stats, EntailmentTable &Table)
      : Kills(Kills), Opts(Opts), Stats(Stats), Table(Table) {}

  void run(StmtPtr &Body) {
    auto *Block = cast<BlockStmt>(Body.get());
    passA(Block, History(Table));
    passB(Block, Anticipated());
    History Final = passC(Block, History(Table));
    // [STMT]: check everything still pending at the end of the body.
    appendCheck(Block, checksFor(Final, Anticipated()), Final);
  }

  /// Emits the per-statement contexts; call after statement renumbering.
  void recordTraceFor(const Stmt *Body) { recordTrace(Body); }

private:
  const KillSets &Kills;
  const PlacementOptions &Opts;
  PlacementStats &Stats;
  EntailmentTable &Table;

  std::map<const Stmt *, History> PreH, PostH;   // Pass 1 annotations.
  std::map<const Stmt *, Anticipated> PreA, PostA; // Pass 2 annotations.
  std::map<const LoopStmt *, History> LoopInv;
  std::map<const LoopStmt *, Anticipated> LoopAin;
  std::map<const Stmt *, History> PostHC; // Pass 3 (with check facts).

  bool bodyHasReleaseEffect(const LoopStmt *Loop) const {
    bool Found = false;
    auto Scan = [this, &Found](const Stmt *S) {
      if (Kills.effectOf(S).Releases)
        Found = true;
    };
    walkStmt(Loop->preBody(), Scan);
    walkStmt(Loop->postBody(), Scan);
    return Found;
  }

  //===--------------------------------------------------------------------===
  // Pass 1: forward history.
  //===--------------------------------------------------------------------===

  History passA(Stmt *S, History In) {
    PreH[S] = In;
    History Out;
    switch (S->kind()) {
    case StmtKind::Block: {
      History H = std::move(In);
      for (auto &Child : cast<BlockStmt>(S)->stmts())
        H = passA(Child.get(), std::move(H));
      Out = std::move(H);
      break;
    }
    case StmtKind::If: {
      auto *If = cast<IfStmt>(S);
      History H1 = PreH[S];
      H1.addCondition(If->cond(), /*Negated=*/false);
      History H2 = PreH[S];
      H2.addCondition(If->cond(), /*Negated=*/true);
      History Then = passA(If->thenStmt(), std::move(H1));
      History Else = passA(If->elseStmt(), std::move(H2));
      Out = History::meet(Then, Else);
      break;
    }
    case StmtKind::Loop:
      Out = passALoop(cast<LoopStmt>(S), PreH[S]);
      break;
    default:
      Out = stepHistory(PreH[S], S, Kills);
      break;
    }
    PostH[S] = Out;
    return Out;
  }

  History passALoop(LoopStmt *Loop, const History &In) {
    History Candidates = In;
    if (Opts.HoistLoopChecks)
      addInductionGuesses(Loop, In, Candidates);
    Candidates = loopInvariant(Loop, In, std::move(Candidates), Table,
                               [this](Stmt *Block, History H) {
                                 return passA(Block, std::move(H));
                               });
    LoopInv[Loop] = Candidates;
    // Final annotation run with the converged invariant.
    History H1 = passA(Loop->preBody(), Candidates);
    History Cont = H1;
    Cont.addCondition(Loop->exitCond(), /*Negated=*/true);
    passA(Loop->postBody(), std::move(Cont));
    History Out = std::move(H1);
    Out.addCondition(Loop->exitCond(), /*Negated=*/false);
    return Out;
  }

  //===--------------------------------------------------------------------===
  // Loop invariant heuristics (Cartesian predicate abstraction, Sec. 5).
  //===--------------------------------------------------------------------===

  struct Induction {
    VarName Var;
    int64_t Step = 0;
    AffineExpr Entry; ///< Value of Var on loop entry, over stable vars.
    bool HasEntry = false;
  };

  void addInductionGuesses(LoopStmt *Loop, const History &In,
                           History &Candidates) const {
    // Variables assigned anywhere in the body are "unstable".
    std::unordered_set<VarName> Assigned;
    auto CollectAssigned = [&Assigned](const Stmt *S) {
      if (const std::string *X = definedVar(S))
        Assigned.insert(VarName::intern(*X));
    };
    walkStmt(Loop->preBody(), CollectAssigned);
    walkStmt(Loop->postBody(), CollectAssigned);

    auto Stable = [&Assigned](const AffineExpr &E) {
      for (const auto &[Var, Coeff] : E.terms())
        if (Assigned.count(Var))
          return false;
      return true;
    };

    // Rename targets: t := s pairs in the body.
    std::unordered_map<VarName, VarName> RenameOf; // target -> source.
    auto CollectRenames = [&RenameOf](Stmt *S) {
      if (const auto *R = dyn_cast<RenameStmt>(S))
        RenameOf[VarName::intern(R->target())] = VarName::intern(R->source());
    };
    walkStmt(Loop->preBody(), CollectRenames);
    walkStmt(Loop->postBody(), CollectRenames);

    // Induction variables: x = x' + c where x' := x was renamed.
    std::vector<Induction> Inductions;
    auto CollectInductions = [&RenameOf, &In, &Assigned,
                              &Inductions](Stmt *S) {
      const auto *A = dyn_cast<AssignStmt>(S);
      if (!A)
        return;
      std::optional<AffineExpr> E = toAffine(A->value());
      if (!E)
        return;
      // E must be exactly x' + c with RenameOf[x'] == x.
      std::span<const AffineExpr::Term> Terms = E->terms();
      if (Terms.size() != 1 || Terms[0].Coeff != 1)
        return;
      Induction Ind;
      Ind.Var = VarName::intern(A->target());
      auto It = RenameOf.find(Terms[0].Var);
      if (It == RenameOf.end() || It->second != Ind.Var)
        return;
      Ind.Step = E->constantPart();
      // A step with no int64 magnitude makes no guess.
      if (Ind.Step == 0 || Ind.Step == INT64_MIN)
        return;
      findEntryValue(In, Ind, Assigned);
      Inductions.push_back(std::move(Ind));
    };
    walkStmt(Loop->preBody(), CollectInductions);
    walkStmt(Loop->postBody(), CollectInductions);

    for (const Induction &Ind : Inductions) {
      if (!Ind.HasEntry)
        continue;
      AffineExpr X = AffineExpr::variable(Ind.Var);
      // Trip-direction bound.
      if (Ind.Step > 0)
        Candidates.addBool({RelOp::Le, Ind.Entry, X});
      else
        Candidates.addBool({RelOp::Le, X, Ind.Entry});
      // Alignment: X stays congruent to its entry value mod the step
      // (the trip-count fact strided invariants need).
      int64_t AbsStep = Ind.Step > 0 ? Ind.Step : -Ind.Step;
      if (AbsStep > 1) {
        BoolFact Cong;
        Cong.Op = RelOp::Cong;
        Cong.L = X;
        Cong.R = Ind.Entry;
        Cong.Mod = AbsStep;
        Candidates.addBool(std::move(Cong));
      }

      // Accumulated access ranges for each array access indexed by the
      // induction variable. A guess whose step or bounds overflow int64
      // is not made.
      auto GuessForAccess = [&](const std::string &Array,
                                const AffineExpr &Idx, AccessKind Kind) {
        if (Assigned.count(VarName::intern(Array)))
          return;
        int64_t M = Idx.coeff(Ind.Var);
        if (M == 0)
          return;
        // Other index variables must be stable.
        AffineExpr Rest = Idx.substitute(Ind.Var, AffineExpr::constant(0));
        if (!Stable(Rest))
          return;
        int64_t EffStep = 0;
        if (__builtin_mul_overflow(Ind.Step, M, &EffStep) ||
            EffStep == INT64_MIN)
          return;
        AffineExpr IdxAtEntry = Idx.substitute(Ind.Var, Ind.Entry);
        SymbolicRange Guess;
        if (EffStep > 0)
          Guess = SymbolicRange(IdxAtEntry, Idx, EffStep);
        else
          Guess = SymbolicRange(Idx - EffStep, IdxAtEntry + 1, -EffStep);
        if (Guess.overflowed())
          return;
        Candidates.addAccess(Path::array(Kind, Array, std::move(Guess)));
      };
      auto ScanAccesses = [&GuessForAccess](const Stmt *S) {
        std::optional<Path> Access = accessPath(S);
        if (Access && Access->isArray()) // Range is [index, index + 1).
          GuessForAccess(Access->Designator, Access->Range.Begin,
                         Access->Access);
      };
      walkStmt(Loop->preBody(), ScanAccesses);
      walkStmt(Loop->postBody(), ScanAccesses);
    }
  }

  /// Finds an entry-value expression for Ind.Var from the loop-entry
  /// history: an equality fact solvable as Var = E over stable variables.
  /// A fact whose solution overflows int64 gives no entry value.
  static void findEntryValue(const History &In, Induction &Ind,
                             const std::unordered_set<VarName> &Assigned) {
    for (const BoolFact &Fact : In.bools()) {
      if (Fact.Op != RelOp::Eq)
        continue;
      AffineExpr Diff = Fact.L - Fact.R;
      int64_t C = Diff.coeff(Ind.Var);
      if (C != 1 && C != -1)
        continue;
      // Diff = C*Var + Rest = 0  =>  Var = -Rest * C.
      AffineExpr Rest = Diff.substitute(Ind.Var, AffineExpr::constant(0));
      AffineExpr Entry = (-Rest) * C;
      if (Entry.overflowed())
        continue;
      bool IsStable = true;
      for (const auto &[Var, Coeff] : Entry.terms())
        if (Assigned.count(Var))
          IsStable = false;
      if (!IsStable)
        continue;
      Ind.Entry = Entry;
      Ind.HasEntry = true;
      return;
    }
  }

  //===--------------------------------------------------------------------===
  // Pass 2: backward anticipated accesses.
  //===--------------------------------------------------------------------===

  Anticipated passB(Stmt *S, Anticipated Out) {
    PostA[S] = Out;
    Anticipated In;
    switch (S->kind()) {
    case StmtKind::Block: {
      auto &Stmts = cast<BlockStmt>(S)->stmts();
      Anticipated A = std::move(Out);
      for (auto It = Stmts.rbegin(); It != Stmts.rend(); ++It)
        A = passB(It->get(), std::move(A));
      In = std::move(A);
      break;
    }
    case StmtKind::If: {
      auto *If = cast<IfStmt>(S);
      Anticipated A1 = passB(If->thenStmt(), Out);
      Anticipated A2 = passB(If->elseStmt(), Out);
      In = meetAnticipated(PreH[If->thenStmt()], A1, PreH[If->elseStmt()],
                           A2);
      break;
    }
    case StmtKind::Loop:
      In = passBLoop(cast<LoopStmt>(S), Out);
      break;
    default:
      In = stepB(S, std::move(Out));
      break;
    }
    PreA[S] = In;
    return In;
  }

  Anticipated stepB(const Stmt *S, Anticipated Out) const {
    SyncKind Kind = syncKind(Kills, S);
    if (isAcquireSide(Kind))
      return Anticipated(); // [ACQ]: pre-anticipated must be empty.
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      return substituteAnticipated(Out, A->target(), toAffine(A->value()));
    }
    case StmtKind::Rename: {
      const auto *R = cast<RenameStmt>(S);
      return renameAnticipated(Out, R->target(), R->source());
    }
    default:
      break;
    }
    if (const std::string *X = definedVar(S))
      Out = removeVar(Out, *X);
    // Releases do not kill anticipation, and add none: a volatile access
    // is never checked.
    if (Kind == SyncKind::None && Opts.UseAnticipation)
      if (std::optional<Path> Access = accessPath(S))
        addAnticipated(Out, *Access);
    return Out;
  }

  static bool sameAnticipated(Anticipated A, Anticipated B) {
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    return A == B;
  }

  Anticipated passBLoop(LoopStmt *Loop, const Anticipated &Aout) {
    // Seed with every access path in the body plus the continuation's
    // anticipated set, then shrink to a consistent fixed point. Any fixed
    // point is sound; failing to converge falls back to the empty set
    // (which only costs precision).
    Anticipated Head;
    if (Opts.UseAnticipation) {
      auto Collect = [&Head](const Stmt *S) {
        if (std::optional<Path> Access = accessPath(S))
          addAnticipated(Head, *Access);
      };
      walkStmt(Loop->preBody(), Collect);
      walkStmt(Loop->postBody(), Collect);
      for (const Path &P : Aout)
        addAnticipated(Head, P);
    }

    History HPre = PostH[Loop->preBody()];
    History HExit = HPre;
    HExit.addCondition(Loop->exitCond(), /*Negated=*/false);
    History HCont = HPre;
    HCont.addCondition(Loop->exitCond(), /*Negated=*/true);

    Anticipated Result;
    bool Converged = false;
    for (int Iter = 0; Iter < 8; ++Iter) {
      Anticipated ABack = passB(Loop->postBody(), Head);
      Anticipated ATest = meetAnticipated(HExit, Aout, HCont, ABack);
      Anticipated NewHead = passB(Loop->preBody(), std::move(ATest));
      if (sameAnticipated(NewHead, Head)) {
        Result = NewHead;
        Converged = true;
        break;
      }
      Head = std::move(NewHead);
    }
    if (!Converged) {
      // Re-annotate with the sound empty head.
      Anticipated ABack = passB(Loop->postBody(), Anticipated());
      Anticipated ATest = meetAnticipated(HExit, Aout, HCont, ABack);
      passB(Loop->preBody(), std::move(ATest));
      Result = Anticipated();
    }
    LoopAin[Loop] = Result;
    return Result;
  }

  //===--------------------------------------------------------------------===
  // Pass 3: forward check placement.
  //===--------------------------------------------------------------------===

  void materializeCheck(std::vector<StmtPtr> &Stmts, size_t Pos,
                        const std::vector<Path> &C, const History &H) {
    if (C.empty())
      return;
    std::vector<Path> Final = Opts.CoalesceChecks ? coalescePaths(C, H) : C;
    Stats.ChecksInserted++;
    Stats.PathsInserted += static_cast<unsigned>(Final.size());
    auto Check = std::make_unique<CheckStmt>(std::move(Final));
    if (Opts.TraceContexts) {
      History After = H;
      for (const Path &P : C)
        After.addCheck(P);
      PostHC[Check.get()] = std::move(After);
    }
    Stmts.insert(Stmts.begin() + static_cast<ptrdiff_t>(Pos),
                 std::move(Check));
  }

  void appendCheck(BlockStmt *Block, const std::vector<Path> &C,
                   const History &H) {
    materializeCheck(Block->stmts(), Block->stmts().size(), C, H);
  }

  History passC(BlockStmt *Block, History H) {
    auto &Stmts = Block->stmts();
    for (size_t I = 0; I < Stmts.size(); ++I) {
      Stmt *S = Stmts[I].get();
      switch (S->kind()) {
      case StmtKind::Block:
        H = passC(cast<BlockStmt>(S), std::move(H));
        break;
      case StmtKind::If: {
        auto *If = cast<IfStmt>(S);
        const Anticipated &Aout = PostA[S];
        History H1 = H;
        H1.addCondition(If->cond(), /*Negated=*/false);
        History H2 = H;
        H2.addCondition(If->cond(), /*Negated=*/true);
        H1 = passC(cast<BlockStmt>(If->thenStmt()), std::move(H1));
        H2 = passC(cast<BlockStmt>(If->elseStmt()), std::move(H2));
        History Merged = History::meet(H1, H2);
        std::vector<Path> C1 = checksFor(H1, Merged, Aout);
        std::vector<Path> C2 = checksFor(H2, Merged, Aout);
        appendCheck(cast<BlockStmt>(If->thenStmt()), C1, H1);
        appendCheck(cast<BlockStmt>(If->elseStmt()), C2, H2);
        for (const Path &P : C1)
          H1.addCheck(P);
        for (const Path &P : C2)
          H2.addCheck(P);
        H = History::meet(H1, H2);
        break;
      }
      case StmtKind::Loop: {
        auto *Loop = cast<LoopStmt>(S);
        const History &Hinv = LoopInv[Loop];
        const Anticipated &Ain = LoopAin[Loop];
        bool KeepChecks = !bodyHasReleaseEffect(Loop);

        History HinvC = Hinv;
        if (KeepChecks)
          HinvC.Checks = H.Checks;
        std::vector<Path> Cin = checksFor(H, HinvC, Ain);
        materializeCheck(Stmts, I, Cin, H);
        if (!Cin.empty())
          ++I; // Skip over the inserted check; S stays the loop.
        if (KeepChecks)
          for (const Path &P : Cin)
            HinvC.addCheck(P);

        History H1 = passC(cast<BlockStmt>(Loop->preBody()), HinvC);
        History Hout = H1;
        Hout.addCondition(Loop->exitCond(), /*Negated=*/false);
        History HbackIn = H1;
        HbackIn.addCondition(Loop->exitCond(), /*Negated=*/true);
        History Hback =
            passC(cast<BlockStmt>(Loop->postBody()), std::move(HbackIn));
        std::vector<Path> Cback = checksFor(Hback, HinvC, Ain);
        appendCheck(cast<BlockStmt>(Loop->postBody()), Cback, Hback);
        H = std::move(Hout);
        break;
      }
      default: {
        SyncKind Kind = syncKind(Kills, S);
        if (Kind != SyncKind::None) {
          const Anticipated &A = PreA.count(S) ? PreA[S] : Anticipated();
          std::vector<Path> C = checksFor(H, A);
          materializeCheck(Stmts, I, C, H);
          if (!C.empty())
            ++I;
          for (const Path &P : C)
            H.addCheck(P);
        }
        H = stepHistory(H, S, Kills);
        break;
      }
      }
      PostHC[Stmts[I].get()] = H;
    }
    return H;
  }

  //===--------------------------------------------------------------------===
  // Trace (Figures 3 and 6).
  //===--------------------------------------------------------------------===

  void recordTrace(const Stmt *Body) {
    walkStmt(Body, [this](const Stmt *S) {
      if (S->id() == 0)
        return;
      Context Ctx;
      auto ItH = PostHC.find(S);
      Ctx.H = ItH != PostHC.end() ? ItH->second
                                  : (PostH.count(S) ? PostH[S] : History());
      if (PostA.count(S))
        Ctx.A = PostA[S];
      Stats.ContextAfter[S->id()] = Ctx.str();
    });
  }
};

} // namespace

History bigfoot::stepHistory(const History &In, const Stmt *S,
                             const KillSets &Kills) {
  History H = In;
  switch (syncKind(Kills, S)) {
  case SyncKind::DirectAcquire:
    return H.afterAcquire();
  case SyncKind::DirectRelease:
    return H.afterRelease();
  case SyncKind::CallAcquire: {
    History Out = H.afterAcquire();
    Out.Accesses.clear();
    return Out;
  }
  case SyncKind::CallRelease:
  case SyncKind::CallBoth:
    return H.afterRelease();
  case SyncKind::Barrier: {
    History Out = H.afterRelease();
    // $g accesses are real accesses on top of the synchronization.
    if (std::optional<Path> Access = accessPath(S))
      Out.addAccess(*Access);
    return Out;
  }
  case SyncKind::None:
    break;
  }

  // x = y.f, x = y[i] and x = len(y) alias the new x, unless x is also y
  // or i reads x: then the fact would describe the old x.
  auto AddAlias = [&H](AliasFact Alias) {
    if (Alias.X == Alias.Base ||
        (Alias.IsArray && Alias.Index.mentions(VarName::intern(Alias.X))))
      return;
    H.addAlias(std::move(Alias));
  };
  switch (S->kind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    const VarName Target = VarName::intern(A->target());
    if (auto E = toAffine(A->value()))
      if (!E->mentions(Target))
        H.addBool({RelOp::Eq, AffineExpr::variable(Target), *E});
    break;
  }
  case StmtKind::Rename: {
    // [RENAME] x ← y replaces mentions of y by x.
    const auto *R = cast<RenameStmt>(S);
    return H.renamed(R->source(), R->target());
  }
  case StmtKind::FieldRead: {
    const auto *F = cast<FieldReadStmt>(S);
    AliasFact Alias;
    Alias.IsArray = false;
    Alias.X = F->target();
    Alias.Base = F->object();
    Alias.Field = F->field();
    AddAlias(std::move(Alias));
    break;
  }
  case StmtKind::FieldWrite:
    H.invalidateAliasesForFieldWrite(cast<FieldWriteStmt>(S)->field());
    break;
  case StmtKind::ArrayRead: {
    const auto *A = cast<ArrayReadStmt>(S);
    std::optional<AffineExpr> Idx = toAffine(A->index());
    assert(Idx && "validator guarantees affine indices");
    AliasFact Alias;
    Alias.IsArray = true;
    Alias.X = A->target();
    Alias.Base = A->array();
    Alias.Index = *Idx;
    AddAlias(std::move(Alias));
    break;
  }
  case StmtKind::ArrayWrite:
    H.invalidateAliasesForArrayWrite();
    break;
  case StmtKind::ArrayLen: {
    const auto *A = cast<ArrayLenStmt>(S);
    AliasFact Alias;
    Alias.IsArray = false;
    Alias.X = A->target();
    Alias.Base = A->array();
    Alias.Field = "$len";
    AddAlias(std::move(Alias));
    H.addBool({RelOp::Le, AffineExpr::constant(0),
               AffineExpr::variable(VarName::intern(A->target()))});
    break;
  }
  case StmtKind::AssertStmt:
    H.addCondition(cast<AssertStmtNode>(S)->cond(), /*Negated=*/false);
    break;
  case StmtKind::Check:
    for (const Path &P : cast<CheckStmt>(S)->paths())
      H.addCheck(P);
    break;
  default:
    break;
  }
  // [READ]/[WRITE]: the access itself, after its alias facts.
  if (std::optional<Path> Access = accessPath(S))
    H.addAccess(*Access);
  return H;
}

History bigfoot::loopInvariant(const LoopStmt *Loop, const History &In,
                               History Candidates, EntailmentTable &Table,
                               const LoopBlockPass &Pass) {
  // Each round keeps a subset of the last, so equal sizes mean no fact
  // dropped out.
  auto SameFacts = [](const History &A, const History &B) {
    return A.bools().size() == B.bools().size() &&
           A.aliases().size() == B.aliases().size() &&
           A.Accesses.size() == B.Accesses.size() &&
           A.Checks.size() == B.Checks.size();
  };
  for (int Iter = 0; Iter < 6; ++Iter) {
    History Cont = Pass(Loop->preBody(), Candidates);
    Cont.addCondition(Loop->exitCond(), /*Negated=*/true);
    History Back = Pass(Loop->postBody(), std::move(Cont));

    History Refined(Table);
    auto KeepIf = [&Refined, &In, &Back](auto &&Facts, auto Entails,
                                         auto Add) {
      for (const auto &Fact : Facts)
        if ((In.*Entails)(Fact) && (Back.*Entails)(Fact))
          (Refined.*Add)(Fact);
    };
    KeepIf(Candidates.bools(), &History::entailsBool, &History::addBool);
    KeepIf(Candidates.aliases(), &History::entailsAlias, &History::addAlias);
    KeepIf(Candidates.Accesses, &History::entailsAccess,
           &History::addAccess);
    KeepIf(Candidates.Checks, &History::entailsCheck, &History::addCheck);
    if (SameFacts(Refined, Candidates))
      break;
    Candidates = std::move(Refined);
  }
  return Candidates;
}

PlacementStats bigfoot::placeBigFootChecks(Program &P,
                                           const PlacementOptions &Opts) {
  PlacementStats Stats;
  Timer T;
  Stats.RenamesInserted = insertRenames(P);
  KillSets Kills(P, Opts.Sync);
  EntailmentTable Table;
  // When tracing, analyzers stay alive so contexts can be emitted against
  // the final statement numbering (and rename cleanup is skipped so every
  // traced node survives).
  std::vector<std::pair<std::unique_ptr<BodyAnalyzer>, const Stmt *>>
      Tracers;
  auto RunBody = [&](StmtPtr &Body) {
    auto Analyzer =
        std::make_unique<BodyAnalyzer>(Kills, Opts, Stats, Table);
    Analyzer->run(Body);
    if (Opts.TraceContexts)
      Tracers.emplace_back(std::move(Analyzer), Body.get());
    else
      Stats.RenamesInserted -= cleanupRenames(Body);
    Stats.MethodsProcessed++;
  };
  for (auto &C : P.Classes)
    for (auto &M : C->Methods)
      RunBody(M->Body);
  for (auto &Thread : P.Threads)
    RunBody(Thread);
  P.numberStatements();
  P.internSymbols();
  for (auto &[Analyzer, Body] : Tracers)
    Analyzer->recordTraceFor(Body);
  Stats.Entailment = Table.Counts;
  Stats.AnalysisSeconds = T.seconds();
  return Stats;
}
