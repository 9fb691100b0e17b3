//===- Instrumenters.cpp - Check placement for all five tools ---------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "instrument/Instrumenters.h"

#include "analysis/FieldProxy.h"
#include "analysis/KillSets.h"
#include "analysis/Rename.h"

#include <cassert>

using namespace bigfoot;

namespace {

//===----------------------------------------------------------------------===
// FastTrack / SlimState placement: a check before every access.
//===----------------------------------------------------------------------===

void insertPerAccessChecks(const Program &P, Stmt *S) {
  if (auto *Block = dyn_cast<BlockStmt>(S)) {
    auto &Stmts = Block->stmts();
    for (size_t I = 0; I < Stmts.size(); ++I) {
      Stmt *Child = Stmts[I].get();
      if (isa<BlockStmt>(Child) || isa<IfStmt>(Child) ||
          isa<LoopStmt>(Child)) {
        insertPerAccessChecks(P, Child);
        continue;
      }
      std::optional<Path> Pth = accessPath(Child);
      if (!Pth)
        continue;
      // Volatile accesses are synchronization, never checked.
      if (Pth->isField() && P.isFieldVolatileAnywhere(Pth->Fields[0]))
        continue;
      Stmts.insert(Stmts.begin() + static_cast<ptrdiff_t>(I),
                   std::make_unique<CheckStmt>(std::vector<Path>{*Pth}));
      ++I;
    }
    return;
  }
  if (auto *If = dyn_cast<IfStmt>(S)) {
    insertPerAccessChecks(P, If->thenStmt());
    insertPerAccessChecks(P, If->elseStmt());
    return;
  }
  if (auto *Loop = dyn_cast<LoopStmt>(S)) {
    insertPerAccessChecks(P, Loop->preBody());
    insertPerAccessChecks(P, Loop->postBody());
    return;
  }
}

//===----------------------------------------------------------------------===
// RedCard placement: per-access checks minus redundant ones.
//===----------------------------------------------------------------------===

/// StaticBF's forward history (stepHistory, loopInvariant) with a check
/// before each access that history does not entail: no anticipation, no
/// motion, no coalescing.
class RedCardPass {
public:
  explicit RedCardPass(const KillSets &Kills) : Kills(Kills) {}

  unsigned checksInserted() const { return NumChecks; }

  void runOnBody(Stmt *Body) {
    assert(isa<BlockStmt>(Body) && "bodies are blocks");
    processBlock(cast<BlockStmt>(Body), History(Table), /*Insert=*/true);
  }

private:
  const KillSets &Kills;
  EntailmentTable Table;
  unsigned NumChecks = 0;

  History processBlock(BlockStmt *Block, History H, bool Insert) {
    auto &Stmts = Block->stmts();
    for (size_t I = 0; I < Stmts.size(); ++I) {
      Stmt *Child = Stmts[I].get();
      if (auto *Inner = dyn_cast<BlockStmt>(Child)) {
        H = processBlock(Inner, std::move(H), Insert);
      } else if (auto *If = dyn_cast<IfStmt>(Child)) {
        History H1 = H;
        H1.addCondition(If->cond(), /*Negated=*/false);
        History H2 = H;
        H2.addCondition(If->cond(), /*Negated=*/true);
        H1 = processBlock(cast<BlockStmt>(If->thenStmt()), std::move(H1),
                          Insert);
        H2 = processBlock(cast<BlockStmt>(If->elseStmt()), std::move(H2),
                          Insert);
        H = History::meet(H1, H2);
      } else if (auto *Loop = dyn_cast<LoopStmt>(Child)) {
        // The invariant comes from throwaway passes; then one real pass.
        auto Throwaway = [this](Stmt *Body, History In) {
          return processBlock(cast<BlockStmt>(Body), std::move(In),
                              /*Insert=*/false);
        };
        History HB = processBlock(cast<BlockStmt>(Loop->preBody()),
                                  loopInvariant(Loop, H, H, Table, Throwaway),
                                  Insert);
        History Exit = HB;
        Exit.addCondition(Loop->exitCond(), /*Negated=*/false);
        HB.addCondition(Loop->exitCond(), /*Negated=*/true);
        processBlock(cast<BlockStmt>(Loop->postBody()), std::move(HB),
                     Insert);
        H = std::move(Exit);
      } else {
        // A plain access is checked unless an earlier check in the same
        // release-free span covers it; a volatile access is
        // synchronization and never checked.
        std::optional<Path> Pth = accessPath(Child);
        if (Pth && !Kills.effectOf(Child).any() && !H.entailsCheck(*Pth)) {
          if (Insert) {
            Stmts.insert(Stmts.begin() + static_cast<ptrdiff_t>(I),
                         std::make_unique<CheckStmt>(std::vector<Path>{*Pth}));
            ++NumChecks;
            ++I; // Child moved one slot on.
          }
          H.addCheck(*Pth);
        }
        // The body was never renamed, so facts about the variable Child
        // assigns describe its old value.
        if (const std::string *X = definedVar(Child))
          H.dropMentions(*X);
        H = stepHistory(H, Child, Kills);
        H.Accesses.clear(); // RedCard asks only about checks.
      }
    }
    return H;
  }
};

std::unique_ptr<Program> clonePrepared(const Program &P) {
  auto Out = P.clone();
  for (auto &C : Out->Classes)
    for (auto &M : C->Methods)
      normalizeBody(M->Body);
  for (auto &T : Out->Threads)
    normalizeBody(T);
  return Out;
}

} // namespace

InstrumentedProgram bigfoot::instrumentFastTrack(const Program &P) {
  InstrumentedProgram Out;
  Out.Prog = clonePrepared(P);
  for (auto &C : Out.Prog->Classes)
    for (auto &M : C->Methods)
      insertPerAccessChecks(*Out.Prog, M->Body.get());
  for (auto &T : Out.Prog->Threads)
    insertPerAccessChecks(*Out.Prog, T.get());
  Out.Prog->numberStatements();
  Out.Prog->internSymbols();
  Out.Tool = fastTrackConfig();
  return Out;
}

InstrumentedProgram bigfoot::instrumentSlimState(const Program &P) {
  InstrumentedProgram Out = instrumentFastTrack(P);
  Out.Tool = slimStateConfig();
  return Out;
}

InstrumentedProgram bigfoot::instrumentRedCard(const Program &P) {
  InstrumentedProgram Out;
  Out.Prog = clonePrepared(P);
  KillSets Kills(*Out.Prog);
  RedCardPass Pass(Kills);
  for (auto &C : Out.Prog->Classes)
    for (auto &M : C->Methods)
      Pass.runOnBody(M->Body.get());
  for (auto &T : Out.Prog->Threads)
    Pass.runOnBody(T.get());
  Out.Prog->numberStatements();
  Out.Prog->internSymbols();
  Out.Placement.ChecksInserted = Pass.checksInserted();
  Out.Tool = redCardConfig(computeFieldProxies(*Out.Prog));
  return Out;
}

InstrumentedProgram bigfoot::instrumentSlimCard(const Program &P) {
  InstrumentedProgram Out = instrumentRedCard(P);
  Out.Tool = slimCardConfig(Out.Tool.FieldProxy);
  return Out;
}

InstrumentedProgram
bigfoot::instrumentBigFoot(const Program &P, const PlacementOptions &Opts) {
  InstrumentedProgram Out;
  Out.Prog = P.clone();
  Out.Placement = placeBigFootChecks(*Out.Prog, Opts);
  Out.Tool = bigFootConfig(computeFieldProxies(*Out.Prog));
  return Out;
}

std::optional<InstrumentedProgram>
bigfoot::instrumentNamed(const Program &P, std::string_view Name) {
  if (Name == "fasttrack")
    return instrumentFastTrack(P);
  if (Name == "redcard")
    return instrumentRedCard(P);
  if (Name == "slimstate")
    return instrumentSlimState(P);
  if (Name == "slimcard")
    return instrumentSlimCard(P);
  if (Name == "bigfoot")
    return instrumentBigFoot(P);
  if (Name == "djit") {
    InstrumentedProgram Djit = instrumentFastTrack(P);
    Djit.Tool = djitConfig();
    return Djit;
  }
  return std::nullopt;
}

std::vector<InstrumentedProgram> bigfoot::instrumentAll(const Program &P) {
  std::vector<InstrumentedProgram> Out;
  for (std::string_view Name : kToolNames)
    if (Name != "djit")
      Out.push_back(*instrumentNamed(P, Name));
  return Out;
}
