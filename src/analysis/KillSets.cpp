//===- KillSets.cpp - Interprocedural synchronization effects --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/KillSets.h"

using namespace bigfoot;

KillSets::KillSets(const Program &P, const SyncModel &Model)
    : Model(Model), Prog(P) {
  // Fixpoint over the name-based call graph: start from direct effects,
  // then propagate callee effects into callers until stable.
  for (const auto &C : P.Classes)
    for (const auto &M : C->Methods)
      Effects.emplace(M->Name, SyncEffect());

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &C : P.Classes) {
      for (const auto &M : C->Methods) {
        SyncEffect &Mine = Effects[M->Name];
        SyncEffect Acc = Mine;
        walkStmt(M->Body.get(), [this, &Acc](const Stmt *S) {
          SyncEffect E = effectOf(S);
          Acc.Acquires |= E.Acquires;
          Acc.Releases |= E.Releases;
        });
        if (Acc.Acquires != Mine.Acquires || Acc.Releases != Mine.Releases) {
          Mine = Acc;
          Changed = true;
        }
      }
    }
  }
}

SyncEffect KillSets::effectOf(const std::string &MethodName) const {
  auto It = Effects.find(MethodName);
  if (It != Effects.end())
    return It->second;
  SyncEffect Unknown;
  Unknown.Acquires = Unknown.Releases = true;
  return Unknown;
}

SyncEffect KillSets::effectOf(const Stmt *S) const {
  if (const auto *Call = dyn_cast<CallStmt>(S))
    return effectOf(Call->method());
  return directEffect(S);
}

SyncEffect KillSets::directEffect(const Stmt *S) const {
  SyncEffect E;
  switch (S->kind()) {
  case StmtKind::Acquire:
    E.Acquires = true;
    break;
  case StmtKind::Release:
    E.Releases = true;
    break;
  case StmtKind::Fork:
    E.Releases = true;
    break;
  case StmtKind::Join:
    E.Acquires = true;
    break;
  case StmtKind::Await:
    E.Acquires = E.Releases = true;
    break;
  case StmtKind::FieldRead: {
    const auto *F = cast<FieldReadStmt>(S);
    if (Prog.isFieldVolatileAnywhere(F->field().name()))
      E.Acquires = true; // Volatile read = acquire.
    else if (Model.GlobalFieldsSynchronize && F->object().name() == "$g")
      E.Acquires = E.Releases = true;
    break;
  }
  case StmtKind::FieldWrite: {
    const auto *F = cast<FieldWriteStmt>(S);
    if (Prog.isFieldVolatileAnywhere(F->field().name()))
      E.Releases = true; // Volatile write = release.
    else if (Model.GlobalFieldsSynchronize && F->object().name() == "$g")
      E.Acquires = E.Releases = true;
    break;
  }
  default:
    break;
  }
  return E;
}
