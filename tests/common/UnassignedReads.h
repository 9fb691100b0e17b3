//===- UnassignedReads.h - Reads of locals nothing assigned -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// A test-only guard over every instrumenter and its clean-up passes. BFJ
// reads a local that nothing assigned as 0, so a placed check (or a
// rewritten statement) that reads a local whose assignment a pass deleted
// checks the wrong location, or fails the run, without pointing at the
// pass. The guard walks each body's structured AST and collects the
// locals read at a point that no path from the body's entry assigns them
// on: parameters, `this` and `$g` start out assigned, an If joins the
// assignments of its two branches, and a loop's body and exit see every
// assignment in the loop (a later iteration runs after each of them).
// Instrumenting may add reads, but only of locals some path assigns: an
// instrumented body's set must lie inside its source body's set.
//
// The guard asks about some path, not every path, because BigFoot rightly
// hoists a check out of its rotated loop `if (c) { loop {...} }` when its
// history proves c (i = 0 after n = 12, or after assert n > 8): the path
// that skips the loop, and leaves the check's variables unassigned, never
// runs.
//
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_TESTS_COMMON_UNASSIGNEDREADS_H
#define BIGFOOT_TESTS_COMMON_UNASSIGNEDREADS_H

#include "bfj/Printer.h"
#include "bfj/Program.h"
#include "instrument/Instrumenters.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace bigfoot::test {

/// Walks \p S with \p Assigned holding the locals some path from the
/// body's entry has assigned, adding to \p Unassigned each local S reads
/// outside that set.
inline void walkAssigned(const Stmt *S, std::set<std::string> &Assigned,
                         std::set<std::string> &Unassigned) {
  auto Read = [&Assigned, &Unassigned](VarName V) {
    if (!Assigned.count(V.name()))
      Unassigned.insert(V.name());
  };
  if (const auto *Block = dyn_cast<BlockStmt>(S)) {
    for (const StmtPtr &Child : Block->stmts())
      walkAssigned(Child.get(), Assigned, Unassigned);
  } else if (const auto *If = dyn_cast<IfStmt>(S)) {
    If->cond()->forEachVar(Read);
    std::set<std::string> ElseAssigned = Assigned;
    walkAssigned(If->thenStmt(), Assigned, Unassigned);
    walkAssigned(If->elseStmt(), ElseAssigned, Unassigned);
    Assigned.insert(ElseAssigned.begin(), ElseAssigned.end());
  } else if (const auto *Loop = dyn_cast<LoopStmt>(S)) {
    walkStmt(Loop, [&Assigned](const Stmt *Inner) {
      if (VarName Target = definedVar(Inner))
        Assigned.insert(Target.name());
    });
    walkAssigned(Loop->preBody(), Assigned, Unassigned);
    Loop->exitCond()->forEachVar(Read);
    walkAssigned(Loop->postBody(), Assigned, Unassigned);
  } else {
    // forEachVar visits the target first; every later visit is a read.
    VarName Target = definedVar(S);
    bool AtTarget = static_cast<bool>(Target);
    forEachVar(S, [&AtTarget, &Read](VarName V) {
      if (!AtTarget)
        Read(V);
      AtTarget = false;
    });
    if (Target)
      Assigned.insert(Target.name());
  }
}

/// The locals each body of \p P reads where no path has assigned them,
/// keyed "Class.method" (its return variable is read at the end) or
/// "thread#N".
inline std::map<std::string, std::set<std::string>>
unassignedReads(const Program &P) {
  std::map<std::string, std::set<std::string>> Out;
  for (const auto &C : P.Classes)
    for (const auto &M : C->Methods) {
      std::set<std::string> Assigned(M->Params.begin(), M->Params.end());
      Assigned.insert({"this", "$g"});
      std::set<std::string> &Unassigned = Out[C->Name + "." + M->Name];
      walkAssigned(M->Body.get(), Assigned, Unassigned);
      if (!M->ReturnVar.empty() && !Assigned.count(M->ReturnVar))
        Unassigned.insert(M->ReturnVar);
    }
  for (size_t I = 0; I < P.Threads.size(); ++I) {
    std::set<std::string> Assigned = {"this", "$g"};
    walkAssigned(P.Threads[I].get(), Assigned,
                 Out["thread#" + std::to_string(I)]);
  }
  return Out;
}

/// "<body>: <local>" for each local a body of \p Instrumented reads where
/// no path has assigned it while the same body of \p Source does not.
inline std::vector<std::string>
newUnassignedReads(const Program &Source, const Program &Instrumented) {
  std::map<std::string, std::set<std::string>> Before =
      unassignedReads(Source);
  std::vector<std::string> Out;
  for (const auto &[Body, Vars] : unassignedReads(Instrumented))
    for (const std::string &V : Vars)
      if (!Before[Body].count(V))
        Out.push_back(Body + ": " + V);
  return Out;
}

/// Expects that \p IP, instrumented from \p Source, reads no local that
/// no path assigns unless the source reads it so too.
inline void expectNoNewUnassignedReads(const Program &Source,
                                       const InstrumentedProgram &IP,
                                       const std::string &Label) {
  EXPECT_EQ(newUnassignedReads(Source, *IP.Prog), std::vector<std::string>{})
      << Label << " (tool " << IP.Tool.Name
      << ") reads a local no path assigns:\n"
      << printProgram(*IP.Prog);
}

} // namespace bigfoot::test

#endif // BIGFOOT_TESTS_COMMON_UNASSIGNEDREADS_H
