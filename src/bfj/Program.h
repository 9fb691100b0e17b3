//===- Program.h - BFJ programs, classes, and methods -----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Top-level BFJ structure (Figure 5): a program is a set of class
/// definitions plus concurrent top-level threads. Classes declare fields
/// (optionally volatile) and methods; a method has parameters, a body, and
/// returns a local variable.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_BFJ_PROGRAM_H
#define BIGFOOT_BFJ_PROGRAM_H

#include "bfj/Stmt.h"
#include "support/Symbol.h"

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace bigfoot {

/// A method m(x1..xn) { body; return z }.
struct MethodDecl {
  std::string Name;
  std::vector<std::string> Params;
  StmtPtr Body;
  /// Name of the returned local; empty for void-like methods (the VM then
  /// returns 0).
  std::string ReturnVar;

  std::unique_ptr<MethodDecl> clone() const;
};

/// class C { fields; volatile fields; methods }.
struct ClassDecl {
  std::string Name;
  std::vector<std::string> Fields;
  std::set<std::string> VolatileFields;
  std::vector<std::unique_ptr<MethodDecl>> Methods;

  const MethodDecl *findMethod(const std::string &Name) const {
    for (const auto &M : Methods)
      if (M->Name == Name)
        return M.get();
    return nullptr;
  }

  bool hasField(const std::string &Name) const {
    for (const auto &F : Fields)
      if (F == Name)
        return true;
    return false;
  }

  bool isVolatile(const std::string &Field) const {
    return VolatileFields.count(Field) != 0;
  }

  std::unique_ptr<ClassDecl> clone() const;
};

/// A whole BFJ program.
class Program {
public:
  std::vector<std::unique_ptr<ClassDecl>> Classes;
  /// Top-level concurrent threads (s1 || ... || sn). Thread 0 runs first
  /// in the VM until its first synchronization, giving programs with one
  /// setup thread deterministic initialization; fully concurrent programs
  /// simply use several threads.
  std::vector<StmtPtr> Threads;

  const ClassDecl *findClass(const std::string &Name) const {
    for (const auto &C : Classes)
      if (C->Name == Name)
        return C.get();
    return nullptr;
  }

  /// All methods named \p Name across classes (BFJ calls are resolved by
  /// dynamic class; the static analysis unions candidates, as the paper's
  /// 0-CFA does before refinement).
  std::vector<const MethodDecl *>
  findMethodsNamed(const std::string &Name) const;

  /// True if any class declares \p Field volatile. The analysis treats a
  /// field access as synchronization when this holds (a conservative
  /// stand-in for bytecode-level declared-volatility, which is exact).
  bool isFieldVolatileAnywhere(const std::string &Field) const;

  /// Assigns a unique id to every statement (pre-order). Returns the
  /// number of statements numbered.
  unsigned numberStatements();

  //===--- Symbol interning ----------------------------------------------------
  /// Rebuilds the symbol table from scratch: "$g", "this" and "_" first,
  /// then every class's fields (so FieldIds are dense and small), then
  /// method parameters and return variables, then every name the bodies
  /// mention, in statement pre-order. Called where a program is finished,
  /// beside numberStatements: by the parser, the FastTrack and RedCard
  /// instrumenters and BigFoot placement. A program that runs is never
  /// re-interned, so the table is read-only data that any number of runs
  /// may share.
  void internSymbols();

  const SymbolTable &symbols() const { return Symbols; }

  /// Deep copy of the entire program, its symbol table included.
  std::unique_ptr<Program> clone() const;

  /// Calls \p Fn on every statement in the program (pre-order, mutable).
  void forEachStmt(const std::function<void(Stmt *)> &Fn);
  void forEachStmt(const std::function<void(const Stmt *)> &Fn) const;

  /// Calls \p Fn on every method body and every thread body.
  void forEachBody(const std::function<void(Stmt *)> &Fn);

private:
  SymbolTable Symbols;
};

/// Walks a statement tree in pre-order (mutable).
void walkStmt(Stmt *S, const std::function<void(Stmt *)> &Fn);
void walkStmt(const Stmt *S, const std::function<void(const Stmt *)> &Fn);

/// Validation: checks A-normal-form restrictions (array indices affine,
/// method/class references resolvable, etc). Returns a list of human
/// readable problems; empty means valid.
std::vector<std::string> validateProgram(const Program &P);

} // namespace bigfoot

#endif // BIGFOOT_BFJ_PROGRAM_H
