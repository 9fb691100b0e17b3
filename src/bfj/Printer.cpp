//===- Printer.cpp - BFJ pretty printer ------------------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Printer.h"

#include <sstream>

using namespace bigfoot;

namespace {

class PrinterImpl {
public:
  explicit PrinterImpl(std::ostringstream &OS) : OS(OS) {}

  /// One indented line: the \p Parts (strings and names) in order.
  template <typename... PartsT>
  void line(int Indent, const PartsT &...Parts) {
    for (int I = 0; I < Indent; ++I)
      OS << "  ";
    (OS << ... << Parts) << "\n";
  }

  std::string args(const std::vector<std::unique_ptr<Expr>> &Args) {
    std::string S;
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        S += ", ";
      S += Args[I]->str();
    }
    return S;
  }

  void printInto(const Stmt *S, int Indent) {
    switch (S->kind()) {
    case StmtKind::Skip:
      line(Indent, "skip;");
      return;
    case StmtKind::Block: {
      for (const auto &Child : cast<BlockStmt>(S)->stmts())
        printInto(Child.get(), Indent);
      return;
    }
    case StmtKind::If: {
      const auto *If = cast<IfStmt>(S);
      line(Indent, "if (", If->cond()->str(), ") {");
      printInto(If->thenStmt(), Indent + 1);
      if (!isa<SkipStmt>(If->elseStmt()) &&
          !(isa<BlockStmt>(If->elseStmt()) &&
            cast<BlockStmt>(If->elseStmt())->stmts().empty())) {
        line(Indent, "} else {");
        printInto(If->elseStmt(), Indent + 1);
      }
      line(Indent, "}");
      return;
    }
    case StmtKind::Loop: {
      const auto *Loop = cast<LoopStmt>(S);
      line(Indent, "loop {");
      printInto(Loop->preBody(), Indent + 1);
      line(Indent + 1, "exit_if (", Loop->exitCond()->str(), ");");
      printInto(Loop->postBody(), Indent + 1);
      line(Indent, "}");
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      line(Indent, A->target(), " = ", A->value()->str(), ";");
      return;
    }
    case StmtKind::Rename: {
      const auto *R = cast<RenameStmt>(S);
      line(Indent, R->target(), " := ", R->source(), ";");
      return;
    }
    case StmtKind::Acquire:
      line(Indent, "acq(", cast<AcquireStmt>(S)->lockVar(), ");");
      return;
    case StmtKind::Release:
      line(Indent, "rel(", cast<ReleaseStmt>(S)->lockVar(), ");");
      return;
    case StmtKind::New: {
      const auto *N = cast<NewStmt>(S);
      line(Indent, N->target(), " = new ", N->className(), ";");
      return;
    }
    case StmtKind::NewArray: {
      const auto *N = cast<NewArrayStmt>(S);
      line(Indent, N->target(), " = new_array(", N->size()->str(), ");");
      return;
    }
    case StmtKind::FieldRead: {
      const auto *F = cast<FieldReadStmt>(S);
      line(Indent, F->target(), " = ", F->object(), ".", F->field(), ";");
      return;
    }
    case StmtKind::FieldWrite: {
      const auto *F = cast<FieldWriteStmt>(S);
      line(Indent, F->object(), ".", F->field(), " = ", F->value()->str(),
           ";");
      return;
    }
    case StmtKind::ArrayRead: {
      const auto *A = cast<ArrayReadStmt>(S);
      line(Indent, A->target(), " = ", A->array(), "[", A->index()->str(),
           "];");
      return;
    }
    case StmtKind::ArrayWrite: {
      const auto *A = cast<ArrayWriteStmt>(S);
      line(Indent, A->array(), "[", A->index()->str(), "] = ",
           A->value()->str(), ";");
      return;
    }
    case StmtKind::ArrayLen: {
      const auto *A = cast<ArrayLenStmt>(S);
      line(Indent, A->target(), " = len(", A->array(), ");");
      return;
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      line(Indent, C->target(), " = ", C->receiver(), ".", C->method(), "(",
           args(C->args()), ");");
      return;
    }
    case StmtKind::Check: {
      const auto *C = cast<CheckStmt>(S);
      line(Indent, "check(", printPaths(C->paths()), ");");
      return;
    }
    case StmtKind::Fork: {
      const auto *F = cast<ForkStmt>(S);
      line(Indent, "fork ", F->target(), " = ", F->receiver(), ".",
           F->method(), "(", args(F->args()), ");");
      return;
    }
    case StmtKind::Join:
      line(Indent, "join ", cast<JoinStmt>(S)->handle(), ";");
      return;
    case StmtKind::NewBarrier: {
      const auto *N = cast<NewBarrierStmt>(S);
      line(Indent, N->target(), " = new_barrier(", N->parties()->str(), ");");
      return;
    }
    case StmtKind::Await:
      line(Indent, "await ", cast<AwaitStmt>(S)->barrierVar(), ";");
      return;
    case StmtKind::Print:
      line(Indent, "print ", cast<PrintStmt>(S)->value()->str(), ";");
      return;
    case StmtKind::AssertStmt:
      line(Indent, "assert ", cast<AssertStmtNode>(S)->cond()->str(), ";");
      return;
    }
  }

private:
  std::ostringstream &OS;
};

} // namespace

std::string bigfoot::printPaths(const std::vector<Path> &Paths) {
  std::string S;
  for (size_t I = 0; I < Paths.size(); ++I) {
    if (I)
      S += ", ";
    S += Paths[I].Access == AccessKind::Read ? "R " : "W ";
    S += Paths[I].str();
  }
  return S;
}

std::string bigfoot::printStmt(const Stmt *S, int Indent) {
  std::ostringstream OS;
  PrinterImpl P(OS);
  P.printInto(S, Indent);
  return OS.str();
}

std::string bigfoot::printProgram(const Program &P) {
  std::ostringstream OS;
  PrinterImpl Impl(OS);
  for (const auto &C : P.Classes) {
    OS << "class " << C->Name << " {\n";
    if (!C->Fields.empty()) {
      // Print non-volatile and volatile fields separately.
      std::string Plain, Vol;
      for (const auto &F : C->Fields) {
        std::string &Dest = C->isVolatile(F) ? Vol : Plain;
        if (!Dest.empty())
          Dest += ", ";
        Dest += F;
      }
      if (!Plain.empty())
        OS << "  fields " << Plain << ";\n";
      if (!Vol.empty())
        OS << "  volatile fields " << Vol << ";\n";
    }
    for (const auto &M : C->Methods) {
      OS << "  method " << M->Name << "(";
      for (size_t I = 0; I < M->Params.size(); ++I) {
        if (I)
          OS << ", ";
        OS << M->Params[I];
      }
      OS << ") {\n";
      Impl.printInto(M->Body.get(), 2);
      if (!M->ReturnVar.empty())
        OS << "    return " << M->ReturnVar << ";\n";
      OS << "  }\n";
    }
    OS << "}\n\n";
  }
  for (const auto &T : P.Threads) {
    OS << "thread {\n";
    Impl.printInto(T.get(), 1);
    OS << "}\n\n";
  }
  return OS.str();
}
