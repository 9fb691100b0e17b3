//===- Compiler.cpp - BFJ AST to bytecode lowering --------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// Step-accounting contract. The scheduler's quantum counts steps, and one
// step is one statement, so these rules fix every schedule:
//
//   * every simple statement compiles to a sequence of free expression
//     instructions followed by exactly one Step-flagged instruction;
//   * an If compiles its condition free and spends its step on the Br
//     that tests it;
//   * a Loop spends a step on its exit-test Br each time around (taken or
//     not), while loop entry, the back-edge, and the loop-exit Jmp are
//     free; blocks are free too;
//   * expression temporaries reset per statement, so register pressure is
//     each body's deepest expression, not its statement count.
//
// Call/Fork arguments are flattened into registers before the Call
// instruction runs, so an argument's own error comes first: it wins over
// a method-resolution failure or an arity mismatch in the same statement.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "bfj/Program.h"

#include <cassert>
#include <map>
#include <optional>

using namespace bigfoot;

namespace {

class BodyCompiler {
public:
  BodyCompiler(const Program &Prog, Chunk &C)
      : Prog(Prog), Syms(Prog.symbols()), C(C),
        NumSyms(static_cast<uint32_t>(Syms.size())) {}

  void compileMethod(const MethodDecl &M) {
    for (const std::string &P : M.Params)
      C.ParamRegs.push_back(reg(P));
    C.ReturnReg = resultReg(M.ReturnVar);
    compileBody(M.Body.get());
  }

  void compileBody(const Stmt *Body) {
    compileStmt(Body);
    step(emit(Opcode::Return));
    C.NumRegs = NumSyms + MaxTemps;
  }

private:
  const Program &Prog;
  const SymbolTable &Syms;
  Chunk &C;
  uint32_t NumSyms;
  uint32_t NextTemp = 0;
  uint32_t MaxTemps = 0;
  std::map<int64_t, uint32_t> IntIndex;
  std::map<const ClassDecl *, uint32_t> ClassIndex;

  //===--- Names --------------------------------------------------------------

  /// The register of local \p Name, which is its SymId, or the FieldId of
  /// field \p Name. A finished program's table holds every name it
  /// mentions.
  uint32_t reg(const std::string &Name) const {
    std::optional<SymId> Id = Syms.lookup(Name);
    assert(Id && "name missing from the program's symbol table");
    return Id.value_or(kNoReg);
  }
  uint32_t reg(VarName Name) const { return reg(Name.name()); }

  /// The register a call, fork or method result goes to: kNoReg when it is
  /// discarded ("", a null handle or "_").
  uint32_t resultReg(const std::string &Name) const {
    return Name.empty() || Name == "_" ? kNoReg : reg(Name);
  }
  uint32_t resultReg(VarName Name) const {
    return Name ? resultReg(Name.name()) : kNoReg;
  }

  //===--- Emission helpers ---------------------------------------------------

  size_t emit(Opcode Op, uint32_t A = 0, uint32_t B = 0, uint32_t C3 = 0) {
    Insn I;
    I.Op = Op;
    I.A = A;
    I.B = B;
    I.C = C3;
    C.Code.push_back(I);
    return C.Code.size() - 1;
  }

  void step(size_t Idx) { C.Code[Idx].Step = 1; }

  uint32_t here() const { return static_cast<uint32_t>(C.Code.size()); }

  /// Patches the jump target of the branch-family instruction at \p Idx.
  void patchTo(size_t Idx, uint32_t Target) {
    Insn &I = C.Code[Idx];
    if (I.Op == Opcode::Jmp)
      I.A = Target;
    else
      I.B = Target;
  }

  void resetTemps() { NextTemp = 0; }

  uint32_t newTemp() {
    uint32_t T = NumSyms + NextTemp++;
    if (NextTemp > MaxTemps)
      MaxTemps = NextTemp;
    return T;
  }

  uint32_t intIdx(int64_t V) {
    auto [It, IsNew] = IntIndex.try_emplace(
        V, static_cast<uint32_t>(C.Ints.size()));
    if (IsNew)
      C.Ints.push_back(V);
    return It->second;
  }

  uint32_t classIdx(const ClassDecl *Cls) {
    auto [It, IsNew] = ClassIndex.try_emplace(
        Cls, static_cast<uint32_t>(C.Classes.size()));
    if (IsNew)
      C.Classes.push_back(Cls);
    return It->second;
  }

  //===--- Expressions --------------------------------------------------------

  /// Register holding \p E's value: the local itself for variables,
  /// otherwise a fresh temporary. Evaluation is left to right, depth
  /// first, which fixes which error a statement reports first.
  uint32_t exprVal(const Expr *E) {
    if (const auto *V = dyn_cast<VarRef>(E))
      return reg(V->name());
    uint32_t T = newTemp();
    exprInto(E, T);
    return T;
  }

  /// Emits code for \p E whose final instruction writes \p Dst — a single
  /// terminal instruction even for short-circuit operators, so an Assign
  /// can fuse its scheduler step onto it.
  void exprInto(const Expr *E, uint32_t Dst) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      emit(Opcode::LoadInt, Dst, intIdx(cast<IntLit>(E)->value()));
      return;
    case ExprKind::BoolLit:
      emit(Opcode::LoadInt, Dst, intIdx(cast<BoolLit>(E)->value() ? 1 : 0));
      return;
    case ExprKind::NullLit:
      emit(Opcode::LoadNull, Dst);
      return;
    case ExprKind::VarRef:
      emit(Opcode::Move, Dst, reg(cast<VarRef>(E)->name()));
      return;
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      uint32_t Src = exprVal(U->operand());
      emit(U->op() == UnaryOp::Not ? Opcode::Not : Opcode::Neg, Dst, Src);
      return;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (B->op() == BinaryOp::And || B->op() == BinaryOp::Or) {
        // Both outcomes converge on one Boolify: after the short-circuit
        // jump the temp holds whichever operand decided the result, and
        // truthy(that operand) IS the result in both cases.
        uint32_t T = newTemp();
        exprInto(B->lhs(), T);
        size_t Short = emit(B->op() == BinaryOp::And ? Opcode::JmpIfFalse
                                                     : Opcode::JmpIfTrue,
                            T);
        exprInto(B->rhs(), T);
        patchTo(Short, here());
        emit(Opcode::Boolify, Dst, T);
        return;
      }
      uint32_t L = exprVal(B->lhs());
      uint32_t R = exprVal(B->rhs());
      Opcode Op;
      switch (B->op()) {
      case BinaryOp::Add:
        Op = Opcode::Add;
        break;
      case BinaryOp::Sub:
        Op = Opcode::Sub;
        break;
      case BinaryOp::Mul:
        Op = Opcode::Mul;
        break;
      case BinaryOp::Div:
        Op = Opcode::Div;
        break;
      case BinaryOp::Mod:
        Op = Opcode::Mod;
        break;
      case BinaryOp::Lt:
        Op = Opcode::Lt;
        break;
      case BinaryOp::Le:
        Op = Opcode::Le;
        break;
      case BinaryOp::Gt:
        Op = Opcode::Gt;
        break;
      case BinaryOp::Ge:
        Op = Opcode::Ge;
        break;
      case BinaryOp::Eq:
        Op = Opcode::CmpEq;
        break;
      case BinaryOp::Ne:
        Op = Opcode::CmpNe;
        break;
      default:
        Op = Opcode::Nop;
        assert(false && "logical ops handled above");
        break;
      }
      emit(Op, Dst, L, R);
      return;
    }
    }
  }

  //===--- Checks -------------------------------------------------------------

  CompiledBound compileBound(const AffineExpr &E) const {
    // An overflowed bound has no terms and a zero constant: compiling it
    // would silently check nothing.
    assert(!E.overflowed() && "compiling an overflowed check bound");
    CompiledBound Out;
    Out.Constant = E.constantPart();
    for (const auto &[Var, Coeff] : E.terms())
      Out.Terms.emplace_back(reg(Var), Coeff);
    return Out;
  }

  /// Emits the opcode that checks one path and returns its index. An
  /// array path whose range is one element at one local plus a constant,
  /// x[i + c], is CheckElem; every other array path is CheckRange.
  size_t lowerPath(const Path &P) {
    uint32_t Designator = reg(P.Designator);
    size_t Idx;
    if (!P.isArray()) {
      uint32_t First = static_cast<uint32_t>(C.CheckFieldIds.size());
      for (VarName F : P.Fields)
        C.CheckFieldIds.push_back(reg(F));
      Idx = emit(Opcode::CheckFields, Designator, First,
                 static_cast<uint32_t>(P.Fields.size()));
    } else if (std::optional<std::pair<uint32_t, int64_t>> Elem =
                   elementAt(P.Range)) {
      C.ElemChecks.push_back({Elem->second, &P});
      Idx = emit(Opcode::CheckElem, Designator, Elem->first,
                 static_cast<uint32_t>(C.ElemChecks.size() - 1));
    } else {
      C.RangeChecks.push_back({compileBound(P.Range.Begin),
                               compileBound(P.Range.End), P.Range.Stride,
                               &P});
      Idx = emit(Opcode::CheckRange, Designator,
                 static_cast<uint32_t>(C.RangeChecks.size() - 1));
    }
    C.Code[Idx].Access = static_cast<uint8_t>(P.Access);
    return Idx;
  }

  /// The local and constant of a range that is the one element i + c, or
  /// nothing for any other range.
  std::optional<std::pair<uint32_t, int64_t>>
  elementAt(const SymbolicRange &R) const {
    assert(!R.Begin.overflowed() && !R.End.overflowed() &&
           "compiling an overflowed check bound");
    std::span<const AffineExpr::Term> Terms = R.Begin.terms();
    if (Terms.size() != 1 || Terms[0].Coeff != 1 ||
        (R.End - R.Begin).constantValue() != 1)
      return std::nullopt;
    return std::make_pair(reg(Terms[0].Var), R.Begin.constantPart());
  }

  //===--- Statements ---------------------------------------------------------

  std::vector<uint32_t>
  argRegs(const std::vector<std::unique_ptr<Expr>> &Args) {
    std::vector<uint32_t> Regs;
    Regs.reserve(Args.size());
    for (const auto &A : Args)
      Regs.push_back(exprVal(A.get()));
    return Regs;
  }

  uint32_t callIdx(VarName Receiver, const std::string &Method,
                   const std::vector<std::unique_ptr<Expr>> &Args,
                   VarName Target) {
    CallOperand Op;
    Op.ReceiverReg = reg(Receiver);
    Op.Method = &Method;
    Op.ArgRegs = argRegs(Args);
    Op.TargetReg = resultReg(Target);
    C.Calls.push_back(std::move(Op));
    return static_cast<uint32_t>(C.Calls.size() - 1);
  }

  void compileStmt(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Block:
      for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
        compileStmt(Child.get());
      return;
    case StmtKind::If: {
      const auto *If = cast<IfStmt>(S);
      resetTemps();
      uint32_t Cond = exprVal(If->cond());
      size_t Else = emit(Opcode::Br, Cond);
      step(Else);
      compileStmt(If->thenStmt());
      size_t End = emit(Opcode::Jmp);
      patchTo(Else, here());
      compileStmt(If->elseStmt());
      patchTo(End, here());
      return;
    }
    case StmtKind::Loop: {
      const auto *Loop = cast<LoopStmt>(S);
      uint32_t Head = here();
      compileStmt(Loop->preBody());
      resetTemps();
      uint32_t Exit = exprVal(Loop->exitCond());
      size_t Post = emit(Opcode::Br, Exit); // !exit → post-body
      step(Post);
      size_t End = emit(Opcode::Jmp); // exit taken → leave the loop
      patchTo(Post, here());
      compileStmt(Loop->postBody());
      size_t Back = emit(Opcode::Jmp);
      patchTo(Back, Head);
      patchTo(End, here());
      return;
    }
    case StmtKind::Skip:
      step(emit(Opcode::Nop));
      return;
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      resetTemps();
      exprInto(A->value(), reg(A->target()));
      C.Code.back().Step = 1; // exprInto's terminal writes the target.
      return;
    }
    case StmtKind::Rename: {
      const auto *Ren = cast<RenameStmt>(S);
      step(emit(Opcode::Move, reg(Ren->target()), reg(Ren->source())));
      return;
    }
    case StmtKind::New: {
      const auto *N = cast<NewStmt>(S);
      step(emit(Opcode::NewObject, reg(N->target()),
                classIdx(Prog.findClass(N->className()))));
      return;
    }
    case StmtKind::NewArray: {
      const auto *N = cast<NewArrayStmt>(S);
      resetTemps();
      uint32_t Size = exprVal(N->size());
      step(emit(Opcode::NewArray, reg(N->target()), Size));
      return;
    }
    case StmtKind::NewBarrier: {
      const auto *N = cast<NewBarrierStmt>(S);
      resetTemps();
      uint32_t Parties = exprVal(N->parties());
      step(emit(Opcode::NewBarrier, reg(N->target()), Parties));
      return;
    }
    case StmtKind::FieldRead: {
      const auto *Rd = cast<FieldReadStmt>(S);
      step(emit(Prog.isFieldVolatileAnywhere(Rd->field().name())
                    ? Opcode::FieldReadVol
                    : Opcode::FieldRead,
                reg(Rd->target()), reg(Rd->object()), reg(Rd->field())));
      return;
    }
    case StmtKind::FieldWrite: {
      const auto *Wr = cast<FieldWriteStmt>(S);
      resetTemps();
      uint32_t V = exprVal(Wr->value());
      step(emit(Prog.isFieldVolatileAnywhere(Wr->field().name())
                    ? Opcode::FieldWriteVol
                    : Opcode::FieldWrite,
                reg(Wr->object()), V, reg(Wr->field())));
      return;
    }
    case StmtKind::ArrayRead: {
      const auto *Rd = cast<ArrayReadStmt>(S);
      resetTemps();
      uint32_t Idx = exprVal(Rd->index());
      step(emit(Opcode::ArrayRead, reg(Rd->target()), reg(Rd->array()), Idx));
      return;
    }
    case StmtKind::ArrayWrite: {
      const auto *Wr = cast<ArrayWriteStmt>(S);
      resetTemps();
      uint32_t Idx = exprVal(Wr->index());
      uint32_t V = exprVal(Wr->value());
      step(emit(Opcode::ArrayWrite, reg(Wr->array()), Idx, V));
      return;
    }
    case StmtKind::ArrayLen: {
      const auto *L = cast<ArrayLenStmt>(S);
      step(emit(Opcode::ArrayLen, reg(L->target()), reg(L->array())));
      return;
    }
    case StmtKind::Acquire:
      step(emit(Opcode::Acquire, reg(cast<AcquireStmt>(S)->lockVar())));
      return;
    case StmtKind::Release:
      step(emit(Opcode::Release, reg(cast<ReleaseStmt>(S)->lockVar())));
      return;
    case StmtKind::Call: {
      const auto *Call = cast<CallStmt>(S);
      resetTemps();
      step(emit(Opcode::Call, callIdx(Call->receiver(), Call->method(),
                                      Call->args(), Call->target())));
      return;
    }
    case StmtKind::Fork: {
      const auto *Fork = cast<ForkStmt>(S);
      resetTemps();
      step(emit(Opcode::Fork, callIdx(Fork->receiver(), Fork->method(),
                                      Fork->args(), Fork->target())));
      return;
    }
    case StmtKind::Join:
      step(emit(Opcode::Join, reg(cast<JoinStmt>(S)->handle())));
      return;
    case StmtKind::Await:
      step(emit(Opcode::Await, reg(cast<AwaitStmt>(S)->barrierVar())));
      return;
    case StmtKind::Check: {
      // One opcode per path; the last one ends the step. A check with no
      // path is still one step.
      const std::vector<Path> &Paths = cast<CheckStmt>(S)->paths();
      size_t Last = Paths.empty() ? emit(Opcode::Nop) : 0;
      for (const Path &P : Paths)
        Last = lowerPath(P);
      step(Last);
      return;
    }
    case StmtKind::Print: {
      const auto *P = cast<PrintStmt>(S);
      resetTemps();
      uint32_t V = exprVal(P->value());
      step(emit(Opcode::Print, V));
      return;
    }
    case StmtKind::AssertStmt: {
      const auto *A = cast<AssertStmtNode>(S);
      resetTemps();
      uint32_t Cond = exprVal(A->cond());
      C.Msgs.push_back("assertion failed: " + A->cond()->str());
      step(emit(Opcode::Assert, Cond,
                static_cast<uint32_t>(C.Msgs.size() - 1)));
      return;
    }
    }
    assert(false && "unhandled statement kind");
  }
};

} // namespace

CompiledProgram bigfoot::compileProgram(const Program &Prog) {
  CompiledProgram CP;
  for (const auto &Cls : Prog.Classes)
    for (const auto &M : Cls->Methods) {
      CP.Chunks.push_back(std::make_unique<Chunk>());
      BodyCompiler(Prog, *CP.Chunks.back()).compileMethod(*M);
      CP.MethodChunks.emplace(M.get(), CP.Chunks.back().get());
    }
  for (const StmtPtr &Body : Prog.Threads) {
    CP.Chunks.push_back(std::make_unique<Chunk>());
    BodyCompiler(Prog, *CP.Chunks.back()).compileBody(Body.get());
    CP.ThreadChunks.push_back(CP.Chunks.back().get());
  }
  return CP;
}
