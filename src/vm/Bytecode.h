//===- Bytecode.h - Flat register bytecode for the BFJ VM -------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set the compiler (Compiler.h) lowers BFJ bodies into
/// and the VM's bytecode loop executes. Instructions are fixed-size and
/// register-based: registers [0, NumSyms) alias the frame's locals (a
/// local's register IS its SymId in the program's symbol table, so no
/// renaming pass and no translation at call boundaries), and registers
/// from NumSyms up are per-statement expression temporaries.
///
/// Everything the loop reads is here: operands, pools, the operands of
/// each placed check's paths that do not fit an instruction, and each
/// method's parameter and return registers. The AST is consulted only for
/// calls, which resolve by the receiver's class at run time, and for
/// error text.
///
/// Scheduler-step accounting is encoded in the instructions themselves:
/// an instruction with Insn::Step set ends the current scheduler step
/// when it retires, while Step-clear instructions (expression operators,
/// unconditional jumps) are free bookkeeping executed within a step. One
/// step is one statement, an If's test, or a loop's exit test
/// (Compiler.cpp states the rule).
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_VM_BYTECODE_H
#define BIGFOOT_VM_BYTECODE_H

#include "bfj/Path.h"
#include "support/Symbol.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bigfoot {

class ClassDecl;
struct MethodDecl;

/// "Not a register": discarded call results. Deliberately the same value
/// as kNoSym — locals and registers share one index space.
inline constexpr uint32_t kNoReg = 0xFFFFFFFFu;

enum class Opcode : uint8_t {
  // Free expression / control operators (never carry effects beyond
  // registers; Step-flagged only when fused with an Assign target).
  Nop,        ///< No effect. Step-flagged, it is a Skip statement.
  LoadInt,    ///< R[A] = Ints[B]
  LoadNull,   ///< R[A] = null
  Move,       ///< R[A] = R[B]
  Neg,        ///< R[A] = -R[B] (error on non-integers)
  Not,        ///< R[A] = !truthy(R[B])
  Boolify,    ///< R[A] = truthy(R[B]) ? 1 : 0
  Add,        ///< R[A] = R[B] + R[C] (arith ops error on non-integers)
  Sub,        ///< R[A] = R[B] - R[C]
  Mul,        ///< R[A] = R[B] * R[C]
  Div,        ///< R[A] = R[B] / R[C] (error on zero divisor)
  Mod,        ///< R[A] = R[B] % R[C] (error on zero divisor)
  Lt,         ///< R[A] = R[B] < R[C]
  Le,         ///< R[A] = R[B] <= R[C]
  Gt,         ///< R[A] = R[B] > R[C]
  Ge,         ///< R[A] = R[B] >= R[C]
  CmpEq,      ///< R[A] = R[B] equals R[C] (any value kinds)
  CmpNe,      ///< R[A] = !(R[B] equals R[C])
  Jmp,        ///< PC = A
  JmpIfFalse, ///< if (!truthy(R[A])) PC = B (short-circuit plumbing)
  JmpIfTrue,  ///< if (truthy(R[A])) PC = B

  // Statement operators (each compiled occurrence is Step-flagged).
  Br,           ///< if (!truthy(R[A])) PC = B — the If/Loop-exit test
  NewObject,    ///< R[A] = new Classes[B]
  NewArray,     ///< R[A] = new_array(R[B])
  NewBarrier,   ///< R[A] = new_barrier(R[B])
  FieldRead,    ///< R[A] = R[B].field C (volatility compiled into opcode)
  FieldReadVol, ///< volatile variant: a synchronization op, not an access
  FieldWrite,   ///< R[A].field C = R[B]
  FieldWriteVol,
  ArrayRead,  ///< R[A] = R[B][R[C]]
  ArrayWrite, ///< R[A][R[B]] = R[C]
  ArrayLen,   ///< R[A] = len(R[B])
  Acquire,    ///< acq(R[A]); may block
  Release,    ///< rel(R[A])
  Call,       ///< Calls[A]: push a callee frame
  Fork,       ///< Calls[A]: spawn a thread
  Join,       ///< join R[A]; may block
  Await,      ///< await R[A]; may block
  // One path of a placed check(C) each; a check of k paths is k of these
  // and only the last ends the step. Access is the path's AccessKind.
  CheckFields, ///< check R[A].f/g: CheckFieldIds[B, B + C)
  CheckElem,   ///< check R[A][R[B] + ElemChecks[C].Offset]
  CheckRange,  ///< check R[A][RangeChecks[B]]
  Print,      ///< print R[A]
  Assert,     ///< assert truthy(R[A]); error message Msgs[B]
  Return,     ///< pop the frame (implicit at every body's end)
};

/// One fixed-size instruction. A/B/C are registers, absolute jump targets,
/// interned FieldIds, or pool indices depending on the opcode.
struct Insn {
  Opcode Op = Opcode::Nop;
  /// Nonzero when retiring this instruction completes one scheduler step.
  uint8_t Step = 0;
  /// Check opcodes: the AccessKind the path checks.
  uint8_t Access = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
};

/// Operand record for Call/Fork: argument expressions are pre-flattened
/// into registers; the method name stays a string because BFJ resolves
/// calls by the receiver's dynamic class at run time.
struct CallOperand {
  uint32_t ReceiverReg = 0; ///< Always a local (receiver is a variable).
  const std::string *Method = nullptr; ///< Owned by the AST call node.
  std::vector<uint32_t> ArgRegs;
  uint32_t TargetReg = kNoReg; ///< kNoReg for discarded results.
};

/// A check bound lowered against the symbol table: a constant plus
/// coefficient-weighted registers, evaluated over the frame's locals.
struct CompiledBound {
  int64_t Constant = 0;
  std::vector<std::pair<uint32_t, int64_t>> Terms;
};

/// Operand record for CheckElem, the path x[i + c]: the constant c. The
/// placed path, owned by the AST check node, is read only to render a
/// failed check's error.
struct ElemCheck {
  int64_t Offset = 0;
  const Path *Source = nullptr;
};

/// Operand record for CheckRange, the path x[b..e:k] of any other shape:
/// [Begin, End) by Stride, with the placed path for a failed check's error.
struct RangeCheck {
  CompiledBound Begin, End;
  int64_t Stride = 1;
  const Path *Source = nullptr;
};

/// One compiled body (a method or a top-level thread). Borrows AST nodes
/// (class decls, method name strings, check paths), so a chunk must not
/// outlive the Program it was compiled from.
struct Chunk {
  std::vector<Insn> Code;
  std::vector<int64_t> Ints;
  std::vector<const ClassDecl *> Classes;
  std::vector<CallOperand> Calls;
  /// The field lists of every CheckFields, end to end.
  std::vector<FieldId> CheckFieldIds;
  std::vector<ElemCheck> ElemChecks;
  std::vector<RangeCheck> RangeChecks;
  /// Pre-rendered assertion-failure messages ("assertion failed: <cond>"),
  /// so the failure path never renders expression syntax at run time.
  std::vector<std::string> Msgs;
  /// NumSyms locals plus this body's peak expression-temporary count.
  uint32_t NumRegs = 0;
  /// A method's parameter registers, in order; empty for thread bodies.
  std::vector<uint32_t> ParamRegs;
  /// A method's return register; kNoReg for a void-like method (the call
  /// then returns 0) and for thread bodies.
  uint32_t ReturnReg = kNoReg;
};

/// Every body of one program, compiled. Produced by compileProgram from
/// a finished program; borrows the AST like its chunks do.
struct CompiledProgram {
  std::vector<std::unique_ptr<Chunk>> Chunks;
  /// Parallel to Program::Threads.
  std::vector<const Chunk *> ThreadChunks;
  std::unordered_map<const MethodDecl *, const Chunk *> MethodChunks;

  const Chunk *chunkFor(const MethodDecl *M) const {
    auto It = MethodChunks.find(M);
    return It == MethodChunks.end() ? nullptr : It->second;
  }
};

/// The opcode's mnemonic, for disassembly and diagnostics.
const char *opcodeName(Opcode Op);

/// Renders a chunk one instruction per line ("  12: add r3 r1 r2 !" with
/// '!' marking Step). Debugging and compiler-test aid.
std::string disassemble(const Chunk &C);

} // namespace bigfoot

#endif // BIGFOOT_VM_BYTECODE_H
