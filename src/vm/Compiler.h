//===- Compiler.h - BFJ AST to bytecode lowering ----------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers every method and thread body of a finished Program into flat
/// register bytecode (Bytecode.h). The compiler is the last stage of the
/// pipeline parse → instrument → compile → execute, where parsing and
/// each instrumenter finish their program by building its symbol table.
/// The compiler looks every name up in that table (a local's register
/// and a field's FieldId are its SymId), resolves classes and field
/// volatility by name, lowers each placed check into a check record, and
/// gives each method's chunk its parameter and return registers. It reads
/// the Program and never writes it, so the execution loop never consults
/// the AST or the class table for accesses, and any number of runs may
/// compile one program at once.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_VM_COMPILER_H
#define BIGFOOT_VM_COMPILER_H

#include "vm/Bytecode.h"

namespace bigfoot {

class Program;

/// Compiles all bodies of \p Prog, whose symbol table must hold every
/// name it mentions (Program::internSymbols). The result borrows AST
/// nodes and must not outlive \p Prog.
CompiledProgram compileProgram(const Program &Prog);

} // namespace bigfoot

#endif // BIGFOOT_VM_COMPILER_H
