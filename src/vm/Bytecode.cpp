//===- Bytecode.cpp - Flat register bytecode for the BFJ VM -----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include <sstream>

using namespace bigfoot;

const char *bigfoot::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return "nop";
  case Opcode::LoadInt:
    return "loadint";
  case Opcode::LoadNull:
    return "loadnull";
  case Opcode::Move:
    return "move";
  case Opcode::Neg:
    return "neg";
  case Opcode::Not:
    return "not";
  case Opcode::Boolify:
    return "boolify";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Mod:
    return "mod";
  case Opcode::Lt:
    return "lt";
  case Opcode::Le:
    return "le";
  case Opcode::Gt:
    return "gt";
  case Opcode::Ge:
    return "ge";
  case Opcode::CmpEq:
    return "cmpeq";
  case Opcode::CmpNe:
    return "cmpne";
  case Opcode::Jmp:
    return "jmp";
  case Opcode::JmpIfFalse:
    return "jmpiffalse";
  case Opcode::JmpIfTrue:
    return "jmpiftrue";
  case Opcode::Br:
    return "br";
  case Opcode::NewObject:
    return "newobject";
  case Opcode::NewArray:
    return "newarray";
  case Opcode::NewBarrier:
    return "newbarrier";
  case Opcode::FieldRead:
    return "fieldread";
  case Opcode::FieldReadVol:
    return "fieldread.vol";
  case Opcode::FieldWrite:
    return "fieldwrite";
  case Opcode::FieldWriteVol:
    return "fieldwrite.vol";
  case Opcode::ArrayRead:
    return "arrayread";
  case Opcode::ArrayWrite:
    return "arraywrite";
  case Opcode::ArrayLen:
    return "arraylen";
  case Opcode::Acquire:
    return "acquire";
  case Opcode::Release:
    return "release";
  case Opcode::Call:
    return "call";
  case Opcode::Fork:
    return "fork";
  case Opcode::Join:
    return "join";
  case Opcode::Await:
    return "await";
  case Opcode::CheckFields:
    return "checkfields";
  case Opcode::CheckElem:
    return "checkelem";
  case Opcode::CheckRange:
    return "checkrange";
  case Opcode::Print:
    return "print";
  case Opcode::Assert:
    return "assert";
  case Opcode::Return:
    return "return";
  }
  return "?";
}

std::string bigfoot::disassemble(const Chunk &C) {
  std::ostringstream Out;
  for (size_t I = 0; I < C.Code.size(); ++I) {
    const Insn &In = C.Code[I];
    Out << "  " << I << ": " << opcodeName(In.Op) << " " << In.A << " "
        << In.B << " " << In.C;
    if (In.Step)
      Out << " !";
    Out << "\n";
  }
  return Out.str();
}
