//===- CompilerTest.cpp - Bytecode compiler and executor edge cases -------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Unit tests for the AST → register bytecode lowering (vm/Compiler.h) and
// the VM that runs it, concentrating on the structural edge cases the
// event-stream golden reaches only incidentally: empty bodies, await
// inside nested loops, fork/join under conditionals, strided-range check
// statements, exact error wording, and every way a call or fork fails.
// Each run is pinned per seed to its scheduler step count and the digest
// of its whole event stream. The pins were recorded while a tree-walking
// interpreter still ran beside the bytecode VM, and both produced them,
// except the argument-precedence and wrong-kind heap rows, which pin the
// VM's own behaviour. The step count is the denominator of detbench's
// vm_ns_per_stmt.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "bfj/Parser.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <array>

using namespace bigfoot;

namespace {

/// What one seed's run must reproduce: its scheduler step count and the
/// FNV-1a digest of its encoded event stream (common/RecordedRun.h), which
/// also covers the run's status, output and vm.* counters.
struct Pin {
  uint64_t Steps;
  uint64_t Digest;
};
using Pins = std::array<Pin, 3>;

/// The same pin for every seed (single-threaded programs, and programs
/// whose interleavings all produce one stream).
Pins allSeeds(Pin P) { return {P, P, P}; }

/// Runs \p Prog (under \p Tool, or as a base run when null) with the
/// oracle on for seeds 1..3 and checks each run against its pin and
/// against \p Error (empty for a clean run); returns the last seed's
/// result for additional assertions.
VmResult expectPinned(Program &Prog, const DetectorConfig *Tool,
                      const std::string &Error, const Pins &Want) {
  VmResult Last;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    VmOptions Opts;
    Opts.Seed = Seed;
    Opts.EnableGroundTruth = true; // Every access appears in the stream.
    VmResult R;
    uint64_t Digest =
        test::streamDigest(test::encodedRun(Prog, Tool, Opts, R));
    std::string Tag = "seed " + std::to_string(Seed);
    EXPECT_EQ(R.Error, Error) << Tag;
    EXPECT_EQ(R.Ok, Error.empty()) << Tag;
    EXPECT_EQ(R.StatementsExecuted, Want[Seed - 1].Steps) << Tag;
    EXPECT_EQ(Digest, Want[Seed - 1].Digest) << Tag;
    Last = std::move(R);
  }
  return Last;
}

VmResult expectPinned(const std::string &Source, const std::string &Error,
                      const Pins &Want) {
  auto Prog = parseProgramOrDie(Source);
  return expectPinned(*Prog, nullptr, Error, Want);
}

} // namespace

//===--- Compiler structure ---------------------------------------------------

TEST(Compiler, CompilesEveryBodyWithTerminalReturn) {
  auto Prog = parseProgramOrDie(R"(
class Worker {
  fields n;
  method nothing() { }
  method incr(d) {
    v = this.n;
    this.n = v + d;
  }
}
thread {
  w = new Worker;
  w.incr(2);
}
thread { }
)");
  CompiledProgram CP = compileProgram(*Prog);
  ASSERT_EQ(CP.ThreadChunks.size(), 2u);
  ASSERT_EQ(CP.MethodChunks.size(), 2u);
  for (const auto &Ch : CP.Chunks) {
    ASSERT_FALSE(Ch->Code.empty());
    const Insn &Last = Ch->Code.back();
    EXPECT_EQ(Last.Op, Opcode::Return);
    EXPECT_TRUE(Last.Step);
    // Registers cover at least the whole symbol namespace.
    EXPECT_GE(Ch->NumRegs, Prog->symbols().size());
  }
  // An empty body compiles to exactly its Return.
  const MethodDecl *Nothing =
      Prog->Classes[0]->findMethod("nothing");
  ASSERT_NE(Nothing, nullptr);
  const Chunk *NothingCh = CP.chunkFor(Nothing);
  ASSERT_NE(NothingCh, nullptr);
  EXPECT_EQ(NothingCh->Code.size(), 1u);
}

TEST(Compiler, DisassembleNamesEveryInstruction) {
  auto Prog = parseProgramOrDie(R"(
thread {
  a = new_array(4);
  a[1] = 2 * 3;
  x = a[1];
  n = len(a);
  if (x == 6 && n > 0) { print x; } else { skip; }
}
)");
  CompiledProgram CP = compileProgram(*Prog);
  std::string Text = disassemble(*CP.ThreadChunks[0]);
  for (const char *Mnemonic :
       {"newarray", "arraywrite", "arrayread", "arraylen", "br", "print",
        "return"})
    EXPECT_NE(Text.find(Mnemonic), std::string::npos)
        << "missing '" << Mnemonic << "' in:\n"
        << Text;
  // No instruction renders as unknown.
  EXPECT_EQ(Text.find(" ? "), std::string::npos) << Text;
}

TEST(Compiler, FusedCheckOpcodesPerPathShape) {
  // Each path of a check lowers to its own opcode: a field path to
  // CheckFields, an array path of one element i + c to CheckElem, and any
  // other array path to CheckRange. Only a check's last opcode ends its
  // step, and a check with no path is one Nop step.
  auto Prog = parseProgramOrDie(R"(
class C { fields f, g; }
thread {
  o = new C;
  a = new_array(8);
  i = 1;
  lo = 0;
  hi = 4;
  check(R o.f);
  check(W o.f/g);
  check(R a[i]);
  check(W a[i - 1]);
  check(R a[i + 3]);
  check(R a[i..i + 1]);
  check(R a[3]);
  check(W a[2*i]);
  check(R a[i + lo]);
  check(R a[lo..hi]);
  check(W a[lo..hi:2]);
  check(R o.g, W a[i], R a[lo..hi]);
  check();
}
)");
  CompiledProgram CP = compileProgram(*Prog);
  const Chunk &Ch = *CP.ThreadChunks[0];
  const SymbolTable &Syms = Prog->symbols();
  auto Reg = [&](const char *Name) { return *Syms.lookup(Name); };
  struct Want {
    Opcode Op;
    AccessKind Access;
    bool Step;
    uint32_t B;  ///< First field, index register, or range record.
    int64_t Arg; ///< Field count, element offset, or range stride.
  };
  const Want Wants[] = {
      {Opcode::CheckFields, AccessKind::Read, true, 0, 1},
      {Opcode::CheckFields, AccessKind::Write, true, 1, 2},
      {Opcode::CheckElem, AccessKind::Read, true, Reg("i"), 0},
      {Opcode::CheckElem, AccessKind::Write, true, Reg("i"), -1},
      {Opcode::CheckElem, AccessKind::Read, true, Reg("i"), 3},
      {Opcode::CheckElem, AccessKind::Read, true, Reg("i"), 0},
      {Opcode::CheckRange, AccessKind::Read, true, 0, 1},
      {Opcode::CheckRange, AccessKind::Write, true, 1, 1},
      {Opcode::CheckRange, AccessKind::Read, true, 2, 1},
      {Opcode::CheckRange, AccessKind::Read, true, 3, 1},
      {Opcode::CheckRange, AccessKind::Write, true, 4, 2},
      {Opcode::CheckFields, AccessKind::Read, false, 3, 1},
      {Opcode::CheckElem, AccessKind::Write, false, Reg("i"), 0},
      {Opcode::CheckRange, AccessKind::Read, true, 5, 1},
  };
  std::vector<const Insn *> Checks;
  for (const Insn &I : Ch.Code)
    if (I.Op == Opcode::CheckFields || I.Op == Opcode::CheckElem ||
        I.Op == Opcode::CheckRange)
      Checks.push_back(&I);
  ASSERT_EQ(Checks.size(), std::size(Wants)) << disassemble(Ch);
  for (size_t K = 0; K < Checks.size(); ++K) {
    SCOPED_TRACE("check opcode " + std::to_string(K));
    const Insn &I = *Checks[K];
    const Want &W = Wants[K];
    EXPECT_EQ(I.Op, W.Op);
    EXPECT_EQ(static_cast<AccessKind>(I.Access), W.Access);
    EXPECT_EQ(I.Step != 0, W.Step);
    EXPECT_EQ(I.A, Reg(I.Op == Opcode::CheckFields ? "o" : "a"));
    EXPECT_EQ(I.B, W.B);
    if (I.Op == Opcode::CheckFields)
      EXPECT_EQ(static_cast<int64_t>(I.C), W.Arg);
    else if (I.Op == Opcode::CheckElem)
      EXPECT_EQ(Ch.ElemChecks[I.C].Offset, W.Arg);
    else
      EXPECT_EQ(Ch.RangeChecks[I.B].Stride, W.Arg);
  }
  EXPECT_EQ(Ch.CheckFieldIds,
            (std::vector<FieldId>{Reg("f"), Reg("f"), Reg("g"), Reg("g")}));
  // The empty check: a Nop step right before the body's Return.
  ASSERT_GE(Ch.Code.size(), 2u);
  const Insn &Empty = Ch.Code[Ch.Code.size() - 2];
  EXPECT_EQ(Empty.Op, Opcode::Nop);
  EXPECT_TRUE(Empty.Step);
}

//===--- Pinned runs of structural edge cases ---------------------------------

TEST(Compiler, EmptyThreadAndEmptyMethodBodies) {
  VmResult R = expectPinned(R"(
class C {
  method nothing() { }
}
thread { }
thread {
  o = new C;
  o.nothing();
  x = o.nothing();
  print x;
}
)",
                            "", allSeeds({8, 0xd9f86c399aad19faull}));
  ASSERT_TRUE(R.Ok) << R.Error;
  // Methods without a return statement yield 0.
  EXPECT_EQ(R.Output, (std::vector<std::string>{"0"}));
}

TEST(Compiler, EmptyBlocksAndBareBranches) {
  VmResult R = expectPinned(R"(
thread {
  i = 0;
  while (i < 3) {
    if (i == 1) { } else { skip; }
    { { } }
    i = i + 1;
  }
  print i;
}
)",
                            "", allSeeds({17, 0x4100681ad72d3bbcull}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"3"}));
}

TEST(Compiler, AwaitInsideNestedLoops) {
  VmResult R = expectPinned(R"(
class Task {
  method run(b, rounds) {
    r = 0;
    while (r < rounds) {
      p = 0;
      do {
        await b;
        p = p + 1;
      } while (p < 2);
      r = r + 1;
    }
  }
}
thread {
  b = new_barrier(2);
  t = new Task;
  fork h = t.run(b, 3);
  r = 0;
  while (r < 6) {
    await b;
    r = r + 1;
  }
  join h;
  print r;
}
)",
                            "", allSeeds({66, 0x92dd5176701b4f54ull}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"6"}));
}

TEST(Compiler, ForkAndJoinInsideConditionals) {
  VmResult R = expectPinned(R"(
class Adder {
  method bump(g) {
    acq (g);
    v = g.total;
    g.total = v + 1;
    rel (g);
  }
}
thread {
  $g.total = 0;
  a = new Adder;
  i = 0;
  h1 = 0 - 1;
  h2 = 0 - 1;
  while (i < 2) {
    if (i == 0) {
      fork h1 = a.bump($g);
    } else {
      fork h2 = a.bump($g);
    }
    i = i + 1;
  }
  if (h1 >= 0) { join h1; } else { skip; }
  if (h2 >= 0) { join h2; } else { skip; }
  acq ($g);
  t = $g.total;
  rel ($g);
  print t;
}
)",
                            "",
                            Pins{{{34, 0xc464cce2aa35612aull},
                                  {34, 0xe8f3a65fed85722cull},
                                  {34, 0xc464cce2aa35612aull}}});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"2"}));
}

TEST(Compiler, ShortCircuitOperatorsMatchWalkerStepForStep) {
  VmResult R = expectPinned(R"(
thread {
  a = new_array(3);
  a[0] = 7;
  i = 0;
  hits = 0;
  while (i < 6) {
    ok = i < 3 && i != 1;
    other = i > 4 || ok;
    nested = (i < 2 || i > 3) && !(i == 5);
    hits = hits + ok + other + nested;
    i = i + 1;
  }
  print hits;
}
)",
                            "", allSeeds({48, 0x1f4ee2c98f374ad4ull}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"8"}));
}

TEST(Compiler, StridedRangeChecksUnderBigFoot) {
  auto Prog = parseProgramOrDie(R"(
class Sweep {
  method go(a, n) {
    i = 0;
    while (i < n) {
      a[i] = i;
      i = i + 2;
    }
    j = 1;
    while (j < n) {
      x = a[j];
      j = j + 2;
    }
  }
}
thread {
  a = new_array(64);
  s = new Sweep;
  s.go(a, 64);
}
)");
  InstrumentedProgram IP = instrumentBigFoot(*Prog);
  VmResult R = expectPinned(*IP.Prog, &IP.Tool, "",
                            allSeeds({329, 0xb1f65e84c24e84e5ull}));
  EXPECT_GT(R.Counters.get("tool.checkEvents.array"), 0u);
  EXPECT_TRUE(R.ToolRacyLocations.empty());
}

//===--- Error wording --------------------------------------------------------

TEST(Compiler, RuntimeErrorsMatchWalkerWording) {
  struct Case {
    const char *Source;
    const char *Error;
    Pins Want;
  };
  const Case Cases[] = {
      {"thread { x = 1 / 0; }", "division by zero",
       allSeeds({1, 0xec15a1a6840a0eb8ull})},
      {"thread { x = 5 % 0; }", "modulo by zero",
       allSeeds({1, 0xa2a6e1ffeaa645e7ull})},
      {"thread { x = -null; }", "negation of a non-integer",
       allSeeds({1, 0x73c4581e4dff5662ull})},
      {"thread { a = new_array(2); x = a[5]; }",
       "array index out of bounds: 5", allSeeds({2, 0x2ff05e20e2b0e405ull})},
      {"thread { o = 3; y = o.f; }", "'o' does not hold an object reference",
       allSeeds({2, 0xdcff078252d1e0bdull})},
      {"thread { h = 99; join h; }", "join on an invalid thread handle",
       allSeeds({2, 0x3929c1cebfda2d98ull})},
      {"thread { b = 1; await b; }", "await on a non-barrier",
       allSeeds({2, 0x0843614f4b1ba91cull})},
      // A reference to the wrong kind of heap cell: arrays, objects and
      // barriers share one id space, and each use names the kind it needs.
      {"thread { a = new_array(2); y = a.f; }", "'a' is not an object",
       allSeeds({2, 0x88f5cb5b66ad226eull})},
      {"thread { b = new_barrier(2); acq(b); }", "'b' is not an object",
       allSeeds({2, 0xf392a64ba30fe4a6ull})},
      {"class C { method m() { } }\nthread { a = new_array(2); a.m(); }",
       "'a' is not an object", allSeeds({2, 0x5c751c5da9da6e0bull})},
      {"class C { fields f; }\nthread { o = new C; x = o[0]; }",
       "'o' is not an array", allSeeds({2, 0x74e9c8a09f8ef96aull})},
      {"thread { b = new_barrier(2); n = len(b); }", "'b' is not an array",
       allSeeds({2, 0x452d955f96a87fa5ull})},
      {"class C { fields f; }\nthread { o = new C; await o; }",
       "await on a non-barrier", allSeeds({2, 0x5c53b578c2433c00ull})},
      {"thread { a = new_array(2); await a; }", "await on a non-barrier",
       allSeeds({2, 0x7ed0da928fb5d67cull})},
      {"thread { assert 1 == 2; }", "assertion failed: (1 == 2)",
       allSeeds({1, 0xfa3f0029167c76efull})},
      // Calls and forks. An arity mismatch sets the error but still
      // pushes the callee frame or, for a fork, registers the child and
      // emits its Fork event, which the pinned stream records.
      {"class C { method m(a) { } }\n"
       "thread { o = new C; o.m(1, 2); }",
       "wrong argument count for 'm'", allSeeds({2, 0x024093adf8e81db3ull})},
      {"class C { method m(a, b) { } }\n"
       "thread { o = new C; fork h = o.m(1); join h; }",
       "wrong argument count for 'm'", allSeeds({2, 0xd5f5102486fc132full})},
      {"class C { method m() { } }\nthread { o = 3; o.m(); }",
       "'o' does not hold an object reference",
       allSeeds({2, 0xf9dab02119ae300cull})},
      {"class C { method m() { } }\nthread { o = null; fork h = o.m(); }",
       "'o' does not hold an object reference",
       allSeeds({2, 0x45fab23e02e1bd7eull})},
      // Arguments are evaluated into registers before the call resolves
      // its method, so an argument's own error comes first: it beats a
      // non-object receiver and an arity mismatch.
      {"class C { method m(a) { } }\nthread { o = 3; o.m(1 / 0); }",
       "division by zero", allSeeds({2, 0x8dd733142e3a462full})},
      {"class C { method m(a) { } }\nthread { o = new C; o.m(5 % 0, 2); }",
       "modulo by zero", allSeeds({2, 0x0791755679a1f41full})},
      {"class C { method m(a) { } }\nthread { o = 3; fork h = o.m(-null); }",
       "negation of a non-integer", allSeeds({2, 0xce2729722e112a81ull})},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Source);
    expectPinned(C.Source, C.Error, C.Want);
  }
}

TEST(Compiler, CallStackOverflowParity) {
  expectPinned(R"(
class R {
  method rec(self) {
    self.rec(self);
  }
}
thread {
  r = new R;
  r.rec(r);
}
)",
               "call stack overflow", allSeeds({514, 0x4c873a07e42040b4ull}));
}

TEST(Compiler, UnknownMethodFails) {
  // The parser rejects calls to undefined methods, so rename the only
  // definition after parsing: the call then resolves nowhere.
  auto Prog = parseProgramOrDie(R"(
class C {
  method m() { }
}
thread {
  o = new C;
  o.m();
}
)");
  Prog->Classes[0]->Methods[0]->Name = "renamed";
  expectPinned(*Prog, nullptr, "no method named 'm'",
               allSeeds({2, 0xca46c07322040ca4ull}));
}
