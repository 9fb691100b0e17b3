//===- CompilerTest.cpp - Bytecode compiler and executor edge cases ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Unit tests for the AST → register bytecode lowering (vm/Compiler.h) and
// the bytecode execution mode, concentrating on the structural edge cases
// the big differential test reaches only incidentally: empty bodies,
// await inside nested loops, fork/join under conditionals, strided-range
// check statements, error-message parity, and the UseBytecode=false
// escape hatch. Most tests run the same program in both execution modes
// and require identical observable results including the scheduler step
// count — the contract the dispatch benchmark's denominator rests on.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "bfj/Parser.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {

VmOptions modeOpts(bool UseBytecode, uint64_t Seed) {
  VmOptions Opts;
  Opts.Seed = Seed;
  Opts.UseBytecode = UseBytecode;
  Opts.EnableGroundTruth = true; // Every access appears in the stream.
  return Opts;
}

/// Runs \p Prog (under \p Tool, or as a base run when null) in both modes
/// and returns the two encoded event streams (common/RecordedRun.h).
std::pair<std::vector<uint8_t>, std::vector<uint8_t>>
bothStreams(Program &Prog, const DetectorConfig *Tool, uint64_t Seed,
            VmResult &Ast, VmResult &Bc) {
  return {test::encodedRun(Prog, Tool, modeOpts(false, Seed), Ast),
          test::encodedRun(Prog, Tool, modeOpts(true, Seed), Bc)};
}

/// Runs \p Source uninstrumented in both modes (three seeds) and checks
/// that everything observable matches, the whole event stream included;
/// returns the bytecode result of the last seed for additional
/// assertions.
VmResult expectModesAgree(const char *Source) {
  auto Prog = parseProgramOrDie(Source);
  VmResult LastBc;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    VmResult Ast, Bc;
    auto [AstStream, BcStream] = bothStreams(*Prog, nullptr, Seed, Ast, Bc);
    std::string Tag = "seed " + std::to_string(Seed);
    EXPECT_EQ(Ast.Ok, Bc.Ok) << Tag;
    EXPECT_EQ(Ast.Error, Bc.Error) << Tag;
    EXPECT_EQ(Ast.Output, Bc.Output) << Tag;
    EXPECT_EQ(Ast.StatementsExecuted, Bc.StatementsExecuted) << Tag;
    EXPECT_EQ(Ast.Counters.all(), Bc.Counters.all()) << Tag;
    EXPECT_TRUE(AstStream == BcStream)
        << Tag << ": event streams differ at byte "
        << test::firstDifference(AstStream, BcStream);
    LastBc = std::move(Bc);
  }
  return LastBc;
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
  Prog->ensureInterned();
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
  Prog->ensureInterned();
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

//===--- Execution-mode agreement on structural edge cases --------------------

TEST(Compiler, EmptyThreadAndEmptyMethodBodies) {
  VmResult R = expectModesAgree(R"(
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
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  // Methods without a return statement yield 0.
  EXPECT_EQ(R.Output, (std::vector<std::string>{"0"}));
}

TEST(Compiler, EmptyBlocksAndBareBranches) {
  VmResult R = expectModesAgree(R"(
thread {
  i = 0;
  while (i < 3) {
    if (i == 1) { } else { skip; }
    { { } }
    i = i + 1;
  }
  print i;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"3"}));
}

TEST(Compiler, AwaitInsideNestedLoops) {
  VmResult R = expectModesAgree(R"(
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
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"6"}));
}

TEST(Compiler, ForkAndJoinInsideConditionals) {
  VmResult R = expectModesAgree(R"(
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
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"2"}));
}

TEST(Compiler, ShortCircuitOperatorsMatchWalkerStepForStep) {
  VmResult R = expectModesAgree(R"(
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
)");
  ASSERT_TRUE(R.Ok) << R.Error;
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
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    VmResult Ast, Bc;
    auto [AstStream, BcStream] = bothStreams(*IP.Prog, &IP.Tool, Seed, Ast, Bc);
    ASSERT_TRUE(Bc.Ok) << Bc.Error;
    EXPECT_EQ(Ast.Counters.all(), Bc.Counters.all());
    EXPECT_EQ(Ast.ToolRacyLocations, Bc.ToolRacyLocations);
    ASSERT_TRUE(AstStream == BcStream)
        << "event streams differ at byte "
        << test::firstDifference(AstStream, BcStream);
    EXPECT_GT(Bc.Counters.get("tool.checkEvents.array"), 0u);
  }
}

//===--- Error parity and the escape hatch ------------------------------------

TEST(Compiler, RuntimeErrorsMatchWalkerWording) {
  for (const char *Source : {
           "thread { x = 1 / 0; }",
           "thread { x = 5 % 0; }",
           "thread { x = -null; }",
           "thread { a = new_array(2); x = a[5]; }",
           "thread { o = 3; y = o.f; }",
           "thread { h = 99; join h; }",
           "thread { b = 1; await b; }",
           "thread { assert 1 == 2; }",
       }) {
    VmResult R = expectModesAgree(Source);
    EXPECT_FALSE(R.Ok) << Source;
    EXPECT_FALSE(R.Error.empty()) << Source;
  }
}

TEST(Compiler, CallStackOverflowParity) {
  VmResult R = expectModesAgree(R"(
class R {
  method rec(self) {
    self.rec(self);
  }
}
thread {
  r = new R;
  r.rec(r);
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "call stack overflow");
}

TEST(Compiler, AstWalkerEscapeHatchStillWorks) {
  auto Prog = parseProgramOrDie("thread { x = 6 * 7; print x; }");
  VmOptions Opts;
  Opts.UseBytecode = false;
  VmResult R = runProgramBase(*Prog, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"42"}));
  EXPECT_GT(R.StatementsExecuted, 0u);
}
