//===- RandomPlacementTest.cpp - Placement fuzzing vs the coverage oracle ----===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Generates random structured BFJ programs — nested branches, counted
// loops with strides, lock regions, method calls, field and array
// accesses — instruments them with BigFoot, runs them, and verifies
// Section 2's precise-checks property on the recorded event stream
// (common/RecordedRun.h, the oracle CoverageOracleTest uses): every
// access covered by a legitimate check, every check legitimate for an
// access. This stresses the placement rules ([IF]/[LOOP]/[CALL]/renaming
// /invariant inference) far beyond the hand-written suite. Every tool's
// placement must also read no local the source leaves unassigned
// (common/UnassignedReads.h).
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "common/UnassignedReads.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "support/Rng.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace bigfoot;
using namespace bigfoot::test;

namespace {

/// Emits random statement blocks. Generated programs are single-threaded
/// plus one forked worker (precise checks are a per-thread property; a
/// second thread exercises fork/join placement too) and always terminate:
/// loops are counted with positive literal strides.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    std::ostringstream OS;
    OS << "class O { fields f, g, h; }\n";
    OS << "class W {\n  fields pad;\n";
    OS << "  method helper(o, a, lock, n) {\n";
    InHelper = true;
    emitBlock(OS, 2, /*Depth=*/1, "n");
    InHelper = false;
    OS << "  }\n";
    OS << "  method run(o, a, lock, n) {\n";
    emitBlock(OS, 2, /*Depth=*/0, "n");
    OS << "  }\n}\n";
    OS << "thread {\n"
       << "  o = new O;\n  lock = new O;\n  n = 12;\n"
       << "  a = new_array(n);\n  w = new W;\n"
       << "  fork t = w.run(o, a, lock, n);\n";
    // The main thread does a little unsynchronized-with-nobody work of
    // its own on private state.
    OS << "  p = new O;\n  p.f = 1;\n  q = p.f;\n";
    OS << "  join t;\n}\n";
    return OS.str();
  }

private:
  Rng R;
  int VarCounter = 0;
  bool InHelper = false;

  std::string fresh(const char *Base) {
    return std::string(Base) + std::to_string(VarCounter++);
  }

  std::string pad(int Indent) {
    return std::string(static_cast<size_t>(Indent) * 2, ' ');
  }

  const char *field() {
    switch (R.nextBelow(3)) {
    case 0:
      return "f";
    case 1:
      return "g";
    default:
      return "h";
    }
  }

  void emitBlock(std::ostringstream &OS, int Indent, int Depth,
                 const std::string &Bound) {
    int N = 2 + static_cast<int>(R.nextBelow(4));
    for (int I = 0; I < N; ++I)
      emitStmt(OS, Indent, Depth, Bound);
  }

  void emitStmt(std::ostringstream &OS, int Indent, int Depth,
                const std::string &Bound) {
    std::string P = pad(Indent);
    // Helpers never call themselves (termination); deep nesting stays
    // simple.
    uint64_t Choices = Depth >= 2 ? 6 : (InHelper ? 8 : 9);
    switch (R.nextBelow(Choices)) {
    case 0: // Field write.
      OS << P << "o." << field() << " = " << R.nextBelow(100) << ";\n";
      return;
    case 1: { // Field read.
      OS << P << fresh("v") << " = o." << field() << ";\n";
      return;
    }
    case 2: { // Array access at a literal index.
      int64_t Idx = R.nextBelow(12);
      if (R.chance(1, 2))
        OS << P << "a[" << Idx << "] = " << R.nextBelow(50) << ";\n";
      else
        OS << P << fresh("u") << " = a[" << Idx << "];\n";
      return;
    }
    case 3: { // Scalar churn (forces renames).
      OS << P << fresh("s") << " = " << R.nextBelow(20) << ";\n";
      return;
    }
    case 4: { // Lock region around a small body.
      OS << P << "acq(lock);\n";
      emitStmt(OS, Indent, Depth + 2, Bound);
      emitStmt(OS, Indent, Depth + 2, Bound);
      OS << P << "rel(lock);\n";
      return;
    }
    case 5: { // Read-modify-write on a field.
      std::string T = fresh("t");
      const char *F = field();
      OS << P << T << " = o." << F << ";\n";
      OS << P << "o." << F << " = " << T << " + 1;\n";
      return;
    }
    case 6: { // Branch.
      std::string C = fresh("c");
      OS << P << C << " = " << R.nextBelow(10) << ";\n";
      OS << P << "if (" << C << " < " << R.nextBelow(10) << ") {\n";
      emitBlock(OS, Indent + 1, Depth + 1, Bound);
      if (R.chance(1, 2)) {
        OS << P << "} else {\n";
        emitBlock(OS, Indent + 1, Depth + 1, Bound);
      }
      OS << P << "}\n";
      return;
    }
    case 7: { // Counted loop with array accesses at the induction var.
      std::string I = fresh("i");
      int64_t Step = R.chance(1, 3) ? 2 : 1;
      OS << P << I << " = 0;\n";
      OS << P << "while (" << I << " < " << Bound << ") {\n";
      std::string Q = pad(Indent + 1);
      if (R.chance(2, 3))
        OS << Q << "a[" << I << "] = " << I << ";\n";
      else
        OS << Q << fresh("w") << " = a[" << I << "];\n";
      if (R.chance(1, 3))
        emitStmt(OS, Indent + 1, Depth + 2, Bound);
      OS << Q << I << " = " << I << " + " << Step << ";\n";
      OS << P << "}\n";
      return;
    }
    case 8: { // Call the helper (exercises [CALL] kill sets).
      OS << P << fresh("r") << " = this.helper(o, a, lock, " << Bound
         << ");\n";
      return;
    }
    }
  }
};

} // namespace

class RandomPlacement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPlacement, GeneratedProgramsHavePreciseChecks) {
  uint64_t Base = GetParam();
  for (uint64_t Inner = 0; Inner < 10; ++Inner) {
    uint64_t Seed = Base * 1000 + Inner;
    ProgramGen Gen(Seed);
    std::string Source = Gen.generate();
    ParseResult PR = parseProgram(Source);
    ASSERT_TRUE(PR.ok()) << PR.Error << "\n" << Source;
    for (const char *Tool : kToolNames)
      expectNoNewUnassignedReads(*PR.Prog, *instrumentNamed(*PR.Prog, Tool),
                                 "seed " + std::to_string(Seed));

    InstrumentedProgram Bf = instrumentBigFoot(*PR.Prog);
    VmOptions Opts;
    Opts.Seed = Seed + 17;
    RecordedRun R = recordRun(*Bf.Prog, Bf.Tool, Opts);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error << "\n" << printProgram(*Bf.Prog);
    ASSERT_TRUE(hasPreciseChecks(R)) << "seed " << Seed << "\n" << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomPlacement,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(RandomPlacementMeta, GeneratorMakesVariedPrograms) {
  ProgramGen A(1), B(2);
  EXPECT_NE(A.generate(), B.generate());
}
