//===- CoverageOracleTest.cpp - Section 2's definitions, checked literally ---===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The theory of check placement (Section 2) defines precise checks
// per-thread: a check COVERS an access to the same location by the same
// thread if it precedes it with no intervening release or succeeds it
// with no intervening acquire; a check is LEGITIMATE for an access if it
// precedes it with no intervening acquire or succeeds it with no
// intervening release. Write checks cover reads and writes but are
// legitimate only for writes; read checks cover only reads but are
// legitimate for both (Section 5).
//
// This test records the typed event stream of instrumented runs
// (common/RecordedRun.h) and verifies both properties for every access
// and every check — the "additional dynamic analysis" the paper used to
// confirm its implementation was precise (Section 5).
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bigfoot;
using namespace bigfoot::test;

namespace {

void verifyPreciseChecks(const InstrumentedProgram &IP,
                         const std::string &Label, uint64_t Seed) {
  VmOptions Opts;
  Opts.Seed = Seed;
  RecordedRun R = recordRun(*IP.Prog, IP.Tool, Opts);
  ASSERT_TRUE(R.Run.Ok) << Label << ": " << R.Run.Error;
  EXPECT_TRUE(hasPreciseChecks(R)) << Label << "/" << IP.Tool.Name;
}

/// Runs a hand-placed BFJ program (its checks written in the source)
/// under FastTrack's detector and returns the oracle's findings.
PrecisionReport reportFor(const char *Source) {
  auto Prog = parseProgramOrDie(Source);
  RecordedRun R = recordRun(*Prog, fastTrackConfig());
  EXPECT_TRUE(R.Run.Ok) << R.Run.Error;
  return preciseCheckReport(R);
}

} // namespace

TEST(CoverageOracle, AllSuiteWorkloadsHavePreciseChecks) {
  for (const Workload &W : standardSuite(SuiteScale::Test)) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    InstrumentedProgram Bf = instrumentBigFoot(*Prog);
    verifyPreciseChecks(Bf, W.Name + "/bigfoot", 9);
    InstrumentedProgram Rc = instrumentRedCard(*Prog);
    verifyPreciseChecks(Rc, W.Name + "/redcard", 9);
  }
}

TEST(CoverageOracle, FastTrackTriviallyPrecise) {
  // Per-access placement: every check is adjacent to its access.
  Workload W = workloadByName("sparse", SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  InstrumentedProgram Ft = instrumentFastTrack(*Prog);
  verifyPreciseChecks(Ft, "sparse/fasttrack", 3);
}

TEST(CoverageOracle, HoldsUnderAggressiveInterleaving) {
  Workload W = workloadByName("sor", SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  for (uint64_t Seed : {2u, 3u, 5u, 8u}) {
    VmOptions Opts;
    Opts.Seed = Seed;
    Opts.Quantum = 2;
    RecordedRun R = recordRun(*Bf.Prog, Bf.Tool, Opts);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    EXPECT_TRUE(preciseCheckReport(R).Uncovered.empty()) << "seed " << Seed;
  }
}

TEST(CoverageOracle, AblatedConfigurationsStayPrecise) {
  // Turning optimizations off must never break precision, only slow
  // things down.
  Workload W = workloadByName("lufact", SuiteScale::Test);
  auto Prog = parseProgramOrDie(W.Source.c_str());
  for (bool Anticipation : {false, true}) {
    for (bool Hoist : {false, true}) {
      PlacementOptions P;
      P.UseAnticipation = Anticipation;
      P.HoistLoopChecks = Hoist;
      P.CoalesceChecks = Anticipation; // Vary this too.
      InstrumentedProgram Bf = instrumentBigFoot(*Prog, P);
      verifyPreciseChecks(Bf,
                          "lufact/ant=" + std::to_string(Anticipation) +
                              "/hoist=" + std::to_string(Hoist),
                          4);
    }
  }
}

TEST(CoverageOracle, PeriodicCommitKeepsDetectionIntact) {
  // The Section 3.3 extension: committing footprints mid-span must not
  // change the verdict.
  for (const Workload &W : racyVariants()) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    InstrumentedProgram Bf = instrumentBigFoot(*Prog);
    VmOptions Opts;
    Opts.Seed = 3;
    Opts.Quantum = 4;
    Opts.CommitIntervalSteps = 7;
    Opts.EnableGroundTruth = true;
    VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
    ASSERT_TRUE(Run.Ok) << W.Name << ": " << Run.Error;
    EXPECT_FALSE(Run.GroundTruthRaces.empty()) << W.Name;
    EXPECT_FALSE(Run.ToolRaces.empty())
        << W.Name << " with periodic commits";
  }
  // And on a race-free program it stays quiet.
  Workload Clean = workloadByName("moldyn", SuiteScale::Test);
  auto Prog = parseProgramOrDie(Clean.Source.c_str());
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  VmOptions Opts;
  Opts.CommitIntervalSteps = 5;
  VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_TRUE(Run.ToolRaces.empty());
}

TEST(CoverageOracle, SpinLoopWithPeriodicCommitTerminatesChecks) {
  // A potentially unbounded loop with deferred checks: periodic commits
  // flush them even though the loop's deferred check point is far away.
  auto Prog = parseProgramOrDie(R"(
class W {
  fields dummy;
  method run(a, n, reps) {
    r = 0;
    while (r < reps) {
      i = 0;
      while (i < n) {
        a[i] = i + r;
        i = i + 1;
      }
      r = r + 1;
    }
  }
}
thread {
  n = 32;
  a = new_array(n);
  w = new W;
  fork t = w.run(a, n, 50);
  join t;
}
)");
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  VmOptions Opts;
  Opts.CommitIntervalSteps = 11;
  VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_GT(Run.Counters.get("tool.commits") +
                Run.Counters.get("tool.earlyCommits"),
            0u);
  EXPECT_TRUE(Run.ToolRaces.empty());
}

//===--- The oracle itself can fail ----------------------------------------

TEST(CoverageOracle, ReportsCheckSeparatedFromItsAccessByARelease) {
  // The only check of o.f precedes a release that precedes the write: it
  // is legitimate (no acquire before the write) but covers nothing.
  PrecisionReport P = reportFor(R"(
class C { fields f; }
thread {
  o = new C;
  l = new C;
  acq(l);
  check(W o.f);
  rel(l);
  o.f = 1;
}
)");
  ASSERT_EQ(P.Uncovered.size(), 1u);
  EXPECT_NE(P.Uncovered[0].find("write of obj#"), std::string::npos)
      << P.Uncovered[0];
  EXPECT_NE(P.Uncovered[0].find(".f by thread 0"), std::string::npos)
      << P.Uncovered[0];
  EXPECT_TRUE(P.Illegitimate.empty());
  EXPECT_TRUE(P.CaptureError.empty());
}

TEST(CoverageOracle, ReportsCheckOfALocationNeverAccessed) {
  // o.f is checked and written; o.g is checked but never touched.
  PrecisionReport P = reportFor(R"(
class C { fields f, g; }
thread {
  o = new C;
  check(W o.f);
  check(W o.g);
  o.f = 1;
}
)");
  EXPECT_TRUE(P.Uncovered.empty());
  ASSERT_EQ(P.Illegitimate.size(), 1u);
  EXPECT_NE(P.Illegitimate[0].find("write check of obj#"), std::string::npos)
      << P.Illegitimate[0];
  EXPECT_NE(P.Illegitimate[0].find(".g by thread 0"), std::string::npos)
      << P.Illegitimate[0];
}

TEST(CoverageOracle, RejectsARunWhoseAccessesNeverReachedTheRecorder) {
  // Without the ground-truth oracle the VM emits no per-access events, so
  // the recorder sees checks but no accesses; the oracle must not pass
  // such a run vacuously.
  auto Prog = parseProgramOrDie(
      "class C { fields f; } thread { o = new C; o.f = 1; }");
  InstrumentedProgram Ft = instrumentFastTrack(*Prog);
  RecordedRun R;
  VmOptions Opts;
  Opts.RecordSink = &R.Trace;
  R.Run = runProgram(*Ft.Prog, Ft.Tool, Opts);
  R.Symbols = Ft.Prog->symbols();
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_EQ(R.Trace.Accesses, 0u);
  PrecisionReport P = preciseCheckReport(R);
  EXPECT_FALSE(P.CaptureError.empty());
  EXPECT_FALSE(hasPreciseChecks(R));
}
