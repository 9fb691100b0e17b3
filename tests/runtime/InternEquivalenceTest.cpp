//===- InternEquivalenceTest.cpp - Differential golden test ------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Differential regression test for the symbol-interning / flat-shadow
// refactor: for every workload (standard suite at Test scale plus the racy
// variants), all six detector configurations, and three scheduler seeds,
// the externally visible behavior — run status, VM output, the sorted set
// of racy location keys, and every counter — must be byte-identical to a
// golden file captured from the string-keyed seed implementation.
//
// The single excluded counter is tool.peakShadowBytes: it measures the
// *size of the shadow representation itself*, which the interning refactor
// deliberately shrinks (Table 2's accounting follows the representation).
// tool.peakShadowLocations stays included — interning must not change how
// many shadow locations exist, only how they are keyed.
//
// Regenerate (only legitimate when intentionally changing detector
// semantics) with:
//   BIGFOOT_REGEN_GOLDEN=1 ./test_intern_equivalence
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "runtime/Detector.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

using namespace bigfoot;

namespace {

#ifndef BIGFOOT_TEST_DIR
#error "BIGFOOT_TEST_DIR must be defined by the build"
#endif

std::string goldenPath() {
  return std::string(BIGFOOT_TEST_DIR) + "/runtime/golden/intern_equivalence.golden";
}

/// The six configurations the paper's Figure 2 table evaluates (five tools
/// plus the DJIT+ baseline), mirroring harness/Experiment.cpp.
std::vector<InstrumentedProgram> allSixConfigs(const Program &P) {
  std::vector<InstrumentedProgram> All;
  All.push_back(instrumentFastTrack(P));
  All.push_back(instrumentRedCard(P));
  All.push_back(instrumentSlimState(P));
  All.push_back(instrumentSlimCard(P));
  All.push_back(instrumentBigFoot(P));
  InstrumentedProgram Djit = instrumentFastTrack(P);
  Djit.Tool = djitConfig();
  All.push_back(std::move(Djit));
  return All;
}

void renderRun(std::ostream &Out, const std::string &WorkloadName,
               const std::string &ToolName, uint64_t Seed,
               const VmResult &Run) {
  Out << "run workload=" << WorkloadName << " tool=" << ToolName
      << " seed=" << Seed << "\n";
  Out << "ok=" << (Run.Ok ? 1 : 0) << "\n";
  if (!Run.Ok)
    Out << "error=" << Run.Error << "\n";
  for (const std::string &Line : Run.Output)
    Out << "out=" << Line << "\n";
  // ToolRacyLocations is a std::set — already sorted and deduplicated.
  for (const std::string &Key : Run.ToolRacyLocations)
    Out << "race=" << Key << "\n";
  for (const auto &[Name, Value] : Run.Counters.all()) {
    if (Name == "tool.peakShadowBytes")
      continue; // Representation-dependent by design; see file comment.
    Out << "counter " << Name << "=" << Value << "\n";
  }
  Out << "end\n";
}

std::string renderAll() {
  std::ostringstream Out;
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  for (Workload &W : racyVariants())
    Suite.push_back(std::move(W));
  for (const Workload &W : Suite) {
    ParseResult PR = parseProgram(W.Source);
    if (!PR.ok()) {
      ADD_FAILURE() << "workload " << W.Name
                    << " failed to parse: " << PR.Error;
      continue;
    }
    std::vector<InstrumentedProgram> Configs = allSixConfigs(*PR.Prog);
    for (const InstrumentedProgram &IP : Configs) {
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        VmOptions Opts;
        Opts.Seed = Seed;
        VmResult Run = runProgram(*IP.Prog, IP.Tool, Opts);
        renderRun(Out, W.Name, IP.Tool.Name, Seed, Run);
      }
    }
  }
  return Out.str();
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::string Cur;
  for (char C : Text) {
    if (C == '\n') {
      Lines.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Lines.push_back(Cur);
  return Lines;
}

TEST(InternEquivalence, BehaviorMatchesStringKeyedGolden) {
  std::string Text = renderAll();

  if (std::getenv("BIGFOOT_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath(), std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << goldenPath();
    Out << Text;
    GTEST_SKIP() << "regenerated golden at " << goldenPath();
  }

  std::ifstream In(goldenPath(), std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden file " << goldenPath()
                         << "; run with BIGFOOT_REGEN_GOLDEN=1";
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Golden = Buf.str();

  // Compare line-by-line so a mismatch reports the first divergence
  // instead of dumping two multi-megabyte strings.
  std::vector<std::string> Got = splitLines(Text);
  std::vector<std::string> Want = splitLines(Golden);
  size_t N = std::min(Got.size(), Want.size());
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Got[I], Want[I]) << "first divergence at line " << (I + 1);
  ASSERT_EQ(Got.size(), Want.size())
      << "line counts differ (got " << Got.size() << ", golden "
      << Want.size() << ")";
}

//===----------------------------------------------------------------------===
// AST walker vs compiled bytecode: the two execution modes of the VM must
// agree on *everything* observable — status, output, scheduler step count,
// every counter, tool and oracle racy-location sets, race reports, and the
// whole event stream with the oracle's per-access events, captured as BFT1
// bytes (which pins down the interleaving itself, not just its outcome).
// Same coverage grid as the golden test: every workload and racy variant
// × six configs × three seeds.
//===----------------------------------------------------------------------===

TEST(BytecodeEquivalence, MatchesAstWalkerEverywhere) {
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  for (Workload &W : racyVariants())
    Suite.push_back(std::move(W));
  for (const Workload &W : Suite) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    std::vector<InstrumentedProgram> Configs = allSixConfigs(*PR.Prog);
    for (const InstrumentedProgram &IP : Configs) {
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        VmOptions Opts;
        Opts.Seed = Seed;
        Opts.EnableGroundTruth = true;
        Opts.UseBytecode = false;
        VmResult Ast, Bc;
        std::vector<uint8_t> AstStream =
            test::encodedRun(*IP.Prog, &IP.Tool, Opts, Ast);
        Opts.UseBytecode = true;
        std::vector<uint8_t> BcStream =
            test::encodedRun(*IP.Prog, &IP.Tool, Opts, Bc);

        std::string Tag =
            W.Name + "/" + IP.Tool.Name + "/seed" + std::to_string(Seed);
        EXPECT_EQ(Ast.Ok, Bc.Ok) << Tag;
        EXPECT_EQ(Ast.Error, Bc.Error) << Tag;
        EXPECT_EQ(Ast.Output, Bc.Output) << Tag;
        EXPECT_EQ(Ast.StatementsExecuted, Bc.StatementsExecuted) << Tag;
        EXPECT_EQ(Ast.Counters.all(), Bc.Counters.all()) << Tag;
        EXPECT_EQ(Ast.ToolRacyLocations, Bc.ToolRacyLocations) << Tag;
        EXPECT_EQ(Ast.GroundTruthRacyLocations, Bc.GroundTruthRacyLocations)
            << Tag;
        ASSERT_EQ(Ast.ToolRaces.size(), Bc.ToolRaces.size()) << Tag;
        for (size_t I = 0; I < Ast.ToolRaces.size(); ++I)
          EXPECT_EQ(Ast.ToolRaces[I].str(), Bc.ToolRaces[I].str())
              << Tag << " race " << I;
        ASSERT_TRUE(AstStream == BcStream)
            << Tag << ": event streams differ at byte "
            << test::firstDifference(AstStream, BcStream) << " of "
            << AstStream.size() << " (ast) / " << BcStream.size() << " (bc)";
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Incremental-census audit: shadowBytes()/shadowLocationCount() are O(1)
// counters maintained across every shadow mutation; the audit variants
// recompute by walking all state. They must agree at every point, for
// every configuration, across every kind of shadow transition (epoch
// promotion to read sets, coarse→grid→fine array refinement, footprint
// accumulation, commit, early commit).
//===----------------------------------------------------------------------===

void expectCensusAgreement(RaceDetector &D, const std::string &Where) {
  EXPECT_EQ(D.shadowBytes(), D.auditShadowBytes()) << Where;
  EXPECT_EQ(D.shadowLocationCount(), D.auditShadowLocationCount()) << Where;
}

TEST(ShadowCensus, IncrementalCountersMatchFullWalk) {
  std::map<std::string, std::string> Proxies = {
      {"x", "x"}, {"y", "x"}, {"z", "x"}};
  std::vector<DetectorConfig> Configs = {
      fastTrackConfig(),       djitConfig(),
      redCardConfig(Proxies),  slimStateConfig(),
      slimCardConfig(Proxies), bigFootConfig(Proxies)};

  for (const DetectorConfig &Cfg : Configs) {
    Stats Counters;
    RaceDetector D(Cfg, Counters);
    FieldId Group[3] = {D.internField("x"), D.internField("y"),
                        D.internField("z")};
    std::string Tag = "config=" + Cfg.Name;

    // Field shadows, including epoch → read-set promotion via a second
    // reader thread, and an unordered write (possible race + shrink back
    // to a write epoch).
    for (ObjectId Obj = 1; Obj <= 8; ++Obj) {
      D.checkFields(0, Obj, Group, 3, AccessKind::Read);
      D.checkFields(1, Obj, Group, 3, AccessKind::Read);
      D.checkFields(1, Obj, Group, 1, AccessKind::Write);
    }
    expectCensusAgreement(D, Tag + " after field checks");

    // Volatiles and locks grow the HB-state clock maps.
    D.onVolatileWrite(0, 5, Group[0]);
    D.onVolatileRead(1, 5, Group[0]);
    D.onAcquire(0, 77);
    D.onRelease(0, 77);
    expectCensusAgreement(D, Tag + " after sync ops");

    // Array shadows: whole-array, strided (coarse→grid), and scattered
    // singletons (grid→fine); deferred configs accumulate footprints and
    // the singleton loop crosses the early-commit fragment threshold.
    D.onArrayAlloc(1, 1024);
    D.checkArrayRange(0, 1, StridedRange(0, 1024), AccessKind::Write);
    D.checkArrayRange(0, 1, StridedRange(0, 512, 4), AccessKind::Read);
    for (int64_t I = 1; I < 512; I += 7)
      D.checkArrayRange(1, 1, StridedRange::singleton(I), AccessKind::Write);
    expectCensusAgreement(D, Tag + " after array checks");

    // Commit any pending footprints, then thread lifecycle events.
    D.onRelease(1, 78);
    D.onFork(0, 2);
    D.checkFields(2, 3, Group, 2, AccessKind::Write);
    D.onJoin(0, 2);
    D.onThreadExit(2);
    expectCensusAgreement(D, Tag + " after commit and join");
  }
}

} // namespace
