//===- InternEquivalenceTest.cpp - Golden behavior and stream tests -------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Two golden tests over one grid: every workload (standard suite at Test
// scale plus the racy variants) × all six detector configurations × three
// scheduler seeds, and a third over the static placements alone.
//
// intern_equivalence.golden is the differential regression test for the
// symbol-interning / flat-shadow refactor: the externally visible behavior
// — run status, VM output, the sorted set of racy location keys, and every
// counter — must be byte-identical to the golden captured from the
// string-keyed seed implementation.
//
// The single excluded counter is tool.peakShadowBytes: it measures the
// *size of the shadow representation itself*, which the interning refactor
// deliberately shrinks (Table 2's accounting follows the representation).
// tool.peakShadowLocations stays included — interning must not change how
// many shadow locations exist, only how they are keyed.
//
// event_streams.golden pins the VM's schedule: one row per run with its
// step count and the size and digest of its whole event stream (see the
// test below).
//
// placements.golden pins the static placement itself, at Test and Bench
// scale, including checks on paths no run executes (see the test below).
//
// entailment.golden pins the entailment work behind that placement and the
// H • A contexts it derives, at the same scales (see the test below).
//
// Regenerate any of them (only legitimate when intentionally changing
// detector semantics, the scheduler or the placement) with:
//   BIGFOOT_REGEN_GOLDEN=1 ./test_intern_equivalence
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "runtime/Detector.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

using namespace bigfoot;

namespace {

#ifndef BIGFOOT_TEST_DIR
#error "BIGFOOT_TEST_DIR must be defined by the build"
#endif

std::string goldenPath(const char *Name) {
  return std::string(BIGFOOT_TEST_DIR) + "/runtime/golden/" + Name;
}

/// Calls \p F(Workload, Config, Seed) for every cell of the golden grid:
/// each workload (the standard suite at Test scale plus the racy
/// variants) × six configs × seeds 1..3.
template <typename Fn> void forEachGoldenRun(Fn &&F) {
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
    for (const char *Name : kToolNames) {
      InstrumentedProgram IP = *instrumentNamed(*PR.Prog, Name);
      for (uint64_t Seed = 1; Seed <= 3; ++Seed)
        F(W, IP, Seed);
    }
  }
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

/// The FNV-1a digest of \p Text as 16 hex digits.
std::string hexDigest(const std::string &Text) {
  char Digest[17];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(test::streamDigest(
                    std::vector<uint8_t>(Text.begin(), Text.end()))));
  return Digest;
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

/// Compares \p Text with the golden file \p Name line by line, so a
/// mismatch reports the first divergence instead of dumping two large
/// strings; with BIGFOOT_REGEN_GOLDEN set, rewrites the file instead.
void expectMatchesGolden(const std::string &Text, const char *Name) {
  std::string Path = goldenPath(Name);
  if (std::getenv("BIGFOOT_REGEN_GOLDEN")) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Text;
    GTEST_SKIP() << "regenerated golden at " << Path;
  }

  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << "; run with BIGFOOT_REGEN_GOLDEN=1";
  std::stringstream Buf;
  Buf << In.rdbuf();

  std::vector<std::string> Got = splitLines(Text);
  std::vector<std::string> Want = splitLines(Buf.str());
  size_t N = std::min(Got.size(), Want.size());
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Got[I], Want[I]) << Name << ": first divergence at line "
                               << (I + 1);
  ASSERT_EQ(Got.size(), Want.size())
      << Name << ": line counts differ (got " << Got.size() << ", golden "
      << Want.size() << ")";
}

TEST(InternEquivalence, BehaviorMatchesStringKeyedGolden) {
  std::ostringstream Out;
  forEachGoldenRun([&](const Workload &W, const InstrumentedProgram &IP,
                       uint64_t Seed) {
    VmOptions Opts;
    Opts.Seed = Seed;
    renderRun(Out, W.Name, IP.Tool.Name, Seed,
              runProgram(*IP.Prog, IP.Tool, Opts));
  });
  expectMatchesGolden(Out.str(), "intern_equivalence.golden");
}

//===----------------------------------------------------------------------===
// Event-stream golden: the VM's schedule, pinned as data. Every cell of the
// grid above runs with the ground-truth oracle on, so the stream carries
// every heap access as well as every check and sync edge, in order; the
// row records the run's scheduler step count and the size and FNV-1a
// digest of its BFT1 encoding (common/RecordedRun.h), which ends with the
// run's status, output and vm.* counters. Two runs with equal rows agree
// on the interleaving itself, not just on its outcome, and, since the
// detectors only consume the stream, on every report derived from it.
//===----------------------------------------------------------------------===

TEST(EventStreamGolden, RunsMatchRecordedStreams) {
  std::ostringstream Out;
  forEachGoldenRun([&](const Workload &W, const InstrumentedProgram &IP,
                       uint64_t Seed) {
    VmOptions Opts;
    Opts.Seed = Seed;
    Opts.EnableGroundTruth = true;
    VmResult Run;
    std::vector<uint8_t> Stream =
        test::encodedRun(*IP.Prog, &IP.Tool, Opts, Run);
    char Digest[17];
    std::snprintf(Digest, sizeof(Digest), "%016llx",
                  static_cast<unsigned long long>(test::streamDigest(Stream)));
    Out << W.Name << " " << IP.Tool.Name << " seed=" << Seed
        << " steps=" << Run.StatementsExecuted << " bytes=" << Stream.size()
        << " fnv1a64=" << Digest << "\n";
  });
  expectMatchesGolden(Out.str(), "event_streams.golden");
}

//===----------------------------------------------------------------------===
// Placement golden: the static half of the pipeline, pinned as data. One row
// per standard-suite workload at Test and Bench scale for the two analyses
// that reason with entailment (BigFoot's StaticBF and RedCard's redundancy
// pass): the checks, paths and renames inserted and the FNV-1a digest of
// the printed instrumented program. It covers Bench scale and checks on
// paths no golden run executes, which event_streams.golden cannot see.
//===----------------------------------------------------------------------===

TEST(PlacementGolden, InstrumentedProgramsMatchRecordedPlacements) {
  std::ostringstream Out;
  for (SuiteScale Scale : {SuiteScale::Test, SuiteScale::Bench}) {
    const char *ScaleName = Scale == SuiteScale::Test ? "test" : "bench";
    for (const Workload &W : standardSuite(Scale)) {
      ParseResult PR = parseProgram(W.Source);
      ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
      std::vector<InstrumentedProgram> Placed;
      Placed.push_back(instrumentBigFoot(*PR.Prog));
      Placed.push_back(instrumentRedCard(*PR.Prog));
      for (const InstrumentedProgram &IP : Placed)
        Out << W.Name << " " << ScaleName << " " << IP.Tool.Name
            << " checks=" << IP.Placement.ChecksInserted
            << " paths=" << IP.Placement.PathsInserted
            << " renames=" << IP.Placement.RenamesInserted
            << " fnv1a64=" << hexDigest(printProgram(*IP.Prog)) << "\n";
    }
  }
  expectMatchesGolden(Out.str(), "placements.golden");
}

//===----------------------------------------------------------------------===
// Entailment golden: the reasoning behind the placement, pinned as data.
// One row per standard-suite workload at Test and Bench scale: BigFoot's
// entailment counts (H ⊢ h queries, constraint systems prepared,
// Fourier-Motzkin refutations) and the FNV-1a digest of its TraceContexts
// dump, every H • A context as `bigfoot --contexts` prints it. The dump
// shows each fact's terms in order, so a change to term order or to a
// derived fact shows up here even when the printed program, which is all
// placements.golden sees, stays the same.
//===----------------------------------------------------------------------===

TEST(EntailmentGolden, CountsAndContextsMatchRecordedPlacements) {
  std::ostringstream Out;
  for (SuiteScale Scale : {SuiteScale::Test, SuiteScale::Bench}) {
    const char *ScaleName = Scale == SuiteScale::Test ? "test" : "bench";
    for (const Workload &W : standardSuite(Scale)) {
      ParseResult PR = parseProgram(W.Source);
      ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
      const EntailmentCounts Counts =
          instrumentBigFoot(*PR.Prog).Placement.Entailment;
      PlacementOptions Opts;
      Opts.TraceContexts = true;
      std::unique_ptr<Program> Traced = PR.Prog->clone();
      PlacementStats Stats = placeBigFootChecks(*Traced, Opts);
      std::string Dump;
      for (const auto &[Id, Ctx] : Stats.ContextAfter)
        Dump += "#" + std::to_string(Id) + ": " + Ctx + "\n";
      Out << W.Name << " " << ScaleName << " queries=" << Counts.Queries
          << " systems=" << Counts.Systems
          << " refutations=" << Counts.Refutations
          << " contexts=" << Stats.ContextAfter.size()
          << " fnv1a64=" << hexDigest(Dump) << "\n";
    }
  }
  expectMatchesGolden(Out.str(), "entailment.golden");
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
