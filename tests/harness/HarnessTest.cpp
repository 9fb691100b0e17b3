//===- HarnessTest.cpp - Experiment driver and support utility tests ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/ShardedSink.h"
#include "harness/Experiment.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace bigfoot;

TEST(Harness, RunsOneWorkloadEndToEnd) {
  Workload W = workloadByName("tomcat", SuiteScale::Test);
  ExperimentOptions Opts;
  Opts.Iterations = 1;
  ExperimentResult R = runExperiment(W, Opts);
  ASSERT_EQ(R.Tools.size(), 6u); // Five paper tools + djit.
  EXPECT_GT(R.Accesses, 0u);
  EXPECT_GT(R.MethodsProcessed, 0u);

  const ToolMetrics &Ft = R.tool("fasttrack");
  const ToolMetrics &Bf = R.tool("bigfoot");
  // FastTrack checks every access by definition.
  EXPECT_NEAR(Ft.CheckRatio, 1.0, 1e-9);
  // BigFoot moves and coalesces: strictly fewer events.
  EXPECT_LT(Bf.CheckRatio, Ft.CheckRatio);
  // Nothing races in the suite programs.
  for (const ToolMetrics &M : R.Tools)
    EXPECT_EQ(M.Races, 0u) << M.Tool;
  // Ratios decompose into the array/field split.
  EXPECT_NEAR(Ft.CheckRatio, Ft.FieldCheckRatio + Ft.ArrayCheckRatio, 1e-9);
}

TEST(Harness, CheckRatioOrderingAcrossTools) {
  // RedCard eliminates a subset of FastTrack's checks; BigFoot at most
  // RedCard's count. (SlimState shares FastTrack's placement.)
  Workload W = workloadByName("batik", SuiteScale::Test);
  ExperimentOptions Opts;
  Opts.Iterations = 1;
  ExperimentResult R = runExperiment(W, Opts);
  EXPECT_LE(R.tool("redcard").CheckRatio, R.tool("fasttrack").CheckRatio);
  EXPECT_NEAR(R.tool("slimstate").CheckRatio,
              R.tool("fasttrack").CheckRatio, 1e-9);
  EXPECT_LE(R.tool("bigfoot").CheckRatio, R.tool("redcard").CheckRatio);
}

TEST(Harness, ShadowOpsNeverExceedFastTrackOnCompressedTools) {
  Workload W = workloadByName("crypt", SuiteScale::Test);
  ExperimentOptions Opts;
  Opts.Iterations = 1;
  ExperimentResult R = runExperiment(W, Opts);
  EXPECT_LT(R.tool("bigfoot").ShadowOps, R.tool("fasttrack").ShadowOps);
  EXPECT_LE(R.tool("bigfoot").PeakShadowBytes,
            R.tool("fasttrack").PeakShadowBytes);
}

TEST(Harness, SuiteResultsIdenticalAcrossJobCounts) {
  // Iterations = 0 skips the wall-clock phase, so everything measured is
  // deterministic; serial and 4-way parallel runs must agree exactly, in
  // the same order.
  ExperimentOptions Serial;
  Serial.Iterations = 0;
  Serial.Jobs = 1;
  ExperimentOptions Parallel = Serial;
  Parallel.Jobs = 4;
  std::vector<ExperimentResult> A = runSuite(SuiteScale::Test, Serial);
  std::vector<ExperimentResult> B = runSuite(SuiteScale::Test, Parallel);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Workload, B[I].Workload);
    EXPECT_EQ(A[I].Accesses, B[I].Accesses);
    EXPECT_EQ(A[I].BaseHeapBytes, B[I].BaseHeapBytes);
    EXPECT_EQ(A[I].BigFootChecks, B[I].BigFootChecks);
    EXPECT_EQ(A[I].MethodsProcessed, B[I].MethodsProcessed);
    ASSERT_EQ(A[I].Tools.size(), B[I].Tools.size());
    for (size_t T = 0; T < A[I].Tools.size(); ++T) {
      EXPECT_EQ(A[I].Tools[T].Tool, B[I].Tools[T].Tool);
      EXPECT_EQ(A[I].Tools[T].ShadowOps, B[I].Tools[T].ShadowOps);
      EXPECT_EQ(A[I].Tools[T].Races, B[I].Tools[T].Races);
      EXPECT_EQ(A[I].Tools[T].PeakShadowBytes,
                B[I].Tools[T].PeakShadowBytes);
      EXPECT_EQ(A[I].Tools[T].PeakShadowLocations,
                B[I].Tools[T].PeakShadowLocations);
      EXPECT_DOUBLE_EQ(A[I].Tools[T].CheckRatio, B[I].Tools[T].CheckRatio);
    }
  }
}

TEST(Harness, ReplaySuiteMatchesDirectExecution) {
  // The record-once/replay-many counters phase (3 recorded placements +
  // 6 offline replays per workload) must be bytewise indistinguishable
  // from running all 6 detectors inline.
  ExperimentOptions Direct;
  Direct.Iterations = 0;
  Direct.Jobs = 1;
  Direct.UseReplay = false;
  ExperimentOptions Replayed = Direct;
  Replayed.UseReplay = true;
  std::vector<ExperimentResult> A = runSuite(SuiteScale::Test, Direct);
  std::vector<ExperimentResult> B = runSuite(SuiteScale::Test, Replayed);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Workload, B[I].Workload);
    EXPECT_EQ(A[I].Accesses, B[I].Accesses);
    EXPECT_EQ(A[I].FieldAccesses, B[I].FieldAccesses);
    EXPECT_EQ(A[I].ArrayAccesses, B[I].ArrayAccesses);
    EXPECT_EQ(A[I].BaseHeapBytes, B[I].BaseHeapBytes);
    EXPECT_EQ(A[I].BigFootChecks, B[I].BigFootChecks);
    ASSERT_EQ(A[I].Tools.size(), B[I].Tools.size());
    for (size_t T = 0; T < A[I].Tools.size(); ++T) {
      std::string Tag = A[I].Workload + "/" + A[I].Tools[T].Tool;
      EXPECT_EQ(A[I].Tools[T].Tool, B[I].Tools[T].Tool) << Tag;
      EXPECT_EQ(A[I].Tools[T].ShadowOps, B[I].Tools[T].ShadowOps) << Tag;
      EXPECT_EQ(A[I].Tools[T].Races, B[I].Tools[T].Races) << Tag;
      EXPECT_EQ(A[I].Tools[T].PeakShadowBytes, B[I].Tools[T].PeakShadowBytes)
          << Tag;
      EXPECT_EQ(A[I].Tools[T].PeakShadowLocations,
                B[I].Tools[T].PeakShadowLocations)
          << Tag;
      EXPECT_DOUBLE_EQ(A[I].Tools[T].CheckRatio, B[I].Tools[T].CheckRatio)
          << Tag;
      EXPECT_DOUBLE_EQ(A[I].Tools[T].FieldCheckRatio,
                       B[I].Tools[T].FieldCheckRatio)
          << Tag;
      EXPECT_DOUBLE_EQ(A[I].Tools[T].ArrayCheckRatio,
                       B[I].Tools[T].ArrayCheckRatio)
          << Tag;
    }
  }
}

TEST(Harness, OneLaneMatchesInlineCounters) {
  // --detect-shards=1 moves detection to another thread but must not
  // change a single measured number. No-replay mode so every tool
  // actually runs with its detector attached (replay-mode counters never
  // attach one).
  Workload W = workloadByName("tomcat", SuiteScale::Test);
  ExperimentOptions Inline;
  Inline.Iterations = 0;
  Inline.UseReplay = false;
  ExperimentOptions OneLane = Inline;
  OneLane.DetectShards = 1;
  ExperimentResult A = runExperiment(W, Inline);
  ExperimentResult B = runExperiment(W, OneLane);
  ASSERT_EQ(A.Tools.size(), B.Tools.size());
  for (size_t T = 0; T < A.Tools.size(); ++T) {
    const std::string &Tag = A.Tools[T].Tool;
    EXPECT_EQ(A.Tools[T].Tool, B.Tools[T].Tool) << Tag;
    EXPECT_EQ(A.Tools[T].ShadowOps, B.Tools[T].ShadowOps) << Tag;
    EXPECT_EQ(A.Tools[T].Races, B.Tools[T].Races) << Tag;
    EXPECT_EQ(A.Tools[T].PeakShadowBytes, B.Tools[T].PeakShadowBytes) << Tag;
    EXPECT_EQ(A.Tools[T].PeakShadowLocations, B.Tools[T].PeakShadowLocations)
        << Tag;
    EXPECT_DOUBLE_EQ(A.Tools[T].CheckRatio, B.Tools[T].CheckRatio) << Tag;
  }
}

TEST(Harness, GeomeanOverheadBehaves) {
  EXPECT_NEAR(geomeanOverhead({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(geomeanOverhead({3.0}), 3.0, 1e-9);
  // Non-positive entries clamp instead of blowing up.
  EXPECT_GT(geomeanOverhead({-0.5, 1.0}), 0.0);
  EXPECT_EQ(geomeanOverhead({}), 0.0);
}

TEST(Harness, BenchArgsParsing) {
  const char *Argv[] = {"prog", "--small", "--iters=7", "--seed=42",
                        "--jobs=3"};
  BenchArgs Args = parseBenchArgs(5, const_cast<char **>(Argv));
  EXPECT_EQ(Args.Scale, SuiteScale::Test);
  EXPECT_EQ(Args.Opts.Iterations, 7);
  EXPECT_EQ(Args.Opts.Seed, 42u);
  EXPECT_EQ(Args.Opts.Jobs, 3u);
  BenchArgs Defaults = parseBenchArgs(1, const_cast<char **>(Argv));
  EXPECT_EQ(Defaults.Scale, SuiteScale::Bench);
  EXPECT_EQ(Defaults.Opts.Jobs, 0u);
  // --iters=0 is a legitimate counters-only request, not clamped.
  const char *Zero[] = {"prog", "--iters=0"};
  EXPECT_EQ(parseBenchArgs(2, const_cast<char **>(Zero)).Opts.Iterations, 0);
  // Replay knobs: on by default, --no-replay disables, --replay re-enables,
  // --record-dir= captures the trace directory.
  EXPECT_TRUE(Defaults.Opts.UseReplay);
  EXPECT_TRUE(Defaults.Opts.RecordDir.empty());
  const char *NoReplay[] = {"prog", "--no-replay"};
  EXPECT_FALSE(
      parseBenchArgs(2, const_cast<char **>(NoReplay)).Opts.UseReplay);
  const char *Replay[] = {"prog", "--no-replay", "--replay",
                          "--record-dir=/tmp/traces"};
  BenchArgs R = parseBenchArgs(4, const_cast<char **>(Replay));
  EXPECT_TRUE(R.Opts.UseReplay);
  EXPECT_EQ(R.Opts.RecordDir, "/tmp/traces");
  // Lane counts: inline by default; a number sets them.
  EXPECT_EQ(Defaults.Opts.DetectShards, 0u);
  const char *Lanes[] = {"prog", "--detect-shards=3"};
  EXPECT_EQ(parseBenchArgs(2, const_cast<char **>(Lanes)).Opts.DetectShards,
            3u);
  // A lane count parseLaneCount() rejects stops the bench binary with a
  // message instead of running with a wrapped or silently dropped value.
  // "auto" is no count either.
  for (const char *Bad : {"--detect-shards=-1", "--detect-shards=abc",
                          "--detect-shards=65", "--detect-shards=auto"}) {
    const char *BadArgv[] = {"prog", Bad};
    EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(BadArgv)),
                ::testing::ExitedWithCode(1), "--detect-shards")
        << Bad;
  }
  // So does any other malformed number, instead of running some other
  // configuration ("abc" is not 0 iterations, "-1" is not 2^32-1 jobs).
  for (const char *Bad : {"--iters=abc", "--iters=-1", "--iters=", "--jobs=-1",
                          "--jobs=2x", "--seed=x", "--seed=-3"}) {
    const char *BadArgv[] = {"prog", Bad};
    EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(BadArgv)),
                ::testing::ExitedWithCode(1), "prog: error: .*expected")
        << Bad;
  }
  // And any unknown option: a typo must not run with the setting
  // unchanged.
  for (const char *Bad : {"--no-checkfilter", "--ast", "--workload=sor",
                          "--iters", "extra", "--async-detect"}) {
    const char *BadArgv[] = {"prog", Bad};
    EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(BadArgv)),
                ::testing::ExitedWithCode(1), "prog: error: unknown option")
        << Bad;
  }
}

TEST(TablePrinterTest, AlignsColumnsAndHeaderRule) {
  TablePrinter T("demo");
  T.addRow({"Program", "X"});
  T.addRow({"longname", "1.00"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("== demo =="), std::string::npos);
  EXPECT_NE(Out.find("-----"), std::string::npos);
  EXPECT_NE(Out.find("longname"), std::string::npos);
}

TEST(TablePrinterTest, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(-0.5, 1), "-0.5");
  EXPECT_EQ(TablePrinter::ratio(0.391), "(0.39)");
}

TEST(StatsTest, CountersAndGauges) {
  Stats S;
  S.bump("a");
  S.bump("a", 4);
  EXPECT_EQ(S.get("a"), 5u);
  EXPECT_EQ(S.get("missing"), 0u);
  S.gaugeMax("g", 10);
  S.gaugeMax("g", 3);
  EXPECT_EQ(S.get("g"), 10u);
  S.clear();
  EXPECT_EQ(S.get("a"), 0u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer T;
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 2000000; ++I)
    Sink = Sink + static_cast<uint64_t>(I);
  EXPECT_GT(T.seconds(), 0.0);
  T.reset();
  EXPECT_LT(T.seconds(), 1.0);
}
