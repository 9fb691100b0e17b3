//===- HarnessTest.cpp - Experiment driver and support utility tests ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "harness/Experiment.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

using namespace bigfoot;

namespace {

/// Everything but the timings of \p A and \p B must agree.
void expectSameCounters(const ExperimentResult &A, const ExperimentResult &B) {
  EXPECT_EQ(A.Workload, B.Workload);
  EXPECT_EQ(A.Accesses, B.Accesses) << A.Workload;
  EXPECT_EQ(A.FieldAccesses, B.FieldAccesses) << A.Workload;
  EXPECT_EQ(A.ArrayAccesses, B.ArrayAccesses) << A.Workload;
  EXPECT_EQ(A.BaseHeapBytes, B.BaseHeapBytes) << A.Workload;
  EXPECT_EQ(A.BigFootChecks, B.BigFootChecks) << A.Workload;
  EXPECT_EQ(A.MethodsProcessed, B.MethodsProcessed) << A.Workload;
  ASSERT_EQ(A.Tools.size(), B.Tools.size()) << A.Workload;
  for (size_t T = 0; T < A.Tools.size(); ++T) {
    std::string Tag = A.Workload + "/" + A.Tools[T].Tool;
    EXPECT_EQ(A.Tools[T].Tool, B.Tools[T].Tool) << Tag;
    EXPECT_EQ(A.Tools[T].ShadowOps, B.Tools[T].ShadowOps) << Tag;
    EXPECT_EQ(A.Tools[T].Races, B.Tools[T].Races) << Tag;
    EXPECT_EQ(A.Tools[T].PeakShadowBytes, B.Tools[T].PeakShadowBytes) << Tag;
    EXPECT_EQ(A.Tools[T].PeakShadowLocations, B.Tools[T].PeakShadowLocations)
        << Tag;
    EXPECT_DOUBLE_EQ(A.Tools[T].CheckRatio, B.Tools[T].CheckRatio) << Tag;
    EXPECT_DOUBLE_EQ(A.Tools[T].FieldCheckRatio, B.Tools[T].FieldCheckRatio)
        << Tag;
    EXPECT_DOUBLE_EQ(A.Tools[T].ArrayCheckRatio, B.Tools[T].ArrayCheckRatio)
        << Tag;
  }
}

} // namespace

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
  // Iterations = 0 skips the timed rounds, so everything measured is
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
  for (size_t I = 0; I < A.size(); ++I)
    expectSameCounters(A[I], B[I]);
}

TEST(Harness, TimedRoundsKeepTheReferenceCounters) {
  // Timing reruns every leg; it must time each one and change no counter.
  Workload W = workloadByName("crypt", SuiteScale::Test);
  ExperimentOptions Untimed;
  Untimed.Iterations = 0;
  ExperimentOptions Timed = Untimed;
  Timed.Iterations = 2;
  ExperimentResult A = runExperiment(W, Untimed);
  ExperimentResult B = runExperiment(W, Timed);
  expectSameCounters(A, B);
  EXPECT_EQ(A.BaseSeconds, 0.0);
  EXPECT_GT(B.BaseSeconds, 0.0);
  for (const ToolMetrics &M : B.Tools)
    EXPECT_GT(M.Seconds, 0.0) << M.Tool;
}

TEST(Harness, TimeRoundsRotatesTheLegOrder) {
  auto Prog = parseProgramOrDie("thread { x = 1; }");
  std::string Order;
  std::vector<TimedLeg> Legs;
  for (const char *Name : {"a", "b", "c"}) {
    TimedLeg L;
    L.Name = Name;
    L.Run = [&Order, &Prog, Name] {
      Order += Name;
      return runProgramBase(*Prog);
    };
    L.Reference = runProgramBase(*Prog);
    Legs.push_back(std::move(L));
  }
  std::vector<std::vector<double>> Seconds = timeRounds("w", Legs, 4);
  EXPECT_EQ(Order, "abcbcacababc");
  ASSERT_EQ(Seconds.size(), 3u);
  for (const std::vector<double> &Leg : Seconds) {
    ASSERT_EQ(Leg.size(), 4u);
    for (double S : Leg)
      EXPECT_GT(S, 0.0);
  }
}

TEST(Harness, TimeRoundsStopsOnARunUnlikeItsReference) {
  // A timed run that prints another line than the leg's reference run
  // aborts the measurement, naming the workload, the leg and the round.
  std::shared_ptr<Program> One = parseProgramOrDie("thread { print 1; }");
  std::shared_ptr<Program> Two = parseProgramOrDie("thread { print 2; }");
  auto Calls = std::make_shared<int>(0);
  TimedLeg Base;
  Base.Name = "base";
  Base.Run = [One] { return runProgramBase(*One); };
  Base.Reference = Base.Run();
  TimedLeg Flaky;
  Flaky.Name = "flaky";
  Flaky.Run = [One, Two, Calls] {
    return runProgramBase(++*Calls == 1 ? *One : *Two);
  };
  Flaky.Reference = Flaky.Run();
  ASSERT_EQ(Flaky.Reference.Output, std::vector<std::string>{"1"});
  EXPECT_DEATH(timeRounds("sor", {Base, Flaky}, 3),
               "workload sor, leg flaky, round 0: .* in its output");
}

TEST(Harness, OverheadPairsEachLegRunWithItsOwnRoundsBase) {
  // Per-round ratios 2, 3 and 2: median 2, so the overhead is 1.0. A
  // ratio of medians (3 / 1) would give 2.0.
  EXPECT_DOUBLE_EQ(overheadOf({2, 3, 10}, {1, 1, 5}), 1.0);
  EXPECT_DOUBLE_EQ(overheadOf({1.5}, {1}), 0.5);
  EXPECT_DOUBLE_EQ(overheadOf({}, {}), 0.0);
}

TEST(Harness, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(medianOf({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(medianOf({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(medianOf({7}), 7.0);
  EXPECT_DOUBLE_EQ(medianOf({}), 0.0);
}

TEST(Harness, MeanOverheadIsTheGeomeanOfSlowdowns) {
  // Slowdowns 1 and 4: their geomean is 2.
  EXPECT_NEAR(meanOverhead({0.0, 3.0}), 1.0, 1e-9);
  // A run faster than its base is a slowdown below 1, not a clamp:
  // 0.5 and 2 cancel.
  EXPECT_NEAR(meanOverhead({-0.5, 1.0}), 0.0, 1e-9);
  EXPECT_EQ(meanOverhead({}), 0.0);
  // sqrt(0.99 * 2) - 1, printed 0.41; clamping -0.01 at 0.001 would
  // give sqrt(0.001) = 0.03.
  EXPECT_NEAR(meanOverhead({-0.01, 1.0}), std::sqrt(1.98) - 1, 1e-9);
  EXPECT_EQ(TablePrinter::num(meanOverhead({-0.01, 1.0}), 2), "0.41");
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_EQ(geomean({}), 1.0);
  // BF/FT: a ratio of means, and 1 where FastTrack's mean is zero (no
  // timed rounds), never nan.
  EXPECT_DOUBLE_EQ(relativeOverhead(0.3, 0.6), 0.5);
  EXPECT_EQ(relativeOverhead(0.0, 0.0), 1.0);
  EXPECT_EQ(relativeOverhead(meanOverhead({0, 0}), meanOverhead({0, 0})),
            1.0);
}

TEST(Harness, RowBfOverFtNeedsFastTrackAboveNoise) {
  // A workload's BF/FT divides by FastTrack's overhead, so its table cell
  // prints a ratio only when that overhead is above noise: at least three
  // rounds, each slower than the base run of its own round, and an
  // overhead more than twice the distance between the quartiles of the
  // rounds' ratios (the medians of the lower and upper halves, each with
  // the middle round when the count is odd).
  EXPECT_TRUE(overheadAboveNoise({3, 3.2, 3.4}, {1, 1, 1}));
  EXPECT_TRUE(overheadAboveNoise({1.3, 1.4, 1.3, 1.35}, {1, 1, 1, 1}));
  // One slow round moves neither quartile of five.
  EXPECT_TRUE(overheadAboveNoise({1.5, 1.5, 3, 1.5, 1.5}, {1, 1, 1, 1, 1}));
  // Rounds pair up with their own base run, not another round's.
  EXPECT_TRUE(overheadAboveNoise({4, 2, 6}, {2, 1, 3}));
  EXPECT_FALSE(overheadAboveNoise({2, 3}, {1, 1}));
  EXPECT_FALSE(overheadAboveNoise({2, 1, 4}, {1, 1, 1}));
  EXPECT_FALSE(overheadAboveNoise({2, 3, 0.5}, {1, 1, 1}));
  EXPECT_FALSE(overheadAboveNoise({2, 3, 4}, {1, 0, 1}));
  EXPECT_FALSE(overheadAboveNoise({}, {}));
  // Slower every round, but the quartiles 1.2 and 1.8 are 0.6 apart and
  // the overhead is 0.5.
  EXPECT_FALSE(overheadAboveNoise({1.1, 1.9, 1.5, 1.2, 1.8}, {1, 1, 1, 1, 1}));
  // series at Bench scale, in one of 30 measured sets of five rounds:
  // FastTrack slower in all five, by 1.3%, with quartiles 1.008 and 1.020.
  EXPECT_FALSE(overheadAboveNoise({1.020, 1.022, 1.002, 1.008, 1.013},
                                  {1, 1, 1, 1, 1}));
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
  // A malformed number stops the bench binary with a message instead of
  // running some other configuration ("abc" is not 0 iterations, "-1" is
  // not 2^32-1 jobs).
  for (const char *Bad : {"--iters=abc", "--iters=-1", "--iters=", "--jobs=-1",
                          "--jobs=2x", "--seed=x", "--seed=-3"}) {
    const char *BadArgv[] = {"prog", Bad};
    EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(BadArgv)),
                ::testing::ExitedWithCode(1), "prog: error: .*expected")
        << Bad;
  }
  // And any unknown option: a typo must not run with the setting
  // unchanged.
  // --no-check-filter is gone with the dynamic check filter, the replay
  // knobs with the record/replay counters phase, and --detect-shards
  // with the benches' lane runs (the bigfoot CLI keeps its own).
  for (const char *Bad : {"--no-checkfilter", "--ast", "--workload=sor",
                          "--iters", "extra", "--async-detect",
                          "--no-check-filter", "--replay", "--no-replay",
                          "--record-dir=D", "--detect-shards=1"}) {
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
