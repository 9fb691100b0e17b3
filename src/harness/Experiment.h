//===- Experiment.h - The Section 6 experiment driver -----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs (workload × detector) experiments and gathers the measurements
/// behind Table 1, Table 2, Figure 2, and Figure 8: check ratios (check
/// events / heap accesses, split by fields and arrays), wall-clock
/// overhead over the uninstrumented base run, peak shadow memory, and
/// StaticBF analysis time. Overheads come from rotated rounds
/// (timeRounds), one run of every leg per round.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_HARNESS_EXPERIMENT_H
#define BIGFOOT_HARNESS_EXPERIMENT_H

#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace bigfoot {

/// Per-detector measurements on one workload.
struct ToolMetrics {
  std::string Tool;
  double CheckRatio = 0;      ///< check events / heap accesses.
  double FieldCheckRatio = 0; ///< field check events / heap accesses.
  double ArrayCheckRatio = 0; ///< array check events / heap accesses.
  double Seconds = 0;         ///< median instrumented run time.
  double OverheadX = 0;       ///< overheadOf(run times, base run times).
  /// overheadAboveNoise(run times, base run times): only then does a
  /// ratio over OverheadX mean something.
  bool OverheadAboveNoise = false;
  uint64_t ShadowOps = 0;
  uint64_t Races = 0;
  uint64_t PeakShadowBytes = 0;
  uint64_t PeakShadowLocations = 0;
};

/// All measurements for one workload.
struct ExperimentResult {
  std::string Workload;
  double BaseSeconds = 0; ///< median base run time.
  uint64_t Accesses = 0;
  uint64_t FieldAccesses = 0;
  uint64_t ArrayAccesses = 0;
  uint64_t BaseHeapBytes = 0;
  double StaticSeconds = 0;   ///< BigFoot placement time.
  unsigned MethodsProcessed = 0;
  unsigned BigFootChecks = 0; ///< check statements BigFoot materialized.
  /// One per kToolNames entry (instrument/Instrumenters.h), in order.
  std::vector<ToolMetrics> Tools;

  const ToolMetrics &tool(const std::string &Name) const;
};

/// Experiment knobs.
struct ExperimentOptions {
  int Iterations = 3; ///< Timed rounds (timeRounds); 0 skips wall-clock
                      ///< timing entirely (counters, ratios, and shadow
                      ///< memory are still measured).
  uint64_t Seed = 1;
  /// Worker threads for the untimed reference runs (0 = one per hardware
  /// thread). A workload's cells share its one parsed program, which no
  /// run writes, and each writes a pre-assigned slot; timed rounds stay
  /// serial on the quiesced pool afterwards — so Jobs changes neither the
  /// results nor their order, only the wall-clock spent.
  unsigned Jobs = 0;
  /// Threads that apply each run's tool detector (VmOptions::DetectShards):
  /// 0 = inline, 1 = one detector thread, N >= 2 = location-partitioned
  /// lanes. Counters, races, and ratios are byte-identical for every count.
  size_t DetectShards = 0;
};

/// Runs the base and all six detector configs on one workload: runSuite
/// over a suite of one.
ExperimentResult runExperiment(const Workload &W,
                               const ExperimentOptions &Opts =
                                   ExperimentOptions());

/// Runs the whole suite. Each (workload × leg) cell — the base run or one
/// detector config — executes once, untimed, on the Jobs pool; that run
/// fills the counters and is the leg's reference outcome. Iterations > 0
/// then times every workload's legs with timeRounds.
std::vector<ExperimentResult>
runSuite(SuiteScale Scale,
         const ExperimentOptions &Opts = ExperimentOptions());

/// One leg of a timed comparison: the base run, a detector config or an
/// ablation variant.
struct TimedLeg {
  std::string Name;
  std::function<VmResult()> Run; ///< One deterministic run of the leg.
  VmResult Reference;            ///< What every timed run must reproduce.
};

/// Runs every leg once per round for \p Rounds rounds, serially; round R
/// starts at leg R mod N, so the order rotates by one each round and each
/// leg takes every position of a round in turn. Returns
/// Seconds[leg][round].
/// Aborts, naming \p Workload, the leg and the round, when a timed run's
/// status, output, racy locations or counters differ from the leg's
/// Reference.
std::vector<std::vector<double>> timeRounds(const std::string &Workload,
                                            const std::vector<TimedLeg> &Legs,
                                            int Rounds);

/// The median of \p Values (the mean of the middle two for an even
/// count); 0 for none.
double medianOf(std::vector<double> Values);

/// A leg's overhead over the base run: the median over rounds of
/// LegSeconds[R] / BaseSeconds[R], minus 1. Each leg run is divided by the
/// base run of its own round, so drift between rounds cancels.
double overheadOf(const std::vector<double> &LegSeconds,
                  const std::vector<double> &BaseSeconds);

/// True when there were at least three rounds, the leg ran longer than the
/// base run of its own round in every one of them, and its overhead
/// (overheadOf) is more than twice the distance between the quartiles of
/// the rounds' leg / base ratios. From one run to the next a median ratio
/// moves by about that distance (EXPERIMENTS.md, Figure 8), so an
/// overhead within twice of it is too close to zero to divide by.
bool overheadAboveNoise(const std::vector<double> &LegSeconds,
                        const std::vector<double> &BaseSeconds);

/// The geometric mean of \p Values, which must not be negative (a zero
/// makes it zero); 1 for an empty list. Table 2 takes it of shadow-space
/// ratios, meanOverhead of slowdowns.
double geomean(const std::vector<double> &Values);

/// The mean of per-workload overheads, as every paper table prints it:
/// the geometric mean of the slowdowns (1 + overhead), minus 1; 0 for an
/// empty list. A detector run no slower than its base (overhead <= 0,
/// which noise can produce) counts as the slowdown it is.
double meanOverhead(const std::vector<double> &Overheads);

/// BigFoot's overhead relative to FastTrack's: \p Overhead over
/// \p FastTrackOverhead, or 1 when FastTrack's is at most 1e-9 (as with
/// no timed rounds). For the suite from meanOverhead; per workload only
/// where FastTrack's ToolMetrics::OverheadAboveNoise holds.
double relativeOverhead(double Overhead, double FastTrackOverhead);

/// Parses --small/--iters=N/--seed=N/--jobs=N/--detect-shards=N, the
/// command-line options shared by the bench binaries. Numbers are strict
/// decimals (support/ParseNumber.h). An unknown option or a malformed
/// value prints "<argv0>: error: ..." and exits with status 1.
struct BenchArgs {
  SuiteScale Scale = SuiteScale::Bench;
  ExperimentOptions Opts;
};
BenchArgs parseBenchArgs(int Argc, char **Argv);

} // namespace bigfoot

#endif // BIGFOOT_HARNESS_EXPERIMENT_H
