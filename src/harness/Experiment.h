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
/// StaticBF analysis time.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_HARNESS_EXPERIMENT_H
#define BIGFOOT_HARNESS_EXPERIMENT_H

#include "workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bigfoot {

/// Per-detector measurements on one workload.
struct ToolMetrics {
  std::string Tool;
  double CheckRatio = 0;      ///< check events / heap accesses.
  double FieldCheckRatio = 0; ///< field check events / heap accesses.
  double ArrayCheckRatio = 0; ///< array check events / heap accesses.
  double Seconds = 0;         ///< best-of-N instrumented run time.
  double OverheadX = 0;       ///< (Seconds - Base) / Base.
  uint64_t ShadowOps = 0;
  uint64_t Races = 0;
  uint64_t PeakShadowBytes = 0;
  uint64_t PeakShadowLocations = 0;
};

/// All measurements for one workload.
struct ExperimentResult {
  std::string Workload;
  double BaseSeconds = 0;
  uint64_t Accesses = 0;
  uint64_t FieldAccesses = 0;
  uint64_t ArrayAccesses = 0;
  uint64_t BaseHeapBytes = 0;
  double StaticSeconds = 0;   ///< BigFoot placement time.
  unsigned MethodsProcessed = 0;
  unsigned BigFootChecks = 0; ///< check statements BigFoot materialized.
  std::vector<ToolMetrics> Tools; ///< fasttrack, redcard, slimstate,
                                  ///< slimcard, bigfoot, djit — in that
                                  ///< order (djit is an extra baseline).

  const ToolMetrics &tool(const std::string &Name) const;
};

/// Experiment knobs.
struct ExperimentOptions {
  int Iterations = 3; ///< Timed repetitions; the minimum is reported.
                      ///< 0 skips wall-clock timing entirely (counters,
                      ///< ratios, and shadow memory are still measured).
  uint64_t Seed = 1;
  /// Worker threads for the measurement phase of runSuite (0 = one per
  /// hardware thread). Every (workload × config) cell runs on its own
  /// freshly parsed program and writes a pre-assigned slot, and timing
  /// runs stay serial on the quiesced pool afterwards — so Jobs changes
  /// neither the results nor their order, only the wall-clock spent.
  unsigned Jobs = 0;
  /// Record-once/replay-many counters phase: execute each workload only
  /// under its three distinct placements (FastTrack, RedCard, BigFoot),
  /// recording the event stream, then replay all six detector configs
  /// offline from those traces — 3 executions + 6 replays instead of 6
  /// instrumented executions. Results are bytewise identical either way
  /// (the harness test enforces it).
  bool UseReplay = true;
  /// When non-empty, recorded traces are also written into this directory
  /// as <workload>.<placement>.bft (replay mode only; parseBenchArgs
  /// rejects it beside --no-replay).
  std::string RecordDir;
  /// Threads that apply each run's tool detector (VmOptions::DetectShards):
  /// 0 = inline, 1 = one detector thread, N >= 2 = location-partitioned
  /// lanes. Applies to execution and replay legs alike. Counters, races,
  /// and ratios are byte-identical for every count.
  size_t DetectShards = 0;
};

/// Runs all five detectors (plus the base) on one workload.
ExperimentResult runExperiment(const Workload &W,
                               const ExperimentOptions &Opts =
                                   ExperimentOptions());

/// Runs the whole suite.
std::vector<ExperimentResult>
runSuite(SuiteScale Scale,
         const ExperimentOptions &Opts = ExperimentOptions());

/// Geometric mean of (1 + overhead) minus 1... the paper reports geomean
/// of overheads directly; zero/negative overheads are clamped to a small
/// positive epsilon as is conventional.
double geomeanOverhead(const std::vector<double> &Overheads);

/// Parses --small/--iters=N/--seed=N/--jobs=N/--replay/--no-replay/
/// --record-dir=DIR/--detect-shards=N, the command-line options shared
/// by the bench binaries. Numbers are strict decimals
/// (support/ParseNumber.h). An unknown option, a malformed value, or
/// --record-dir under a final --no-replay (only replay records) prints
/// "<argv0>: error: ..." and exits with status 1.
struct BenchArgs {
  SuiteScale Scale = SuiteScale::Bench;
  ExperimentOptions Opts;
};
BenchArgs parseBenchArgs(int Argc, char **Argv);

} // namespace bigfoot

#endif // BIGFOOT_HARNESS_EXPERIMENT_H
