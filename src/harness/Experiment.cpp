//===- Experiment.cpp - The Section 6 experiment driver ---------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// Measurement is split into two phases so the suite can use every core
// without contaminating its numbers:
//
//   1. Counters (check ratios, shadow ops, races, peak shadow memory,
//      static placement stats) come from untimed runs. In replay mode
//      (the default) this is record-once/replay-many: the six detector
//      configs share only three distinct check placements (SlimState
//      rides FastTrack's, SlimCard rides RedCard's, DJIT+ rides
//      FastTrack's), so each workload executes once per placement with a
//      TraceWriter on the event stream and every config is then replayed
//      offline from the recorded trace — 3 executions + 6 replays instead
//      of 6 instrumented executions, with bytewise-identical results
//      (detectors are passive consumers; the harness test enforces the
//      identity). --no-replay falls back to one execution per config.
//      Cells are independent — each parses its own Program (the VM
//      re-interns the AST at attach, so jobs must not share one) and
//      writes only its pre-assigned slot — and are distributed over a
//      fixed pool of ExperimentOptions::Jobs threads, with a barrier
//      between the record wave and the replay wave. The result vector is
//      identical for any Jobs value, including 1.
//
//   2. Wall-clock timing (BaseSeconds, per-tool Seconds/OverheadX) runs
//      afterwards, serially, best-of-N on the quiesced pool, exactly as
//      the serial driver always did. Iterations == 0 skips this phase for
//      counter-only consumers (e.g. the memory and check-ratio tables).
//
// Both phases are deterministic given the seed, so phase 1's counters are
// the counters a timed run would have produced.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "bfj/Parser.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "support/ParseNumber.h"
#include "support/Timer.h"
#include "vm/Vm.h"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include <sys/stat.h>

using namespace bigfoot;

const ToolMetrics &ExperimentResult::tool(const std::string &Name) const {
  for (const ToolMetrics &M : Tools)
    if (M.Tool == Name)
      return M;
  std::fprintf(stderr, "no metrics for tool '%s'\n", Name.c_str());
  std::abort();
}

namespace {

/// fasttrack, redcard, slimstate, slimcard, bigfoot, djit — the fixed
/// Tools order (djit is an extra baseline beyond the paper's five).
constexpr int kNumTools = 6;
constexpr int kBigFootIdx = 4;

/// The six configs share three distinct placements. kPlacementTool names
/// the representative instrumenter per placement; kToolPlacement maps
/// each tool to the placement whose trace it replays.
constexpr int kNumPlacements = 3;
constexpr int kPlacementTool[kNumPlacements] = {0, 1, kBigFootIdx};
constexpr int kToolPlacement[kNumTools] = {0, 1, 0, 1, 2, 0};
constexpr const char *kPlacementName[kNumPlacements] = {"fasttrack",
                                                        "redcard", "bigfoot"};

/// One workload's recorded traces, indexed by placement.
using PlacementTraces = std::array<std::vector<uint8_t>, kNumPlacements>;

/// The detector config tool \p ToolIdx replays a trace under. Proxy maps
/// are placement properties, so they come from the recorded config.
DetectorConfig replayConfigFor(int ToolIdx, const DetectorConfig &Recorded) {
  switch (ToolIdx) {
  case 0:
    return fastTrackConfig();
  case 1:
    return redCardConfig(Recorded.FieldProxy);
  case 2:
    return slimStateConfig();
  case 3:
    return slimCardConfig(Recorded.FieldProxy);
  case kBigFootIdx:
    return bigFootConfig(Recorded.FieldProxy);
  default:
    return djitConfig();
  }
}

VmOptions vmOptionsFor(const ExperimentOptions &Opts) {
  VmOptions VmOpts;
  VmOpts.Seed = Opts.Seed;
  VmOpts.CheckFilter = Opts.CheckFilter;
  VmOpts.DetectShards = Opts.DetectShards;
  return VmOpts;
}

ParseResult parseWorkload(const Workload &W) {
  ParseResult PR = parseProgram(W.Source);
  if (!PR.ok()) {
    std::fprintf(stderr, "workload %s failed to parse: %s\n", W.Name.c_str(),
                 PR.Error.c_str());
    std::abort();
  }
  return PR;
}

InstrumentedProgram instrumentFor(const Program &Prog, int ToolIdx) {
  switch (ToolIdx) {
  case 0:
    return instrumentFastTrack(Prog);
  case 1:
    return instrumentRedCard(Prog);
  case 2:
    return instrumentSlimState(Prog);
  case 3:
    return instrumentSlimCard(Prog);
  case kBigFootIdx:
    return instrumentBigFoot(Prog);
  default: {
    // DJIT+ (vector clocks everywhere) on the per-access placement.
    InstrumentedProgram Djit = instrumentFastTrack(Prog);
    Djit.Tool = djitConfig();
    return Djit;
  }
  }
}

/// Best-of-N timed run; returns the last result (all runs are
/// deterministic given the seed, so any result is representative).
template <typename RunFn>
std::pair<double, decltype(std::declval<RunFn>()())> timedBest(int Iterations,
                                                               RunFn Run) {
  double Best = 1e100;
  decltype(Run()) Last;
  for (int I = 0; I < Iterations; ++I) {
    Timer T;
    Last = Run();
    double Sec = T.seconds();
    if (Sec < Best)
      Best = Sec;
    if (!Last.Ok)
      break;
  }
  return {Best, std::move(Last)};
}

/// Phase-1 cell: the base (uninstrumented) run's access and heap
/// counters. Writes only the base fields of \p Out.
void measureBase(const Workload &W, const ExperimentOptions &Opts,
                 ExperimentResult &Out) {
  ParseResult PR = parseWorkload(W);
  VmOptions VmOpts = vmOptionsFor(Opts);
  VmResult Run = runProgramBase(*PR.Prog, VmOpts);
  if (!Run.Ok) {
    std::fprintf(stderr, "workload %s failed: %s\n", W.Name.c_str(),
                 Run.Error.c_str());
    std::abort();
  }
  Out.Accesses = Run.Counters.get("vm.accesses");
  Out.FieldAccesses = Run.Counters.get("vm.accesses.field");
  Out.ArrayAccesses = Run.Counters.get("vm.accesses.array");
  Out.BaseHeapBytes = Run.Counters.get("vm.heapBytes");
}

/// Counter extraction shared by the executed and the replayed paths —
/// both produce the same RunResult, so metrics fill identically.
void fillToolMetrics(ToolMetrics &M, const std::string &ToolName,
                     const RunResult &Run) {
  M.Tool = ToolName;
  const Stats &Counters = Run.Counters;
  uint64_t FieldEvents = Counters.get("tool.checkEvents.field");
  uint64_t ArrayEvents = Counters.get("tool.checkEvents.array");
  uint64_t Accesses = Counters.get("vm.accesses");
  if (Accesses > 0) {
    M.CheckRatio =
        static_cast<double>(FieldEvents + ArrayEvents) / Accesses;
    M.FieldCheckRatio = static_cast<double>(FieldEvents) / Accesses;
    M.ArrayCheckRatio = static_cast<double>(ArrayEvents) / Accesses;
  }
  M.ShadowOps = Counters.get("tool.shadowOps");
  M.Races = Counters.get("tool.races");
  M.PeakShadowBytes = Counters.get("tool.peakShadowBytes");
  M.PeakShadowLocations = Counters.get("tool.peakShadowLocations");
  M.FilterTableBytes = Run.FilterTableBytes;
}

/// Phase-1 cell: one instrumented configuration's counters, measured by
/// executing it. Writes only Out.Tools[ToolIdx] (pre-sized by the
/// caller) and, for BigFoot, the static placement stats.
void measureTool(const Workload &W, const ExperimentOptions &Opts,
                 int ToolIdx, ExperimentResult &Out) {
  ParseResult PR = parseWorkload(W);
  InstrumentedProgram IP = instrumentFor(*PR.Prog, ToolIdx);
  if (ToolIdx == kBigFootIdx) {
    Out.StaticSeconds = IP.Placement.AnalysisSeconds;
    Out.MethodsProcessed = IP.Placement.MethodsProcessed;
    Out.BigFootChecks = IP.Placement.ChecksInserted;
  }
  VmOptions VmOpts = vmOptionsFor(Opts);
  VmResult Run = runProgram(*IP.Prog, IP.Tool, VmOpts);
  if (!Run.Ok) {
    std::fprintf(stderr, "workload %s under %s failed: %s\n", W.Name.c_str(),
                 IP.Tool.Name.c_str(), Run.Error.c_str());
    std::abort();
  }
  fillToolMetrics(Out.Tools[static_cast<size_t>(ToolIdx)], IP.Tool.Name,
                  Run);
}

/// Record-wave cell: execute one placement with a TraceWriter on the
/// event stream and no detector attached. The VM still executes the
/// placed checks, so the run's vm.* counters, output, and schedule are
/// exactly those of a detector-attached run.
void measureRecord(const Workload &W, const ExperimentOptions &Opts,
                   int Placement, ExperimentResult &Out,
                   std::vector<uint8_t> &TraceBytes) {
  ParseResult PR = parseWorkload(W);
  InstrumentedProgram IP = instrumentFor(*PR.Prog, kPlacementTool[Placement]);
  if (kPlacementTool[Placement] == kBigFootIdx) {
    Out.StaticSeconds = IP.Placement.AnalysisSeconds;
    Out.MethodsProcessed = IP.Placement.MethodsProcessed;
    Out.BigFootChecks = IP.Placement.ChecksInserted;
  }
  IP.Prog->internSymbols(); // Idempotent; the trace header needs the table.
  TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
  VmOptions VmOpts = vmOptionsFor(Opts);
  VmOpts.RecordSink = &Writer;
  VmResult Run = runProgramBase(*IP.Prog, VmOpts);
  if (!Run.Ok) {
    std::fprintf(stderr, "workload %s recording %s failed: %s\n",
                 W.Name.c_str(), IP.Tool.Name.c_str(), Run.Error.c_str());
    std::abort();
  }
  Writer.finish(summaryOf(Run));
  TraceBytes = Writer.buffer();
  if (!Opts.RecordDir.empty()) {
    ::mkdir(Opts.RecordDir.c_str(), 0777); // EEXIST is fine; races are too.
    std::string Path = Opts.RecordDir + "/" + W.Name + "." +
                       kPlacementName[Placement] + ".bft";
    if (!Writer.writeFile(Path))
      std::fprintf(stderr, "warning: could not write trace %s\n",
                   Path.c_str());
  }
}

/// Counter phase, replay mode: fills one tool's metrics slot by
/// replaying the trace of the placement it shares. Each call opens its
/// own reader and builds its own detectors, so calls for different tools
/// or workloads run in parallel freely.
void measureReplay(const Workload &W, const PlacementTraces &Traces,
                   const ExperimentOptions &Opts, int ToolIdx,
                   ExperimentResult &Out) {
  const std::vector<uint8_t> &Trace =
      Traces[static_cast<size_t>(kToolPlacement[ToolIdx])];
  TraceReader Reader;
  Reader.open(Trace.data(), Trace.size()); // replayTrace reports failure.
  ReplayOptions ROpts;
  ROpts.CheckFilter = Opts.CheckFilter;
  ROpts.DetectShards = Opts.DetectShards;
  ReplayResult Run = replayTrace(
      Reader, replayConfigFor(ToolIdx, Reader.config()), ROpts);
  if (!Run.Ok) {
    std::fprintf(stderr, "workload %s replay under %s failed: %s\n",
                 W.Name.c_str(), Run.Tool.c_str(), Run.Error.c_str());
    std::abort();
  }
  fillToolMetrics(Out.Tools[static_cast<size_t>(ToolIdx)], Run.Tool, Run);
}

/// Runs Fn(0..Count) over a fixed pool of \p Jobs threads (0 = one per
/// hardware thread). Work items must be independent and write disjoint
/// state; completion order never affects results.
void forEachParallel(size_t Count, unsigned JobsOpt,
                     const std::function<void(size_t)> &Fn) {
  size_t Jobs = JobsOpt ? JobsOpt : std::thread::hardware_concurrency();
  if (Jobs < 1)
    Jobs = 1;
  Jobs = std::min(Jobs, Count);
  if (Jobs <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Fn(I);
    return;
  }
  // Atomic-index pool: each worker claims the next unstarted item, so a
  // slow cell never serializes the rest behind a static partition.
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  Pool.reserve(Jobs);
  for (size_t J = 0; J < Jobs; ++J)
    Pool.emplace_back([&] {
      for (size_t I = Next.fetch_add(1); I < Count; I = Next.fetch_add(1))
        Fn(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// Phase 2: best-of-N wall-clock timing for one workload (base plus every
/// configuration). Serial by design — call only on a quiesced pool.
void timeWorkload(const Workload &W, const ExperimentOptions &Opts,
                  ExperimentResult &Out) {
  ParseResult PR = parseWorkload(W);
  const Program &Prog = *PR.Prog;
  VmOptions VmOpts = vmOptionsFor(Opts);

  auto [BaseSec, BaseRun] = timedBest(Opts.Iterations, [&Prog, &VmOpts] {
    return runProgramBase(Prog, VmOpts);
  });
  if (!BaseRun.Ok) {
    std::fprintf(stderr, "workload %s failed: %s\n", W.Name.c_str(),
                 BaseRun.Error.c_str());
    std::abort();
  }
  Out.BaseSeconds = BaseSec;

  for (int T = 0; T < kNumTools; ++T) {
    InstrumentedProgram IP = instrumentFor(Prog, T);
    auto [ToolSec, Run] = timedBest(Opts.Iterations, [&IP, &VmOpts] {
      return runProgram(*IP.Prog, IP.Tool, VmOpts);
    });
    if (!Run.Ok) {
      std::fprintf(stderr, "workload %s under %s failed: %s\n",
                   W.Name.c_str(), IP.Tool.Name.c_str(), Run.Error.c_str());
      std::abort();
    }
    ToolMetrics &M = Out.Tools[static_cast<size_t>(T)];
    M.Seconds = ToolSec;
    M.OverheadX = Out.BaseSeconds > 0
                      ? (ToolSec - Out.BaseSeconds) / Out.BaseSeconds
                      : 0;
  }
}

} // namespace

ExperimentResult bigfoot::runExperiment(const Workload &W,
                                        const ExperimentOptions &Opts) {
  ExperimentResult Out;
  Out.Workload = W.Name;
  Out.Tools.resize(kNumTools);
  measureBase(W, Opts, Out);
  PlacementTraces Traces;
  if (Opts.UseReplay) {
    for (int P = 0; P < kNumPlacements; ++P)
      measureRecord(W, Opts, P, Out, Traces[static_cast<size_t>(P)]);
    // The six replays are independent detector rebuilds; shard them.
    forEachParallel(kNumTools, Opts.Jobs, [&](size_t T) {
      measureReplay(W, Traces, Opts, static_cast<int>(T), Out);
    });
  } else {
    for (int T = 0; T < kNumTools; ++T)
      measureTool(W, Opts, T, Out);
  }
  if (Opts.Iterations > 0)
    timeWorkload(W, Opts, Out);
  return Out;
}

std::vector<ExperimentResult>
bigfoot::runSuite(SuiteScale Scale, const ExperimentOptions &Opts) {
  std::vector<Workload> Suite = standardSuite(Scale);
  std::vector<ExperimentResult> Out(Suite.size());
  for (size_t I = 0; I < Suite.size(); ++I) {
    Out[I].Workload = Suite[I].Name;
    Out[I].Tools.resize(kNumTools);
  }

  // Phase 1. Every cell writes a disjoint part of its workload's
  // pre-sized result, so workers never contend and order never depends on
  // scheduling.
  std::vector<PlacementTraces> Traces;
  if (Opts.UseReplay) {
    // Wave 1: base + one recording per distinct placement (4 executions
    // per workload). Wave 2 (after the barrier): replay all six configs
    // from the in-memory traces.
    Traces.resize(Suite.size());
    struct RecCell {
      size_t W;
      int Placement; ///< -1 = base.
    };
    std::vector<RecCell> Wave1;
    Wave1.reserve(Suite.size() * (kNumPlacements + 1));
    for (size_t I = 0; I < Suite.size(); ++I) {
      Wave1.push_back({I, -1});
      for (int P = 0; P < kNumPlacements; ++P)
        Wave1.push_back({I, P});
    }
    forEachParallel(Wave1.size(), Opts.Jobs, [&](size_t I) {
      const RecCell &C = Wave1[I];
      if (C.Placement < 0)
        measureBase(Suite[C.W], Opts, Out[C.W]);
      else
        measureRecord(Suite[C.W], Opts, C.Placement, Out[C.W],
                      Traces[C.W][static_cast<size_t>(C.Placement)]);
    });
    // Wave 2 is one flat parallel replay: every (workload × tool) cell
    // replays its placement's trace independently into its own slot, so
    // the output is identical for any thread count.
    forEachParallel(Suite.size() * kNumTools, Opts.Jobs, [&](size_t I) {
      size_t W = I / kNumTools;
      measureReplay(Suite[W], Traces[W], Opts, static_cast<int>(I % kNumTools),
                    Out[W]);
    });
  } else {
    struct Cell {
      size_t W;
      int Tool; ///< -1 = base.
    };
    std::vector<Cell> Cells;
    Cells.reserve(Suite.size() * (kNumTools + 1));
    for (size_t I = 0; I < Suite.size(); ++I) {
      Cells.push_back({I, -1});
      for (int T = 0; T < kNumTools; ++T)
        Cells.push_back({I, T});
    }
    forEachParallel(Cells.size(), Opts.Jobs, [&](size_t I) {
      const Cell &C = Cells[I];
      if (C.Tool < 0)
        measureBase(Suite[C.W], Opts, Out[C.W]);
      else
        measureTool(Suite[C.W], Opts, C.Tool, Out[C.W]);
    });
  }

  // Phase 2: wall-clock timing on the now-quiesced pool.
  if (Opts.Iterations > 0)
    for (size_t I = 0; I < Suite.size(); ++I)
      timeWorkload(Suite[I], Opts, Out[I]);
  return Out;
}

double bigfoot::geomeanOverhead(const std::vector<double> &Overheads) {
  if (Overheads.empty())
    return 0;
  double LogSum = 0;
  for (double V : Overheads)
    LogSum += std::log(V > 0.001 ? V : 0.001);
  return std::exp(LogSum / static_cast<double>(Overheads.size()));
}

BenchArgs bigfoot::parseBenchArgs(int Argc, char **Argv) {
  BenchArgs Args;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const char *V = nullptr;
    auto Valued = [&](const char *Name) {
      size_t N = std::strlen(Name);
      if (std::strncmp(Arg, Name, N) != 0)
        return false;
      V = Arg + N;
      return true;
    };
    auto Is = [&](const char *Name) { return std::strcmp(Arg, Name) == 0; };
    const char *Expected = nullptr; // Set when the value is malformed.
    if (Is("--small")) {
      Args.Scale = SuiteScale::Test;
    } else if (Valued("--iters=")) {
      if (!parseNumber(V, Args.Opts.Iterations))
        Expected = "a non-negative integer";
    } else if (Valued("--seed=")) {
      if (!parseNumber(V, Args.Opts.Seed))
        Expected = "a non-negative integer";
    } else if (Valued("--jobs=")) {
      if (!parseNumber(V, Args.Opts.Jobs))
        Expected = "a non-negative integer";
    } else if (Is("--replay")) {
      Args.Opts.UseReplay = true;
    } else if (Is("--no-replay")) {
      Args.Opts.UseReplay = false;
    } else if (Valued("--record-dir=")) {
      Args.Opts.RecordDir = V;
    } else if (Valued("--detect-shards=")) {
      std::optional<size_t> Lanes = parseLaneCount(V);
      if (Lanes)
        Args.Opts.DetectShards = *Lanes;
      else
        Expected = "a lane count from 0 to 64";
    } else if (Is("--no-check-filter")) {
      Args.Opts.CheckFilter = false;
    } else {
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Argv[0], Arg);
      std::exit(1);
    }
    if (Expected) {
      std::fprintf(stderr, "%s: error: %s: expected %s\n", Argv[0], Arg,
                   Expected);
      std::exit(1);
    }
  }
  return Args;
}
