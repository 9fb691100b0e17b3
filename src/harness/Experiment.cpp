//===- Experiment.cpp - The Section 6 experiment driver ---------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// Measurement is split into two phases so the suite can use every core
// without contaminating its numbers:
//
//   1. Reference runs. Every (workload × leg) cell — the base run or one
//      of the six detector configs — executes once, untimed, on a fixed
//      pool of ExperimentOptions::Jobs threads. That run fills the cell's
//      counters (check ratios, shadow ops, races, peak shadow memory,
//      static placement stats) and becomes the leg's reference outcome.
//      Each workload is parsed once; its seven cells share that Program
//      on any job thread, because neither the instrumenters (which clone
//      it) nor the VM write a program. A cell writes only its
//      pre-assigned slot, so the result vector is identical for any Jobs
//      value, including 1.
//
//   2. Timed rounds (Iterations > 0). On the quiesced pool, timeRounds
//      runs each workload's seven legs once per round, serially, in an
//      order rotated by one each round, and checks every run against its
//      leg's reference. A leg's overhead is the median over rounds of its
//      time over the same round's base time (overheadOf).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "bfj/Parser.h"
#include "instrument/Instrumenters.h"
#include "support/ParseNumber.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

using namespace bigfoot;

const ToolMetrics &ExperimentResult::tool(const std::string &Name) const {
  for (const ToolMetrics &M : Tools)
    if (M.Tool == Name)
      return M;
  std::fprintf(stderr, "no metrics for tool '%s'\n", Name.c_str());
  std::abort();
}

namespace {

/// A workload's legs: the base run, then one per kToolNames entry.
constexpr size_t kNumLegs = 1 + kToolNames.size();

std::shared_ptr<const Program> parseWorkload(const Workload &W) {
  ParseResult PR = parseProgram(W.Source);
  if (!PR.ok()) {
    std::fprintf(stderr, "workload %s failed to parse: %s\n", W.Name.c_str(),
                 PR.Error.c_str());
    std::abort();
  }
  return std::move(PR.Prog);
}

/// Counter extraction from a detector config's reference run.
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
}

/// Phase-1 cell: builds leg \p Leg of \p W (0 = base, 1 + T =
/// kToolNames[T]) from \p Prog, the workload's one parsed program, runs
/// it once as its reference, and fills the leg's part of \p Out: the
/// base fields, or Out.Tools[T] plus, for BigFoot, the static placement
/// stats. The leg holds its program, so timed rounds rerun exactly what
/// ran here.
TimedLeg measureLeg(const Workload &W, std::shared_ptr<const Program> Prog,
                    const ExperimentOptions &Opts, size_t Leg,
                    ExperimentResult &Out) {
  VmOptions VmOpts;
  VmOpts.Seed = Opts.Seed;
  VmOpts.DetectShards = Opts.DetectShards;
  TimedLeg L;
  if (Leg == 0) {
    L.Name = "base";
    L.Run = [Prog, VmOpts] { return runProgramBase(*Prog, VmOpts); };
  } else {
    L.Name = kToolNames[Leg - 1];
    InstrumentedProgram IP = *instrumentNamed(*Prog, L.Name);
    if (L.Name == "bigfoot") {
      Out.StaticSeconds = IP.Placement.AnalysisSeconds;
      Out.MethodsProcessed = IP.Placement.MethodsProcessed;
      Out.BigFootChecks = IP.Placement.ChecksInserted;
    }
    Prog = std::move(IP.Prog);
    L.Run = [Prog, Tool = std::move(IP.Tool), VmOpts] {
      return runProgram(*Prog, Tool, VmOpts);
    };
  }
  L.Reference = L.Run();
  if (!L.Reference.Ok) {
    std::fprintf(stderr, "workload %s, leg %s failed: %s\n", W.Name.c_str(),
                 L.Name.c_str(), L.Reference.Error.c_str());
    std::abort();
  }
  const Stats &Counters = L.Reference.Counters;
  if (Leg == 0) {
    Out.Accesses = Counters.get("vm.accesses");
    Out.FieldAccesses = Counters.get("vm.accesses.field");
    Out.ArrayAccesses = Counters.get("vm.accesses.array");
    Out.BaseHeapBytes = Counters.get("vm.heapBytes");
  } else {
    fillToolMetrics(Out.Tools[Leg - 1], L.Name, L.Reference);
  }
  return L;
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

/// runExperiment and runSuite: both phases over \p Suite.
std::vector<ExperimentResult> runWorkloads(const std::vector<Workload> &Suite,
                                           const ExperimentOptions &Opts) {
  std::vector<ExperimentResult> Out(Suite.size());
  std::vector<std::vector<TimedLeg>> Legs(Suite.size(),
                                          std::vector<TimedLeg>(kNumLegs));
  std::vector<std::shared_ptr<const Program>> Parsed(Suite.size());
  for (size_t I = 0; I < Suite.size(); ++I) {
    Out[I].Workload = Suite[I].Name;
    Out[I].Tools.resize(kToolNames.size());
    Parsed[I] = parseWorkload(Suite[I]);
  }

  // Phase 1. Every cell writes a disjoint part of its workload's
  // pre-sized result and its own leg slot, so workers never contend and
  // order never depends on scheduling.
  forEachParallel(Suite.size() * kNumLegs, Opts.Jobs, [&](size_t C) {
    size_t W = C / kNumLegs;
    Legs[W][C % kNumLegs] =
        measureLeg(Suite[W], Parsed[W], Opts, C % kNumLegs, Out[W]);
  });

  // Phase 2: timed rounds on the now-quiesced pool.
  if (Opts.Iterations > 0)
    for (size_t I = 0; I < Suite.size(); ++I) {
      std::vector<std::vector<double>> Seconds =
          timeRounds(Suite[I].Name, Legs[I], Opts.Iterations);
      Out[I].BaseSeconds = medianOf(Seconds[0]);
      for (size_t T = 0; T < kToolNames.size(); ++T) {
        ToolMetrics &M = Out[I].Tools[T];
        M.Seconds = medianOf(Seconds[T + 1]);
        M.OverheadX = overheadOf(Seconds[T + 1], Seconds[0]);
        M.OverheadAboveNoise = overheadAboveNoise(Seconds[T + 1], Seconds[0]);
      }
    }
  return Out;
}

/// The first part of \p Run that differs from \p Ref, or null.
const char *firstDifference(const RunResult &Ref, const RunResult &Run) {
  if (Run.Ok != Ref.Ok || Run.Error != Ref.Error)
    return "status";
  if (Run.Output != Ref.Output)
    return "output";
  if (Run.ToolRacyLocations != Ref.ToolRacyLocations)
    return "racy locations";
  if (Run.Counters.all() != Ref.Counters.all())
    return "counters";
  return nullptr;
}

} // namespace

ExperimentResult bigfoot::runExperiment(const Workload &W,
                                        const ExperimentOptions &Opts) {
  return runWorkloads({W}, Opts).front();
}

std::vector<ExperimentResult>
bigfoot::runSuite(SuiteScale Scale, const ExperimentOptions &Opts) {
  return runWorkloads(standardSuite(Scale), Opts);
}

std::vector<std::vector<double>>
bigfoot::timeRounds(const std::string &Workload,
                    const std::vector<TimedLeg> &Legs, int Rounds) {
  size_t N = Legs.size();
  std::vector<std::vector<double>> Seconds(
      N, std::vector<double>(static_cast<size_t>(std::max(Rounds, 0))));
  for (int R = 0; R < Rounds; ++R)
    for (size_t K = 0; K < N; ++K) {
      size_t L = (static_cast<size_t>(R) + K) % N;
      Timer T;
      VmResult Run = Legs[L].Run();
      Seconds[L][static_cast<size_t>(R)] = T.seconds();
      if (const char *What = firstDifference(Legs[L].Reference, Run)) {
        std::fprintf(stderr,
                     "workload %s, leg %s, round %d: the timed run differs "
                     "from the reference run in its %s\n",
                     Workload.c_str(), Legs[L].Name.c_str(), R, What);
        std::abort();
      }
    }
  return Seconds;
}

double bigfoot::medianOf(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid] : (Values[Mid - 1] + Values[Mid]) / 2;
}

double bigfoot::overheadOf(const std::vector<double> &LegSeconds,
                           const std::vector<double> &BaseSeconds) {
  std::vector<double> Ratios;
  for (size_t R = 0; R < LegSeconds.size() && R < BaseSeconds.size(); ++R)
    if (BaseSeconds[R] > 0)
      Ratios.push_back(LegSeconds[R] / BaseSeconds[R]);
  return Ratios.empty() ? 0 : medianOf(std::move(Ratios)) - 1;
}

bool bigfoot::overheadAboveNoise(const std::vector<double> &LegSeconds,
                                 const std::vector<double> &BaseSeconds) {
  if (LegSeconds.size() < 3 || LegSeconds.size() != BaseSeconds.size())
    return false;
  std::vector<double> Ratios;
  for (size_t R = 0; R < LegSeconds.size(); ++R) {
    if (BaseSeconds[R] <= 0 || LegSeconds[R] <= BaseSeconds[R])
      return false;
    Ratios.push_back(LegSeconds[R] / BaseSeconds[R]);
  }
  // The quartiles are the medians of the lower and upper halves, each
  // holding the middle round when the count is odd (Tukey's hinges).
  std::sort(Ratios.begin(), Ratios.end());
  auto Half = static_cast<ptrdiff_t>((Ratios.size() + 1) / 2);
  double Lower =
      medianOf(std::vector<double>(Ratios.begin(), Ratios.begin() + Half));
  double Upper =
      medianOf(std::vector<double>(Ratios.end() - Half, Ratios.end()));
  return medianOf(Ratios) - 1 > 2 * (Upper - Lower);
}

double bigfoot::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 1;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double bigfoot::meanOverhead(const std::vector<double> &Overheads) {
  std::vector<double> Slowdowns;
  for (double O : Overheads)
    Slowdowns.push_back(1 + O);
  return geomean(Slowdowns) - 1;
}

double bigfoot::relativeOverhead(double Overhead, double FastTrackOverhead) {
  return FastTrackOverhead > 1e-9 ? Overhead / FastTrackOverhead : 1.0;
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
    const char *Expected = nullptr; // Set when the value is malformed.
    if (std::strcmp(Arg, "--small") == 0) {
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
    } else if (Valued("--detect-shards=")) {
      std::optional<size_t> Lanes = parseLaneCount(V);
      if (Lanes)
        Args.Opts.DetectShards = *Lanes;
      else
        Expected = "a lane count from 0 to 64";
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
