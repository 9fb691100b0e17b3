//===- bigfoot.cpp - The bigfoot command-line driver --------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The StaticBF + DynamicBF pipeline as a command-line tool:
//
//   bigfoot program.bfj                      # instrument + run + report
//   bigfoot --tool=fasttrack program.bfj     # pick a detector
//   bigfoot --print program.bfj              # show instrumented source
//   bigfoot --contexts program.bfj           # show analysis contexts
//   bigfoot --seed=N --quantum=N ...         # schedule control
//   bigfoot trace record --out=t.bft p.bfj   # record the event stream
//   bigfoot trace replay t.bft               # re-analyze it offline
//   bigfoot trace info t.bft                 # describe a trace file
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"
#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "support/ParseNumber.h"
#include "vm/Vm.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace bigfoot;

namespace {

void usage() {
  std::cerr <<
      R"(usage: bigfoot [options] program.bfj

options:
  --tool=NAME     detector: bigfoot (default), fasttrack, redcard,
                  slimstate, slimcard, djit, none (base run)
  --print         print the instrumented program and exit
  --contexts      print per-statement analysis contexts (H • A) and exit
  --seed=N        scheduler seed (default 1)
  --quantum=N     max statements per scheduling quantum (default 24)
  --commit-interval=N
                  commit deferred footprints every N statements (the
                  Section 3.3 extension; 0 = only at synchronization)
  --async-detect  run the detector on its own thread behind a bounded
                  batch ring (reports stay identical to sync mode; an
                  [async] line shows the vm/detector time split)
  --detect-shards=N
                  fan detection out to N location-partitioned detector
                  workers, 0 to 64 (implies the async pipeline, takes
                  precedence over --async-detect; reports stay
                  byte-identical for every N; [shards] lines show the
                  per-lane split and the shared sync-clock table).
                  N may be "auto": derive the count from the machine's
                  core count (sharding stays off on one core). Also
                  accepted by trace record and trace replay.
  --no-check-filter
                  disable the epoch-stamped redundant-check filter in
                  front of the detector; reports and counters are
                  byte-identical either way, only the [filter] line
                  and the speed change
  --oracle        also run the per-access ground-truth detector
  --stats         dump all counters after the run

trace subcommands (record once, re-analyze offline):
  bigfoot trace record --out=FILE [--tool=NAME] [run options] program.bfj
                  run with a detector attached, recording the event
                  stream to FILE; the report is identical to a plain run
  bigfoot trace replay [--tool=NAME] FILE
                  replay FILE into a fresh detector (default: the
                  recorded config; NAME must share its placement) and
                  print the same report the recording run printed
  bigfoot trace info FILE
                  describe a trace: config, symbols, events, summary
)";
}

std::string readFile(const char *Path);

/// Everything the command line sets, for direct runs and trace
/// subcommands alike.
struct CliArgs {
  std::string ToolName;
  std::string OutPath; ///< trace record only.
  bool PrintOnly = false, Contexts = false, Help = false; ///< Direct only.
  bool Oracle = false, DumpStats = false;
  const char *File = nullptr;
  VmOptions Vm;
};

/// Parses Argv[First, Argc) into \p A. \p Trace selects the trace
/// subcommands' option set. On a bad argument, prints a "bigfoot: error:"
/// line and returns false.
bool parseArgs(int First, int Argc, char **Argv, bool Trace, CliArgs &A) {
  for (int I = First; I < Argc; ++I) {
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
    if (Valued("--tool=")) {
      A.ToolName = V;
    } else if (Trace && Valued("--out=")) {
      A.OutPath = V;
    } else if (!Trace && Is("--print")) {
      A.PrintOnly = true;
    } else if (!Trace && Is("--contexts")) {
      A.Contexts = true;
    } else if (!Trace && (Is("--help") || Is("-h"))) {
      A.Help = true;
    } else if (Is("--oracle")) {
      A.Oracle = true;
    } else if (Is("--stats")) {
      A.DumpStats = true;
    } else if (Valued("--seed=")) {
      if (!parseNumber(V, A.Vm.Seed))
        Expected = "a non-negative integer";
    } else if (Valued("--quantum=")) {
      if (!parseNumber(V, A.Vm.Quantum) || A.Vm.Quantum == 0)
        Expected = "a positive integer";
    } else if (Valued("--commit-interval=")) {
      if (!parseNumber(V, A.Vm.CommitIntervalSteps))
        Expected = "a non-negative integer";
    } else if (Is("--async-detect")) {
      A.Vm.AsyncDetect = true;
    } else if (Valued("--detect-shards=")) {
      std::optional<size_t> Lanes = parseLaneCount(V);
      if (Lanes)
        A.Vm.DetectShards = *Lanes;
      else
        Expected = "auto or a lane count from 0 to 64";
    } else if (Is("--no-check-filter")) {
      A.Vm.CheckFilter = false;
    } else if (Arg[0] == '-') {
      std::cerr << "bigfoot: error: unknown option '" << Arg << "'\n";
      usage();
      return false;
    } else {
      A.File = Arg;
    }
    if (Expected) {
      std::cerr << "bigfoot: error: " << Arg << ": expected " << Expected
                << "\n";
      return false;
    }
  }
  return true;
}

/// The post-run report shared verbatim by execution and replay — the
/// record/replay smoke test diffs the two outputs byte for byte.
int reportRun(const std::string &ToolName, const RunResult &Run, bool Oracle,
              bool DumpStats) {
  for (const std::string &Line : Run.Output)
    std::cout << Line << "\n";
  if (!Run.Ok) {
    std::cerr << "bigfoot: runtime error: " << Run.Error << "\n";
    return 1;
  }
  uint64_t Events = Run.Counters.get("tool.checkEvents.field") +
                    Run.Counters.get("tool.checkEvents.array");
  uint64_t Accesses = Run.Counters.get("vm.accesses");
  std::cerr << "[" << ToolName << "] " << Accesses << " accesses, "
            << Events << " check events ("
            << (Accesses ? static_cast<double>(Events) / Accesses : 0.0)
            << " ratio), " << Run.Counters.get("tool.shadowOps")
            << " shadow ops\n";
  // Deterministic per event stream and config, so replaying a recorded
  // run reprints it byte for byte — the record/replay smokes depend on
  // that. Filter-on vs. filter-off diffs must grep it away.
  if (Run.FilterEnabled)
    std::cerr << "[filter] " << Run.Filter.hits() << " hit(s), "
              << Run.Filter.misses() << " miss(es), "
              << Run.Filter.Invalidations << " invalidation(s), "
              << Run.Filter.RangeExtends << " range extend(s)\n";
  if (Run.ToolRaces.empty()) {
    std::cerr << "[" << ToolName << "] no races detected\n";
  } else {
    for (const ReportedRace &R : Run.ToolRaces)
      std::cerr << "[" << ToolName << "] " << R.str() << "\n";
  }
  if (Oracle) {
    std::cerr << "[oracle] " << Run.GroundTruthRaces.size()
              << " race(s) at per-access granularity\n";
  }
  if (DumpStats)
    for (const auto &[Name, Value] : Run.Counters.all())
      std::cerr << "  " << Name << " = " << Value << "\n";
  return Run.ToolRaces.empty() ? 0 : 2;
}

/// Sharded-mode lane summary on stderr, for online and replayed runs
/// alike; prefixed like the [async] line so byte-diff consumers can
/// filter it.
void reportShards(size_t Shards, const RunResult &Run) {
  if (Shards == 0)
    return;
  std::cerr << "[shards] " << Run.ShardLanes.size() << " lane(s), "
            << Run.ShardRoutedEvents << " routed + "
            << Run.ShardBroadcastEvents << " broadcast event(s)\n";
  std::cerr << "[shards] sync table: " << Run.ShardSyncPublishes
            << " clock(s) shipped, " << Run.ShardTableReads
            << " view(s) installed, " << Run.ShardHorizonAdvances
            << " horizon advance(s), " << Run.ShardSyncTableBytes
            << " resident byte(s)\n";
  for (size_t I = 0; I < Run.ShardLanes.size(); ++I) {
    const ShardLaneStats &L = Run.ShardLanes[I];
    std::cerr << "[shards]   lane " << I << ": " << L.Events
              << " event(s), " << static_cast<double>(L.BusyNs) * 1e-9
              << "s busy, " << L.Stalls << " stall(s)\n";
  }
  if (Run.ShardOrderViolations)
    std::cerr << "[shards] WARNING: " << Run.ShardOrderViolations
              << " ordering violation(s)\n";
}

/// Async-mode timing split on stderr, prefixed so byte-diff consumers can
/// filter it exactly like the [trace] line. Sharded mode pipelines too,
/// so it gets the same split plus its [shards] lane summary.
void reportAsync(const VmOptions &Opts, const VmResult &Run) {
  if (!Opts.AsyncDetect && Opts.DetectShards == 0)
    return;
  std::cerr << "[async] vm " << Run.VmSeconds << "s, detector "
            << Run.DetectorSeconds << "s, " << Run.AsyncBatches
            << " batch(es), " << Run.AsyncStalls << " stall(s)\n";
  reportShards(Opts.DetectShards, Run);
}

/// Instruments \p Prog for the named tool; false on an unknown name.
bool instrumentNamed(const Program &Prog, const std::string &ToolName,
                     InstrumentedProgram &IP) {
  if (ToolName == "bigfoot")
    IP = instrumentBigFoot(Prog);
  else if (ToolName == "fasttrack")
    IP = instrumentFastTrack(Prog);
  else if (ToolName == "redcard")
    IP = instrumentRedCard(Prog);
  else if (ToolName == "slimstate")
    IP = instrumentSlimState(Prog);
  else if (ToolName == "slimcard")
    IP = instrumentSlimCard(Prog);
  else if (ToolName == "djit") {
    IP = instrumentFastTrack(Prog);
    IP.Tool = djitConfig();
  } else {
    return false;
  }
  return true;
}

/// The config \p Name replays a recorded trace under. Proxy maps are
/// placement properties, so they come from the recorded config.
bool replayConfigNamed(const std::string &Name,
                       const DetectorConfig &Recorded, DetectorConfig &Out) {
  if (Name == "fasttrack")
    Out = fastTrackConfig();
  else if (Name == "slimstate")
    Out = slimStateConfig();
  else if (Name == "djit")
    Out = djitConfig();
  else if (Name == "redcard")
    Out = redCardConfig(Recorded.FieldProxy);
  else if (Name == "slimcard")
    Out = slimCardConfig(Recorded.FieldProxy);
  else if (Name == "bigfoot")
    Out = bigFootConfig(Recorded.FieldProxy);
  else
    return false;
  return true;
}

int traceMain(int Argc, char **Argv) {
  if (Argc < 3) {
    usage();
    return 1;
  }
  std::string Sub = Argv[2];
  CliArgs A;
  if (!parseArgs(3, Argc, Argv, /*Trace=*/true, A))
    return 1;
  if (!A.File) {
    std::cerr << "bigfoot: error: trace " << Sub << " needs a file\n";
    return 1;
  }

  if (Sub == "record") {
    if (A.OutPath.empty()) {
      std::cerr << "bigfoot: error: trace record needs --out=FILE\n";
      return 1;
    }
    ParseResult PR = parseProgram(readFile(A.File));
    if (!PR.ok()) {
      std::cerr << "bigfoot: " << A.File << ": " << PR.Error << "\n";
      return 1;
    }
    if (A.ToolName.empty())
      A.ToolName = "bigfoot";
    InstrumentedProgram IP;
    if (!instrumentNamed(*PR.Prog, A.ToolName, IP)) {
      std::cerr << "bigfoot: error: unknown tool '" << A.ToolName << "'\n";
      return 1;
    }
    IP.Prog->internSymbols(); // The trace header serializes the table.
    TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
    A.Vm.RecordSink = &Writer;
    A.Vm.EnableGroundTruth = A.Oracle;
    VmResult Run = runProgram(*IP.Prog, IP.Tool, A.Vm);
    Writer.finish(summaryOf(Run));
    if (!Writer.writeFile(A.OutPath)) {
      std::cerr << "bigfoot: error: cannot write trace '" << A.OutPath
                << "'\n";
      return 1;
    }
    std::cerr << "[trace] wrote " << Writer.buffer().size() << " bytes to "
              << A.OutPath << "\n";
    reportAsync(A.Vm, Run);
    return reportRun(A.ToolName, Run, A.Oracle, A.DumpStats);
  }

  if (Sub == "replay") {
    TraceReader Reader;
    if (!Reader.openFile(A.File)) {
      std::cerr << "bigfoot: " << A.File << ": " << Reader.error() << "\n";
      return 1;
    }
    DetectorConfig Cfg = Reader.config();
    if (!A.ToolName.empty() &&
        !replayConfigNamed(A.ToolName, Reader.config(), Cfg)) {
      std::cerr << "bigfoot: error: unknown tool '" << A.ToolName << "'\n";
      return 1;
    }
    ReplayOptions ROpts;
    ROpts.EnableGroundTruth = A.Oracle;
    ROpts.CheckFilter = A.Vm.CheckFilter;
    ROpts.DetectShards = A.Vm.DetectShards;
    ReplayResult Run = replayTrace(Reader, Cfg, ROpts);
    reportShards(ROpts.DetectShards, Run);
    return reportRun(Cfg.Name, Run, A.Oracle, A.DumpStats);
  }

  if (Sub == "info") {
    TraceReader Reader;
    if (!Reader.openFile(A.File)) {
      std::cerr << "bigfoot: " << A.File << ": " << Reader.error() << "\n";
      return 1;
    }
    // Drain the stream to count events and reach the summary.
    std::vector<Event> Buf(kDefaultEventBatch);
    std::vector<uint32_t> Payload;
    while (Reader.nextBatch(Buf.data(), Buf.size(), Payload) > 0)
      ;
    if (!Reader.ok()) {
      std::cerr << "bigfoot: " << A.File << ": " << Reader.error() << "\n";
      return 1;
    }
    const DetectorConfig &C = Reader.config();
    std::cout << "trace: " << A.File << "\n"
              << "  config: " << C.Name
              << (C.DeferArrayChecks ? " +defer" : "")
              << (C.AdaptiveArrayShadow ? " +adaptive" : "")
              << (C.VectorClocksOnly ? " +vconly" : "") << ", "
              << C.FieldProxy.size() << " proxied field(s)\n"
              << "  symbols: " << Reader.symbols().size() << "\n"
              << "  events: " << Reader.eventsDecoded() << "\n";
    if (Reader.summaryReady()) {
      const TraceSummary &S = Reader.summary();
      std::cout << "  run: " << (S.Ok ? "ok" : ("error: " + S.Error)) << ", "
                << S.StatementsExecuted << " statements, "
                << S.Output.size() << " output line(s), "
                << S.Counters.size() << " counter(s)\n";
    }
    return 0;
  }

  std::cerr << "bigfoot: error: unknown trace subcommand '" << Sub << "'\n";
  return 1;
}

std::string readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "bigfoot: error: cannot open '" << Path << "'\n";
    std::exit(1);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "trace") == 0)
    return traceMain(Argc, Argv);

  CliArgs A;
  A.ToolName = "bigfoot";
  if (!parseArgs(1, Argc, Argv, /*Trace=*/false, A))
    return 1;
  if (A.Help) {
    usage();
    return 0;
  }
  if (!A.File) {
    usage();
    return 1;
  }

  ParseResult PR = parseProgram(readFile(A.File));
  if (!PR.ok()) {
    std::cerr << "bigfoot: " << A.File << ": " << PR.Error << "\n";
    return 1;
  }

  if (A.Contexts) {
    PlacementOptions Opts;
    Opts.TraceContexts = true;
    PlacementStats Stats = placeBigFootChecks(*PR.Prog, Opts);
    std::cout << printProgram(*PR.Prog);
    std::cout << "\n--- contexts after each statement ---\n";
    for (const auto &[Id, Ctx] : Stats.ContextAfter)
      std::cout << "#" << Id << ": " << Ctx << "\n";
    return 0;
  }

  if (A.ToolName == "none") {
    A.Vm.EnableGroundTruth = A.Oracle;
    VmResult Run = runProgramBase(*PR.Prog, A.Vm);
    for (const std::string &Line : Run.Output)
      std::cout << Line << "\n";
    if (!Run.Ok) {
      std::cerr << "bigfoot: runtime error: " << Run.Error << "\n";
      return 1;
    }
    return 0;
  }

  InstrumentedProgram IP;
  if (!instrumentNamed(*PR.Prog, A.ToolName, IP)) {
    std::cerr << "bigfoot: error: unknown tool '" << A.ToolName << "'\n";
    return 1;
  }

  if (A.PrintOnly) {
    std::cout << printProgram(*IP.Prog);
    return 0;
  }

  A.Vm.EnableGroundTruth = A.Oracle;
  VmResult Run = runProgram(*IP.Prog, IP.Tool, A.Vm);
  reportAsync(A.Vm, Run);
  return reportRun(A.ToolName, Run, A.Oracle, A.DumpStats);
}
