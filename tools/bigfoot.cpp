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
#include <optional>
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
  --detect-shards=N
                  run the detector on N threads, 0 to 64: 0 = inline
                  (default), 1 = one detector thread behind a bounded
                  batch ring, N >= 2 = N location-partitioned lanes.
                  Reports stay byte-identical for every N; [shards]
                  lines show the vm/detector time split, each lane and,
                  for N >= 2, the shared sync-clock table
  --oracle        also run the per-access ground-truth detector
  --stats         dump all counters after the run

trace subcommands (record once, re-analyze offline):
  bigfoot trace record --out=FILE [--tool=NAME] [run options] program.bfj
                  run with a detector attached, recording the event
                  stream to FILE; the report is identical to a plain run.
                  Run options: --seed, --quantum, --commit-interval,
                  --detect-shards, --oracle, --stats
  bigfoot trace replay [--tool=NAME] [detector options] FILE
                  replay FILE into a fresh detector (default: the
                  recorded config; NAME must share its placement) and
                  print the same report the recording run printed.
                  Detector options: --detect-shards, --oracle, --stats
  bigfoot trace info FILE
                  describe a trace: config, symbols, events, summary

A command given an option it does not apply, or more than one file,
fails with exit status 1.
)";
}

std::string readFile(const char *Path);

/// The commands of the command line, as bits of an option's accepted set.
enum Command : unsigned {
  RunCmd = 1u << 0, ///< bigfoot [options] program.bfj
  RecordCmd = 1u << 1,
  ReplayCmd = 1u << 2,
  InfoCmd = 1u << 3,
};
/// Options that shape the execution / the detection of a run.
constexpr unsigned kExecutes = RunCmd | RecordCmd;
constexpr unsigned kDetects = RunCmd | RecordCmd | ReplayCmd;

const char *commandName(Command C) {
  switch (C) {
  case RunCmd:
    return "a plain run";
  case RecordCmd:
    return "trace record";
  case ReplayCmd:
    return "trace replay";
  case InfoCmd:
    return "trace info";
  }
  return "";
}

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

/// Parses Argv[First, Argc) into \p A for command \p C. An unknown
/// option, an option \p C does not apply, a malformed value, or a second
/// file prints a "bigfoot: error:" line and returns false.
bool parseArgs(int First, int Argc, char **Argv, Command C, CliArgs &A) {
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
    unsigned Takes = kDetects;      // The commands that apply Arg.
    if (Valued("--tool=")) {
      A.ToolName = V;
    } else if (Valued("--out=")) {
      Takes = RecordCmd;
      A.OutPath = V;
    } else if (Is("--print")) {
      Takes = RunCmd;
      A.PrintOnly = true;
    } else if (Is("--contexts")) {
      Takes = RunCmd;
      A.Contexts = true;
    } else if (Is("--help") || Is("-h")) {
      Takes = RunCmd;
      A.Help = true;
    } else if (Is("--oracle")) {
      A.Oracle = true;
    } else if (Is("--stats")) {
      A.DumpStats = true;
    } else if (Valued("--seed=")) {
      Takes = kExecutes;
      if (!parseNumber(V, A.Vm.Seed))
        Expected = "a non-negative integer";
    } else if (Valued("--quantum=")) {
      Takes = kExecutes;
      if (!parseNumber(V, A.Vm.Quantum) || A.Vm.Quantum == 0)
        Expected = "a positive integer";
    } else if (Valued("--commit-interval=")) {
      Takes = kExecutes;
      if (!parseNumber(V, A.Vm.CommitIntervalSteps))
        Expected = "a non-negative integer";
    } else if (Valued("--detect-shards=")) {
      std::optional<size_t> Lanes = parseLaneCount(V);
      if (Lanes)
        A.Vm.DetectShards = *Lanes;
      else
        Expected = "a lane count from 0 to 64";
    } else if (Arg[0] == '-') {
      std::cerr << "bigfoot: error: unknown option '" << Arg << "'\n";
      usage();
      return false;
    } else if (A.File) {
      std::cerr << "bigfoot: error: one file expected, got '" << A.File
                << "' and '" << Arg << "'\n";
      return false;
    } else {
      Takes = C;
      A.File = Arg;
    }
    if (!(Takes & C)) {
      std::cerr << "bigfoot: error: " << commandName(C) << " does not take '"
                << Arg << "'\n";
      return false;
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

/// The lane summary on stderr when the detector ran on lanes, for live
/// and replayed runs alike (a live run adds its VM thread's seconds up to
/// the drain); prefixed so byte-diff consumers can filter it exactly like
/// the [trace] line.
void reportLanes(const RunResult &Run,
                 std::optional<double> VmSeconds = std::nullopt) {
  if (Run.ShardLanes.empty())
    return;
  std::cerr << "[shards] " << Run.ShardLanes.size() << " lane(s), ";
  if (VmSeconds)
    std::cerr << "vm " << *VmSeconds << "s, ";
  std::cerr << "detector " << Run.DetectorSeconds << "s, "
            << Run.AsyncBatches << " batch(es), " << Run.AsyncStalls
            << " stall(s)\n";
  if (Run.ShardLanes.size() >= 2)
    std::cerr << "[shards] sync table: " << Run.ShardRoutedEvents
              << " routed + " << Run.ShardBroadcastEvents
              << " broadcast event(s), " << Run.ShardSyncPublishes
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
  Command C;
  if (Sub == "record") {
    C = RecordCmd;
  } else if (Sub == "replay") {
    C = ReplayCmd;
  } else if (Sub == "info") {
    C = InfoCmd;
  } else {
    std::cerr << "bigfoot: error: unknown trace subcommand '" << Sub
              << "'\n";
    return 1;
  }
  CliArgs A;
  if (!parseArgs(3, Argc, Argv, C, A))
    return 1;
  if (!A.File) {
    std::cerr << "bigfoot: error: trace " << Sub << " needs a file\n";
    return 1;
  }

  if (C == RecordCmd) {
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
    reportLanes(Run, Run.VmSeconds);
    return reportRun(A.ToolName, Run, A.Oracle, A.DumpStats);
  }

  if (C == ReplayCmd) {
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
    ROpts.DetectShards = A.Vm.DetectShards;
    ReplayResult Run = replayTrace(Reader, Cfg, ROpts);
    reportLanes(Run);
    return reportRun(Cfg.Name, Run, A.Oracle, A.DumpStats);
  }

  TraceReader Reader; // trace info.
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
  const DetectorConfig &Cfg = Reader.config();
  std::cout << "trace: " << A.File << "\n"
            << "  config: " << Cfg.Name
            << (Cfg.DeferArrayChecks ? " +defer" : "")
            << (Cfg.AdaptiveArrayShadow ? " +adaptive" : "")
            << (Cfg.VectorClocksOnly ? " +vconly" : "") << ", "
            << Cfg.FieldProxy.size() << " proxied field(s)\n"
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
  if (!parseArgs(1, Argc, Argv, RunCmd, A))
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
  reportLanes(Run, Run.VmSeconds);
  return reportRun(A.ToolName, Run, A.Oracle, A.DumpStats);
}
