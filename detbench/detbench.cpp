//===- detbench.cpp - Seeded detector benchmark runner --------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Times one BFJ program through what a user of the bigfoot tool runs:
// parse, check placement, and execution under a race detector. run.py
// writes the program for a seed, builds this runner against the checkout's
// sources, and checks what it prints.
//
//   detbench --program=FILE --seed=N --seconds=S [--spans=FILE]
//
// Every leg runs once untimed; that run's outcome (output and racy
// locations) is the leg's reference, which every timed run must reproduce.
// The legs then run in rounds, each round in a rotated order, until S
// seconds have passed, so every leg samples the same stretches of machine
// load:
//
//   setup      parse plus FastTrack and BigFoot check placement: what a
//              user pays before the program starts running
//   base       the VM running the uninstrumented program
//   fasttrack  the FastTrack program (a check before every access) under
//              the FastTrack detector
//   bigfoot    the StaticBF-placed program under the BigFoot detector,
//              detecting inline on the VM thread
//   lanes      the same with detection on kLanes threaded lanes
//              (VmOptions::DetectShards): the VM thread routes each batch
//              into per-lane rings and applies sync edges to the shared
//              sync-clock table; the run ends by draining the lanes and
//              merging their results. Each sample also records the VM
//              thread's seconds up to the drain (VmResult::VmSeconds) as
//              lanes.producer and the busiest lane's busy seconds
//              (VmResult::DetectorSeconds) as lanes.busiest
//
// --spans adds one leg per layer of the BigFoot pipeline, each calling
// that layer alone, and writes every timed interval to FILE as a span
// (name, start, end, parent):
//
//   emit       the VM running the BigFoot program into a sink that drops
//              each batch: placed checks evaluated, events built and
//              delivered, no detector
//   detector   a fresh BigFoot detector applying the stream captured from
//              one such run, check filter on
//   nofilter   the same with the check filter off
//   async      the bigfoot leg with detection on one detector thread fed
//              by a ring (VmOptions::AsyncDetect), the single-lane
//              alternative to the lanes leg
//   parse      the BFJ parser
//   staticbf   StaticBF placement and the field-proxy analysis
//
// Prints one JSON object: per-leg samples in seconds, per-leg reference
// outcomes, the run counts and, with --spans, the stream's counters.
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "events/DetectorSink.h"
#include "events/SpscBatchRing.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

using Clock = std::chrono::steady_clock;

/// Detection lanes of the lanes leg: with the VM thread, three busy
/// threads, which a 4-core host runs without oversubscription.
constexpr size_t kLanes = 2;

struct Options {
  std::string Program;
  std::string Spans; ///< Non-empty: trace the layers and write spans here.
  uint64_t Seed = 1;
  double Seconds = 0;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--program=", 10) == 0)
      O.Program = A + 10;
    else if (std::strncmp(A, "--seed=", 7) == 0)
      O.Seed = std::strtoull(A + 7, nullptr, 10);
    else if (std::strncmp(A, "--seconds=", 10) == 0)
      O.Seconds = std::strtod(A + 10, nullptr);
    else if (std::strncmp(A, "--spans=", 8) == 0)
      O.Spans = A + 8;
    else
      return false;
  }
  return !O.Program.empty() && O.Seconds > 0;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// What a run printed and reported.
struct Outcome {
  bool Ok = false;
  std::string Error;
  std::vector<std::string> Output;
  std::set<std::string> Races;
  /// Seconds of named parts of the run, as the run measured them; timing,
  /// so not part of what every run must reproduce.
  std::map<std::string, double> Parts;

  bool sameAs(const Outcome &O) const {
    return Ok == O.Ok && Error == O.Error && Output == O.Output &&
           Races == O.Races;
  }
};

Outcome outcomeOf(const VmResult &R) {
  return {R.Ok, R.Error, R.Output, R.ToolRacyLocations, {}};
}

/// The emit leg's consumer: drops every batch.
class DropSink final : public EventSink {
public:
  void consumeBatch(const Event *, size_t, const uint32_t *) override {}
};

/// A copy of a whole event stream, so the detector legs can apply it to
/// fresh detectors without executing anything.
class CaptureSink final : public EventSink {
public:
  std::vector<EventBatch> Batches;

  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override {
    Batches.emplace_back().assign(Events, N, Payload);
  }
};

/// Applies \p Stream to a fresh detector built from \p Cfg.
Outcome applyStream(const CaptureSink &Stream, DetectorConfig Cfg,
                    bool Filter, const SymbolTable &Syms,
                    CheckFilterStats *FilterStats = nullptr) {
  Cfg.CheckFilter = Filter;
  Stats Counters;
  RaceDetector D(std::move(Cfg), Counters, &Syms);
  DetectorSink Sink(&D, nullptr);
  for (const EventBatch &B : Stream.Batches)
    Sink.consumeBatch(B.Events.data(), B.Events.size(), B.Payload.data());
  if (FilterStats)
    *FilterStats = D.filterStats();
  Outcome O;
  O.Ok = true;
  O.Races = D.racyLocationKeys();
  return O;
}

/// One timed interval, in seconds since the runner started. Parent is the
/// index of the enclosing span, -1 for the root.
struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  int Parent = -1;
};

/// Per-leg samples and, when tracing, every timed interval as a span.
class Recorder {
public:
  explicit Recorder(bool Trace) : Trace(Trace), Start(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Opens a span that encloses later ones; -1 when not tracing.
  int open(const char *Name, int Parent) {
    if (!Trace)
      return -1;
    Spans.push_back({Name, now(), 0, Parent});
    return static_cast<int>(Spans.size()) - 1;
  }

  void close(int Id) {
    if (Id >= 0)
      Spans[static_cast<size_t>(Id)].End = now();
  }

  /// Runs \p Fn as one timed sample of \p Name.
  template <typename FnT>
  auto time(const std::string &Name, int Parent, FnT &&Fn) {
    double T0 = now();
    auto Result = Fn();
    double T1 = now();
    Samples[Name].push_back(T1 - T0);
    if (Trace)
      Spans.push_back({Name, T0, T1, Parent});
    return Result;
  }

  std::map<std::string, std::vector<double>> Samples;
  std::vector<Span> Spans;

private:
  bool Trace;
  Clock::time_point Start;
};

struct Leg {
  Leg(std::string Name, std::function<Outcome()> Run)
      : Name(std::move(Name)), Run(std::move(Run)) {}

  std::string Name;
  std::function<Outcome()> Run;
  Outcome Ref; ///< The untimed first run's outcome.
};

void putString(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << ' ';
    else
      OS << C;
  }
  OS << '"';
}

template <typename RangeT, typename PutT>
void putList(std::ostream &OS, const RangeT &Items, PutT Put) {
  OS << '[';
  const char *Sep = "";
  for (const auto &Item : Items) {
    OS << Sep;
    Put(Item);
    Sep = ",";
  }
  OS << ']';
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::ofstream Out(Path);
  Out.precision(10);
  Out << '[';
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n" : "\n") << "{\"id\":" << I << ",\"name\":";
    putString(Out, S.Name);
    Out << ",\"start_s\":" << S.Start << ",\"end_s\":" << S.End
        << ",\"parent\":" << S.Parent << '}';
  }
  Out << "\n]\n";
  return static_cast<bool>(Out);
}

uint64_t checkEvents(const VmResult &R) {
  return R.Counters.get("tool.checkEvents.field") +
         R.Counters.get("tool.checkEvents.array");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::cerr << "usage: detbench --program=FILE --seed=N --seconds=S "
                 "[--spans=FILE]\n";
    return 1;
  }
  std::string Source;
  if (!readFile(Opts.Program, Source)) {
    std::cerr << "detbench: cannot read '" << Opts.Program << "'\n";
    return 1;
  }

  bool Trace = !Opts.Spans.empty();
  Recorder Rec(Trace);
  int Root = Rec.open("detbench", -1);

  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.ok()) {
    std::cerr << "detbench: " << Opts.Program << ": " << Parsed.Error << "\n";
    return 1;
  }
  InstrumentedProgram FT = instrumentFastTrack(*Parsed.Prog);
  InstrumentedProgram BF = instrumentBigFoot(*Parsed.Prog);

  VmOptions Vm;
  Vm.Seed = Opts.Seed;
  VmOptions LanesVm = Vm;
  LanesVm.DetectShards = kLanes;
  std::vector<Leg> Legs;
  Legs.push_back({"setup", [&] {
                    Outcome O;
                    ParseResult P = parseProgram(Source);
                    O.Ok = P.ok() && instrumentFastTrack(*P.Prog).Prog &&
                           instrumentBigFoot(*P.Prog).Prog;
                    return O;
                  }});
  Legs.push_back({"base", [&] {
                    return outcomeOf(runProgramBase(*Parsed.Prog, Vm));
                  }});
  Legs.push_back({"fasttrack", [&] {
                    return outcomeOf(runProgram(*FT.Prog, FT.Tool, Vm));
                  }});
  Legs.push_back({"bigfoot", [&] {
                    return outcomeOf(runProgram(*BF.Prog, BF.Tool, Vm));
                  }});
  Legs.push_back({"lanes", [&] {
                    VmResult R = runProgram(*BF.Prog, BF.Tool, LanesVm);
                    Outcome O = outcomeOf(R);
                    if (R.ShardOrderViolations) {
                      O.Ok = false;
                      O.Error = "lanes applied events out of order";
                    }
                    O.Parts = {{"producer", R.VmSeconds},
                               {"busiest", R.DetectorSeconds}};
                    return O;
                  }});

  CaptureSink Stream;
  std::map<std::string, uint64_t> Counts;
  if (Trace) {
    VmOptions Capture = Vm;
    Capture.RecordSink = &Stream;
    runProgramBase(*BF.Prog, Capture);
    const SymbolTable &Syms = BF.Prog->symbols();
    Legs.push_back({"emit", [&] {
                      DropSink Drop;
                      VmOptions Emit = Vm;
                      Emit.RecordSink = &Drop;
                      return outcomeOf(runProgramBase(*BF.Prog, Emit));
                    }});
    Legs.push_back({"detector", [&] {
                      return applyStream(Stream, BF.Tool, true, Syms);
                    }});
    Legs.push_back({"nofilter", [&] {
                      return applyStream(Stream, BF.Tool, false, Syms);
                    }});
    Legs.push_back({"async", [&] {
                      VmOptions Async = Vm;
                      Async.AsyncDetect = true;
                      return outcomeOf(runProgram(*BF.Prog, BF.Tool, Async));
                    }});
    Legs.push_back({"parse", [&] {
                      Outcome O;
                      O.Ok = parseProgram(Source).ok();
                      return O;
                    }});
    Legs.push_back({"staticbf", [&] {
                      Outcome O;
                      O.Ok = instrumentBigFoot(*Parsed.Prog).Prog != nullptr;
                      return O;
                    }});

    VmResult Base = runProgramBase(*Parsed.Prog, Vm);
    VmResult Ft = runProgram(*FT.Prog, FT.Tool, Vm);
    VmResult Bf = runProgram(*BF.Prog, BF.Tool, Vm);
    VmResult Ln = runProgram(*BF.Prog, BF.Tool, LanesVm);
    CheckFilterStats Filter;
    applyStream(Stream, BF.Tool, true, Syms, &Filter);
    uint64_t Events = 0, SyncEvents = 0;
    for (const EventBatch &B : Stream.Batches)
      for (const Event &E : B.Events) {
        ++Events;
        if (E.Kind != EventKind::FieldCheck &&
            E.Kind != EventKind::ArrayCheck &&
            E.Kind != EventKind::ArrayAlloc)
          ++SyncEvents;
      }
    Counts = {
        {"statements", Base.StatementsExecuted},
        {"accesses", Base.Counters.get("vm.accesses")},
        {"checks_fasttrack", checkEvents(Ft)},
        {"checks_bigfoot", checkEvents(Bf)},
        {"shadow_ops_fasttrack", Ft.Counters.get("tool.shadowOps")},
        {"shadow_ops_bigfoot", Bf.Counters.get("tool.shadowOps")},
        {"peak_shadow_bytes_bigfoot", Bf.Counters.get("tool.peakShadowBytes")},
        {"events_bigfoot", Events},
        {"sync_events_bigfoot", SyncEvents},
        {"filter_hits", Filter.hits()},
        {"filter_misses", Filter.misses()},
        {"methods", BF.Placement.MethodsProcessed},
        {"checks_placed_bigfoot", BF.Placement.ChecksInserted},
        {"lane_batches", Ln.AsyncBatches},
        {"lane_stalls", Ln.AsyncStalls},
        {"sync_table_publishes", Ln.ShardSyncPublishes},
        {"sync_table_reads", Ln.ShardTableReads},
        {"sync_table_bytes", Ln.ShardSyncTableBytes},
    };
  }

  int Warmup = Rec.open("warmup", Root);
  for (Leg &L : Legs)
    L.Ref = L.Run();
  Rec.close(Warmup);

  uint64_t Attempted = 0, Failed = 0;
  double Deadline = Rec.now() + Opts.Seconds;
  for (size_t Round = 0; Round == 0 || Rec.now() < Deadline; ++Round) {
    int R = Rec.open("round", Root);
    for (size_t K = 0; K < Legs.size(); ++K) {
      Leg &L = Legs[(Round + K) % Legs.size()];
      ++Attempted;
      Outcome O = Rec.time(L.Name, R, L.Run);
      if (!O.sameAs(L.Ref))
        ++Failed;
      // Index I of a part's samples belongs to index I of the leg's.
      for (const auto &[Part, Seconds] : O.Parts)
        Rec.Samples[L.Name + "." + Part].push_back(Seconds);
    }
    Rec.close(R);
  }
  Rec.close(Root);

  if (Trace && !writeSpans(Opts.Spans, Rec.Spans)) {
    std::cerr << "detbench: cannot write '" << Opts.Spans << "'\n";
    return 1;
  }

  std::ostream &OS = std::cout;
  OS.precision(10);
  OS << "{\"attempted\":" << Attempted << ",\"failed\":" << Failed
     << ",\"samples\":{";
  const char *Sep = "";
  for (const auto &[Name, Values] : Rec.Samples) {
    OS << Sep;
    putString(OS, Name);
    OS << ':';
    putList(OS, Values, [&OS](double V) { OS << V; });
    Sep = ",";
  }
  OS << "},\"outcomes\":{";
  Sep = "";
  auto PutStr = [&OS](const std::string &S) { putString(OS, S); };
  for (const Leg &L : Legs) {
    OS << Sep;
    putString(OS, L.Name);
    OS << ":{\"ok\":" << (L.Ref.Ok ? "true" : "false") << ",\"error\":";
    putString(OS, L.Ref.Error);
    OS << ",\"output\":";
    putList(OS, L.Ref.Output, PutStr);
    OS << ",\"races\":";
    putList(OS, L.Ref.Races, PutStr);
    OS << '}';
    Sep = ",";
  }
  OS << "},\"counts\":{";
  Sep = "";
  for (const auto &[Name, Value] : Counts) {
    OS << Sep;
    putString(OS, Name);
    OS << ':' << Value;
    Sep = ",";
  }
  OS << "}}\n";
  return 0;
}
