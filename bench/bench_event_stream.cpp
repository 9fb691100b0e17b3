//===- bench_event_stream.cpp - Event dispatch cost: per-event vs batch ------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Measures what the ring buffer buys, in vivo: the incremental cost of
// delivering one event to a detector during real execution. Each suite
// workload runs under the FastTrack placement (the densest event stream)
// in three configurations, best-of-N each:
//
//   base     no detector attached — execution alone, nothing emitted;
//   pervent  detector attached through an EventRing of capacity 1 — one
//            virtual consumeBatch call per event from inside the
//            interpreter's hot paths, the per-event dispatch a naive
//            execution/detection decoupling would do;
//   batch    detector attached through the default ring
//            (kDefaultEventBatch events per virtual call).
//
// The reported ns/event for pervent and batch is (run − base) / events:
// emission + dispatch + detector apply, with the shared interpretation
// cost subtracted out. The replay column is a full offline replay of a
// recorded trace (varint decode + batch dispatch into a fresh detector),
// i.e. the pure detector cost a record-once/replay-many consumer pays —
// no subtraction, since replay executes nothing.
//
// The headline is the geomean pervent/batch speedup (CI tracks it —
// batching must stay a win). Emits BENCH_event_stream.json. Run at the
// default Bench scale for stable numbers; --small shrinks the workloads
// below reliable timing windows, where rows fall under the minimum-event
// threshold and are flagged skipped instead of timed.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"
#include "bfj/Parser.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "harness/Experiment.h"
#include "instrument/Instrumenters.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "vm/Vm.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

struct StreamRow {
  std::string Workload;
  uint64_t Events = 0;
  bool Skipped = false;  ///< Too few events for a reliable timing window.
  double PerEventNs = 0; ///< ns/event over base, ring capacity 1.
  double BatchNs = 0;    ///< ns/event over base, default batch size.
  double ReplayNs = 0;   ///< ns/event, full decode + batch dispatch.
  double batchSpeedup() const {
    return BatchNs > 0 && PerEventNs > 0 ? PerEventNs / BatchNs : 0;
  }
};

/// Workloads emitting fewer events than this are not timed: the (run −
/// base) subtraction is microseconds against scheduler noise, which used
/// to surface as negative ns/event and a 0.00 speedup in the JSON. Such
/// rows are flagged skipped and excluded from the geomean instead.
constexpr uint64_t kMinTimedEvents = 5000;

/// Best-of-N wall-clock for one VM configuration.
double bestRun(const Program &P, const DetectorConfig *Tool, size_t Batch,
               uint64_t Seed, int Iters) {
  double Best = 1e100;
  for (int I = 0; I < Iters; ++I) {
    VmOptions Opts;
    Opts.Seed = Seed;
    Opts.EventBatch = Batch;
    Timer T;
    VmResult R = Tool ? runProgram(P, *Tool, Opts) : runProgramBase(P, Opts);
    double Sec = T.seconds();
    if (!R.Ok) {
      std::fprintf(stderr, "run failed: %s\n", R.Error.c_str());
      std::abort();
    }
    Best = std::min(Best, Sec);
  }
  return Best;
}

StreamRow measureWorkload(const Workload &W, const BenchArgs &Args) {
  ParseResult PR = parseProgram(W.Source);
  if (!PR.ok()) {
    std::fprintf(stderr, "workload %s failed to parse: %s\n", W.Name.c_str(),
                 PR.Error.c_str());
    std::abort();
  }
  InstrumentedProgram IP = instrumentFastTrack(*PR.Prog);
  IP.Prog->internSymbols();

  // Record the stream once: the trace feeds the replay leg and counts the
  // events the timed runs emit.
  TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
  VmOptions RecOpts;
  RecOpts.Seed = Args.Opts.Seed;
  RecOpts.RecordSink = &Writer;
  VmResult Rec = runProgramBase(*IP.Prog, RecOpts);
  if (!Rec.Ok) {
    std::fprintf(stderr, "workload %s failed: %s\n", W.Name.c_str(),
                 Rec.Error.c_str());
    std::abort();
  }
  Writer.finish(summaryOf(Rec));

  TraceReader Counter;
  if (!Counter.open(Writer.buffer().data(), Writer.buffer().size())) {
    std::fprintf(stderr, "workload %s: trace decode failed: %s\n",
                 W.Name.c_str(), Counter.error().c_str());
    std::abort();
  }
  std::vector<Event> Scratch(kDefaultEventBatch);
  std::vector<uint32_t> Payload;
  while (Counter.nextBatch(Scratch.data(), Scratch.size(), Payload) > 0)
    ;
  if (!Counter.ok() || !Counter.summaryReady()) {
    std::fprintf(stderr, "workload %s: trace did not decode cleanly: %s\n",
                 W.Name.c_str(), Counter.error().c_str());
    std::abort();
  }

  StreamRow Row;
  Row.Workload = W.Name;
  Row.Events = Counter.eventsDecoded();
  if (Row.Events < kMinTimedEvents) {
    Row.Skipped = true;
    return Row;
  }

  int Iters = Args.Opts.Iterations > 0 ? Args.Opts.Iterations : 1;
  uint64_t Seed = Args.Opts.Seed;
  double N = static_cast<double>(Row.Events);
  double Base = bestRun(*IP.Prog, nullptr, kDefaultEventBatch, Seed, Iters);
  double B1 = bestRun(*IP.Prog, &IP.Tool, 1, Seed, Iters);
  double Bn = bestRun(*IP.Prog, &IP.Tool, kDefaultEventBatch, Seed, Iters);
  // Even above the event floor the subtraction can go (slightly)
  // negative under load; clamp to 0 — batchSpeedup() then reads 0 and
  // the row stays out of the geomean rather than poisoning it.
  Row.PerEventNs = std::max(0.0, (B1 - Base) * 1e9 / N);
  Row.BatchNs = std::max(0.0, (Bn - Base) * 1e9 / N);

  double Replay = 1e100;
  for (int I = 0; I < Iters; ++I) {
    TraceReader Reader;
    if (!Reader.open(Writer.buffer().data(), Writer.buffer().size())) {
      std::fprintf(stderr, "replay open failed: %s\n",
                   Reader.error().c_str());
      std::abort();
    }
    Timer T;
    ReplayResult Res = replayTrace(Reader, IP.Tool);
    double Sec = T.seconds();
    if (!Res.Ok) {
      std::fprintf(stderr, "replay failed: %s\n", Res.Error.c_str());
      std::abort();
    }
    Replay = std::min(Replay, Sec);
  }
  Row.ReplayNs = Replay * 1e9 / N;
  return Row;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);

  std::vector<StreamRow> Rows;
  for (const Workload &W : standardSuite(Args.Scale))
    Rows.push_back(measureWorkload(W, Args));

  TablePrinter Table("Event stream: ns per event into a FastTrack detector");
  Table.addRow({"Program", "Events", "PerEvent", "Batch", "Replay",
                "BatchSpeedup"});
  double LogSum = 0;
  int LogCount = 0;
  for (const StreamRow &R : Rows) {
    if (R.Skipped) {
      Table.addRow({R.Workload, std::to_string(R.Events), "skip", "skip",
                    "skip", "-"});
      continue;
    }
    Table.addRow({R.Workload, std::to_string(R.Events),
                  TablePrinter::num(R.PerEventNs, 1),
                  TablePrinter::num(R.BatchNs, 1),
                  TablePrinter::num(R.ReplayNs, 1),
                  TablePrinter::num(R.batchSpeedup(), 2)});
    if (R.batchSpeedup() > 0) {
      LogSum += std::log(R.batchSpeedup());
      ++LogCount;
    }
  }
  double Geomean =
      LogCount ? std::exp(LogSum / static_cast<double>(LogCount)) : 0;
  Table.addRow({"GeoMean", "", "", "", "", TablePrinter::num(Geomean, 2)});
  Table.print(std::cout);

  std::string Json = "{\"bench\":\"event_stream\"," + benchMetaJson() +
                     ",\"unit\":\"ns_per_event\",\"workloads\":{";
  bool First = true;
  for (const StreamRow &R : Rows) {
    char Buf[256];
    if (R.Skipped)
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\":{\"events\":%llu,\"skipped\":true}",
                    First ? "" : ",", R.Workload.c_str(),
                    static_cast<unsigned long long>(R.Events));
    else
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\":{\"events\":%llu,\"pervent\":%.2f,"
                    "\"batch\":%.2f,\"replay\":%.2f,\"batch_speedup\":%.2f}",
                    First ? "" : ",", R.Workload.c_str(),
                    static_cast<unsigned long long>(R.Events), R.PerEventNs,
                    R.BatchNs, R.ReplayNs, R.batchSpeedup());
    Json += Buf;
    First = false;
  }
  char Tail[64];
  std::snprintf(Tail, sizeof(Tail), "},\"geomean_batch_speedup\":%.2f}",
                Geomean);
  Json += Tail;

  std::FILE *Out = std::fopen("BENCH_event_stream.json", "w");
  if (Out) {
    std::fprintf(Out, "%s\n", Json.c_str());
    std::fclose(Out);
  }
  std::cout << "\n" << Json << "\n";
  return 0;
}
