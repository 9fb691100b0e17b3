//===- Replay.cpp - Re-running a recorded event stream --------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/Replay.h"

using namespace bigfoot;

namespace {

/// Pumps every decoded batch of \p Reader into \p Sink. True when the
/// stream decoded cleanly through to a summary; the error (if any) is
/// already set on \p R.
bool pumpTrace(TraceReader &Reader, EventSink &Sink, size_t Batch,
               ReplayResult &R) {
  Batch = Batch ? Batch : 1;
  std::vector<Event> Buf(Batch);
  std::vector<uint32_t> Payload;
  size_t N;
  while ((N = Reader.nextBatch(Buf.data(), Batch, Payload)) > 0)
    Sink.consumeBatch(Buf.data(), N, Payload.data());
  R.EventsReplayed = Reader.eventsDecoded();

  if (!Reader.ok()) {
    R.Ok = false;
    R.Error = "trace replay failed: " + Reader.error();
    return false;
  }
  if (!Reader.summaryReady()) {
    R.Ok = false;
    R.Error = "trace replay failed: stream ended without a summary";
    return false;
  }
  return true;
}

/// Folds the recorded run summary (status, output, vm.* counters) into
/// \p R. Seeding order does not matter — Stats is a name-keyed map.
void applySummary(const TraceSummary &S, ReplayResult &R) {
  R.Ok = S.Ok;
  R.Error = S.Error;
  R.Output = S.Output;
  R.StatementsExecuted = S.StatementsExecuted;
  for (const auto &[Name, Value] : S.Counters)
    R.Counters.bump(Name, Value);
}

} // namespace

ReplayResult bigfoot::replayTrace(TraceReader &Reader,
                                  const DetectorConfig &Tool,
                                  const ReplayOptions &Opts) {
  ReplayResult R;
  if (!Reader.ok()) {
    R.Error = Reader.error();
    return R;
  }

  R.Tool = Tool.Name;
  DetectionOptions DO;
  DO.Oracle = Opts.EnableGroundTruth;
  DO.CheckFilter = Opts.CheckFilter;
  DO.Lanes = Opts.DetectShards;
  DetectionPipeline Pipeline(&Tool, &Reader.symbols(), DO);
  if (!pumpTrace(Reader, *Pipeline.sink(), Opts.Batch, R))
    return R;
  applySummary(Reader.summary(), R);
  Pipeline.finish(R);
  return R;
}

ReplayResult bigfoot::replayTraceFile(const std::string &Path,
                                      const ReplayOptions &Opts) {
  TraceReader Reader;
  if (!Reader.openFile(Path)) {
    ReplayResult R;
    R.Error = Reader.error();
    return R;
  }
  return replayTrace(Reader, Reader.config(), Opts);
}
