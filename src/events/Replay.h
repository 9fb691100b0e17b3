//===- Replay.h - Re-running a recorded event stream ------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline analysis of a recorded trace: drain the stream into the same
/// DetectionPipeline the online path uses, with detectors built from the
/// trace's symbol table, and reconstitute a full run result from the
/// trace summary plus the fresh detector state. Because detectors are
/// passive consumers (they never feed back into execution), replaying a
/// trace under any config sharing its placement is behaviorally
/// identical to having attached that detector during the recording run —
/// byte for byte, which the event-stream differential test enforces.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_REPLAY_H
#define BIGFOOT_EVENTS_REPLAY_H

#include "events/DetectionPipeline.h"
#include "events/TraceCodec.h"

#include <string>

namespace bigfoot {

/// Everything a replay produces: the RunResult an online run with the
/// same detector would have produced, plus the replay's own bookkeeping.
/// Counters hold the recorded vm.* seeded in and the replayed tool.*.
struct ReplayResult : RunResult {
  std::string Tool; ///< Name of the config the trace was replayed under.
  uint64_t EventsReplayed = 0;
};

struct ReplayOptions {
  /// Events per replay batch (1 = per-event reference dispatch).
  size_t Batch = kDefaultEventBatch;
  /// Also rebuild the per-access ground-truth oracle from the trace's
  /// oracle-targeted events (requires a trace recorded with the oracle
  /// attached; without those events the oracle simply sees nothing).
  bool EnableGroundTruth = false;
  /// Threads that apply the tool detector (DetectionOptions::Lanes):
  /// 0 = inline, 1 = one detector thread, N >= 2 = location-partitioned
  /// lanes. A replay knob, never a trace property; results are
  /// byte-identical for every count.
  size_t DetectShards = 0;
};

/// Replays \p Reader (already open()ed) into a fresh detector built from
/// \p Tool. \p Tool may be any config sharing the recording placement —
/// the record-once/replay-many harness replays one FastTrack-placement
/// trace under fasttrack, slimstate, and djit, for example.
ReplayResult replayTrace(TraceReader &Reader, const DetectorConfig &Tool,
                         const ReplayOptions &Opts = ReplayOptions());

/// Convenience: opens \p Path and replays it under the trace's own
/// recorded config. Decode errors surface as Ok = false.
ReplayResult replayTraceFile(const std::string &Path,
                             const ReplayOptions &Opts = ReplayOptions());

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_REPLAY_H
