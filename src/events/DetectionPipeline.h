//===- DetectionPipeline.h - Detectors on the event stream ------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detection end of a run, written once for live execution and for
/// trace replay. A DetectionPipeline builds the tool and oracle
/// detectors, picks by lane count where the tool consumes the event
/// stream — inline (DetectorSink), on one detector thread
/// (AsyncSink over the tool's DetectorSink), or on N >= 2
/// location-partitioned lanes (ShardedSink) — and tees an optional
/// recording sink onto the same stream. The per-access oracle is a test
/// reference and is always applied inline. The producer (the VM's event
/// ring, or the trace reader) feeds sink(); finish() drains every
/// consumer and writes the detection half of the RunResult.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_DETECTIONPIPELINE_H
#define BIGFOOT_EVENTS_DETECTIONPIPELINE_H

#include "events/DetectorSink.h"
#include "events/ShardedSink.h"
#include "runtime/Detector.h"
#include "support/Stats.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace bigfoot {

class AsyncSink;

/// Everything a run produces, live or replayed. Reports and Counters are
/// byte-identical across every consumer choice; the timing and lane
/// accounting below them is kept beside Counters, never inside, for that
/// reason.
struct RunResult {
  bool Ok = false;
  std::string Error;
  std::vector<std::string> Output; ///< print statements, in order.
  Stats Counters;                  ///< vm.* and tool.* counters.
  std::vector<ReportedRace> ToolRaces;
  std::vector<ReportedRace> GroundTruthRaces;
  std::set<std::string> ToolRacyLocations;
  std::set<std::string> GroundTruthRacyLocations;
  /// Scheduler steps executed (identical across detection modes); the
  /// denominator of detbench's vm_ns_per_stmt.
  uint64_t StatementsExecuted = 0;
  /// Lanes only: busy seconds (waits excluded) of the busiest lane.
  double DetectorSeconds = 0.0;
  /// Lanes only: batches handed through the rings / times the producer
  /// blocked on a full ring.
  uint64_t AsyncBatches = 0;
  uint64_t AsyncStalls = 0;
  /// Lanes only: one tally per lane (DESIGN.md Sec. 10 for one lane).
  /// The fields after it stay zero for one lane. For N >= 2 (DESIGN.md
  /// Sec. 12/13) they count checks routed to one lane, sync edges
  /// applied once by the SyncClockTable writer (each reaching every lane
  /// as one marker in a shared segment), markers applied summed over
  /// lanes, and sync-horizon ordering-check failures (must be zero).
  std::vector<ShardLaneStats> ShardLanes;
  uint64_t ShardRoutedEvents = 0;
  uint64_t ShardBroadcastEvents = 0;
  uint64_t ShardHorizonAdvances = 0;
  /// Shipped clocks installed into lane views, summed over lanes.
  uint64_t ShardTableReads = 0;
  /// Post-edge thread clocks the writer shipped (one per changed thread
  /// per edge).
  uint64_t ShardSyncPublishes = 0;
  /// Resident bytes of the sync segments plus every lane's thread views:
  /// bounded by the ring depth and the thread count, not the edge count.
  uint64_t ShardSyncTableBytes = 0;
  uint64_t ShardOrderViolations = 0;
};

/// Which detectors consume the stream and on which threads. None of it
/// is a trace property: a replay may choose differently from its
/// recording run and still reproduce it byte for byte.
struct DetectionOptions {
  /// Attach the per-access ground-truth FastTrack oracle.
  bool Oracle = false;
  /// Threads that apply the tool detector: 0 = inline on the producer,
  /// 1 = one detector thread (DESIGN.md Sec. 10), N >= 2 =
  /// location-partitioned lanes (DESIGN.md Sec. 12). Ignored without a
  /// tool; the oracle is inline whatever the count.
  size_t Lanes = 0;
  /// Ring depth in batches per lane (clamped to >= 2).
  size_t RingBatches = kDefaultAsyncRingBatches;
};

/// Owns a run's detectors and the consumer that applies the event stream
/// to them. sink() and finish() must be called from the producer thread.
class DetectionPipeline {
public:
  /// \p Tool may be null (a base or recording-only run). With no tool, no
  /// oracle and no \p Record sink nothing is attached and sink() is null.
  DetectionPipeline(const DetectorConfig *Tool, const SymbolTable *Symbols,
                    const DetectionOptions &O, EventSink *Record = nullptr);

  /// Drains and joins any detector threads.
  ~DetectionPipeline();

  DetectionPipeline(const DetectionPipeline &) = delete;
  DetectionPipeline &operator=(const DetectionPipeline &) = delete;

  /// Where the producer sends its batches; null when nothing consumes.
  EventSink *sink() { return Head; }

  /// Waits until every batch sent to sink() is applied, then writes the
  /// detectors' reports, tool.* counters and lane accounting into \p R.
  /// Call once, after the last batch.
  void finish(RunResult &R);

private:
  /// The tool's private Stats: a detector thread must not share the map
  /// the producer keeps bumping. finish() folds it into the result; the
  /// tool.* names are disjoint from the producer's and the map is sorted,
  /// so the merge equals one shared map. The oracle's are never reported.
  Stats ToolCounters;
  Stats OracleCounters;
  /// The tool detector, unless N >= 2 lanes own its replicas.
  std::unique_ptr<RaceDetector> Tool;
  std::unique_ptr<RaceDetector> Oracle;
  /// The detectors applied on the producer thread: the oracle, and the
  /// tool when Lanes == 0.
  DetectorSink Inline;
  /// The tool alone, applied on the one lane's thread.
  DetectorSink LaneTool;
  /// Declared after the detectors they feed, so destruction joins the
  /// lane threads before anything they reference dies.
  std::unique_ptr<AsyncSink> OneLane;
  std::unique_ptr<ShardedSink> Lanes;
  TeeSink Tee;
  EventSink *Head = nullptr;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_DETECTIONPIPELINE_H
