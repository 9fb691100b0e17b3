//===- DetectionPipeline.h - Detectors on the event stream ------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detection end of a run, written once for live execution and for
/// trace replay. A DetectionPipeline builds the tool and oracle
/// detectors, applies the tool inline (a DetectorSink on the producer
/// thread) or on N >= 1 lanes, and tees an optional recording sink onto
/// the same stream. Lane i of N is a thread of one AsyncSink driving a
/// DetectorSink whose RaceDetector owns the objects with laneOf(Obj, N)
/// == i and applies every sync and lifecycle event itself (DESIGN.md
/// Sec. 10 and 12); one lane owns every object. The per-access oracle is a test reference and
/// is always applied inline. The producer (the VM's event ring, or the
/// trace reader) feeds sink(); finish() drains every consumer, merges the
/// lanes and writes the detection half of the RunResult.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_DETECTIONPIPELINE_H
#define BIGFOOT_EVENTS_DETECTIONPIPELINE_H

#include "events/DetectorSink.h"
#include "events/SpscBatchRing.h"
#include "runtime/Detector.h"
#include "support/Stats.h"

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace bigfoot {

class AsyncSink;

/// Post-drain statistics for one detector lane.
struct ShardLaneStats {
  uint64_t Events = 0;  ///< Tool events the lane's detector applied.
  uint64_t Batches = 0; ///< Batches the lane applied (every one).
  uint64_t Stalls = 0;  ///< Producer blocked with this lane furthest behind.
  uint64_t BusyNs = 0;  ///< Lane thread busy time (waits excluded).
};

/// The most lanes a run may ask for.
inline constexpr size_t kMaxLanes = 64;

/// Parses a lane count: a decimal integer from 0 to kMaxLanes. Anything
/// else — a sign, trailing text, an empty string, a word, a larger
/// number — is rejected with nullopt.
std::optional<size_t> parseLaneCount(std::string_view Text);

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
  /// Lanes only: batches handed through the ring / times the producer
  /// blocked on a full ring.
  uint64_t AsyncBatches = 0;
  uint64_t AsyncStalls = 0;
  /// Lanes only: one tally per lane.
  std::vector<ShardLaneStats> ShardLanes;
  /// Always zero: every lane applies every sync edge itself, so there is
  /// no sync-clock table and no ordering check. Kept while detbench
  /// reads them.
  uint64_t ShardTableReads = 0;
  uint64_t ShardSyncPublishes = 0;
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
  /// N >= 1 = N lanes, each owning a partition of the objects (DESIGN.md
  /// Sec. 10 and 12). Ignored without a tool; the oracle is inline
  /// whatever the count.
  size_t Lanes = 0;
  /// Lane ring depth in batches (clamped to >= 2).
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
  /// One lane: a detector that owns one partition of the objects, and
  /// the DetectorSink its thread drives. Counters and Samples precede the
  /// detector that writes them.
  struct Lane {
    Stats Counters;
    std::vector<RaceDetector::MemorySample> Samples;
    RaceDetector Detector;
    DetectorSink Sink;

    Lane(const DetectorConfig &Tool, const SymbolTable *Symbols, size_t Index,
         size_t Lanes);
  };

  /// Drains the lanes and merges them into \p R.
  void mergeLanes(RunResult &R);

  /// The inline tool's private Stats, folded into the result by finish();
  /// the tool.* names are disjoint from the producer's and the map is
  /// sorted, so the merge equals one shared map. The oracle's are never
  /// reported.
  Stats ToolCounters;
  Stats OracleCounters;
  /// The tool detector when it runs inline (Lanes == 0).
  std::unique_ptr<RaceDetector> Tool;
  std::unique_ptr<RaceDetector> Oracle;
  /// The detectors applied on the producer thread: the oracle, and the
  /// inline tool.
  DetectorSink Inline;
  std::vector<std::unique_ptr<Lane>> Lanes;
  /// The lanes' threads. Declared after the lanes they drive, so
  /// destruction joins the threads before anything they touch dies.
  std::unique_ptr<AsyncSink> LaneThreads;
  TeeSink Tee;
  EventSink *Head = nullptr;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_DETECTIONPIPELINE_H
