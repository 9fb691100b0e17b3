//===- ShardedSink.h - Location-partitioned parallel detection --*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded detection backend (DESIGN.md Sec. 12): the tool's events
/// fan out to N >= 2 detector worker threads, each owning a full
/// RaceDetector replica whose shadow state covers a disjoint partition of
/// the program's locations. (One lane needs none of this machinery: the
/// pipeline runs it as an AsyncSink over the tool's DetectorSink.) Check
/// events (field checks, array checks, array allocations) route to
/// exactly one shard by a hash of their object id — object granularity,
/// so coalesced multi-field checks stay atomic, per-object slot arrays
/// stay whole, and every partitioned counter sums across shards to
/// exactly the single-detector value.
/// Synchronization events (acquire/release, volatiles, fork/join,
/// barrier, thread lifecycle, periodic commits) are applied ONCE, by the
/// producer, to a SyncClockTable (DESIGN.md Sec. 13), which ships the
/// post-edge clocks of the threads each edge changed. The edge's marker
/// (sequence, horizon, post-edge HB census, decoded edge) and its clocks
/// are written once into the batch's shared SyncSegment, which every
/// lane's slot for that batch names. Lanes install the shipped clocks
/// into their own per-thread views, commit deferred footprints, and
/// sample memory off the marker; every HB read on the check path reads
/// the lane's own views.
///
/// Segments are reused round-robin over the ring capacity Cap. Every
/// lane gets a slot in every batch that carries a tool sync edge, so
/// holding every lane's slot for sync batch k proves each lane has
/// retired its slot for sync batch k - Cap, the last reader of the
/// segment batch k reuses. Sync state is therefore bounded by the ring
/// capacity and the lanes' views, not by the number of edges.
///
/// Every tool event carries a producer-assigned sequence number through
/// its shard's SPSC ring, and every staged event additionally carries the
/// sequence of the last sync edge before it (its sync horizon; every lane
/// sees every sync edge).
/// A worker checks the horizon against the last sync edge it applied
/// before touching the detector — the enforcement of the ordering
/// invariant that a shard never processes an access published after a
/// sync edge it has not applied yet (structurally guaranteed by the
/// per-lane FIFO; violations are counted, and the differential tests
/// assert zero).
///
/// finish() merges the shards back into one RunResult byte-identical to
/// the inline and one-lane paths: counters sum (every partitioned
/// counter is bumped in exactly one shard), peak-memory gauges are
/// reconstructed from lockstep per-shard sample logs (max of the
/// replicated HB bytes plus the sum of the partitioned shadow bytes, per
/// sample point), and races merge by a stable sort on their RaceOrder
/// keys (first-occurrence stream position).
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_SHARDEDSINK_H
#define BIGFOOT_EVENTS_SHARDEDSINK_H

#include "events/EventSink.h"
#include "events/SpscBatchRing.h"
#include "runtime/Detector.h"
#include "runtime/SyncClockTable.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace bigfoot {

struct RunResult;

/// The tool sync edges of one batch, written once by the producer and read
/// by every shard lane whose slot for that batch names the segment.
struct SyncSegment {
  /// One sync edge as a lane applies it. The clocks were already applied
  /// writer-side; the marker carries the stamps a lane's ordering check
  /// and race order need, the decoded edge for footprint commits, the
  /// writer's post-edge HB census for memory samples, and where its
  /// parties and shipped clocks sit in this segment.
  struct Marker {
    uint64_t Seq = 0;
    uint64_t Horizon = 0; ///< The tool sync edge staged before this one.
    uint64_t HbBytes = 0;
    SyncEdgeKind Kind = SyncEdgeKind::None;
    ThreadId Tid = 0;
    uint32_t PartyIndex = 0;
    uint32_t PartyCount = 0;
    /// End of this edge's records in Clocks; they begin where the
    /// previous marker's end.
    uint32_t ClockEnd = 0;
  };
  /// Ascending by Seq; lanes interleave them with their events.
  std::vector<Marker> Markers;
  std::vector<ThreadId> Parties; ///< Barrier party lists.
  /// Shipped clock records (SyncClockTable::apply's format).
  std::vector<uint64_t> Clocks;

  void clear() {
    Markers.clear();
    Parties.clear();
    Clocks.clear();
  }

  /// Bytes the segment holds allocated.
  size_t residentBytes() const {
    return sizeof(SyncSegment) + Markers.capacity() * sizeof(Marker) +
           Parties.capacity() * sizeof(ThreadId) +
           Clocks.capacity() * sizeof(uint64_t);
  }
};

/// One ring slot of the fan-out: an event batch plus the per-event
/// sequence stamps the merge and the ordering check need.
struct ShardBatch {
  std::vector<Event> Events;
  std::vector<uint32_t> Payload;
  /// Sequence of each event among the tool's events (1-based, all lanes
  /// share the numbering).
  std::vector<uint64_t> Seq;
  /// Sequence of the last sync edge staged to this lane before each
  /// event — the sync edge the event depends on.
  std::vector<uint64_t> Horizon;
  /// The batch's tool sync edges, shared with every other lane's slot
  /// for the same batch; null when it carried none.
  const SyncSegment *Sync = nullptr;

  void clear() {
    Events.clear();
    Payload.clear();
    Seq.clear();
    Horizon.clear();
    Sync = nullptr;
  }
};

/// Post-drain statistics for one worker lane.
struct ShardLaneStats {
  uint64_t Events = 0;  ///< Events applied by this lane.
  uint64_t Markers = 0; ///< Sync markers applied.
  uint64_t Batches = 0; ///< Slots published to this lane's ring.
  uint64_t Stalls = 0;  ///< Producer blocked on this lane's full ring.
  uint64_t BusyNs = 0;  ///< Lane thread busy time (waits excluded).
};

/// The most lanes a run may ask for.
inline constexpr size_t kMaxLanes = 64;

/// Parses a lane count: a decimal integer from 0 to kMaxLanes. Anything
/// else — a sign, trailing text, an empty string, a word, a larger
/// number — is rejected with nullopt.
std::optional<size_t> parseLaneCount(std::string_view Text);

/// EventSink that fans the tool's events out to per-shard detector
/// workers; events not targeted at the tool are skipped.
/// consumeBatch() and drain() must be called from one producer thread;
/// each shard's detector is touched only by its worker thread until
/// drain() returns, after which finish() may merge from the producer.
class ShardedSink final : public EventSink {
public:
  /// Spawns \p Lanes worker threads (clamped to >= 1), each running a
  /// replica of \p Tool behind a ring of \p RingBatches slots (clamped
  /// to >= 2). \p Symbols seeds each replica's field-id namespace (may
  /// be null).
  ShardedSink(const DetectorConfig &Tool, const SymbolTable *Symbols,
              size_t Lanes, size_t RingBatches = kDefaultAsyncRingBatches);

  /// Drains, stops, and joins every lane.
  ~ShardedSink() override;

  ShardedSink(const ShardedSink &) = delete;
  ShardedSink &operator=(const ShardedSink &) = delete;

  size_t shards() const { return NumShards; }

  /// Producer side: routes checks to their lane, applies sync edges to
  /// the table and writes their markers and clocks into the batch's
  /// shared segment, then publishes one slot per lane that received
  /// anything. Blocks on any full lane ring (backpressure).
  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override;

  /// Blocks until every published slot on every lane has been applied.
  void drain();

  /// Resident bytes of the sync state that crosses to the lanes: the
  /// segments plus every shard lane's thread views. Call after drain().
  size_t syncStateBytes() const;

  /// Merges the shards into \p R: tool.* counters and peak gauges added
  /// to R.Counters, races and the lane accounting. Call once, after
  /// drain(), from the producer thread. Workers are idle by then, so
  /// replica state is safe to read.
  void finish(RunResult &R);

private:
  /// One worker lane: a detector replica behind its own SPSC ring.
  /// Counters must precede Detector (the detector holds a Stats&).
  struct Lane {
    Stats Counters;
    std::vector<RaceDetector::MemorySample> Samples;
    std::unique_ptr<RaceDetector> Detector;
    SpscSlotRing<ShardBatch> Ring;
    std::thread Worker;
    /// Consumer side; published to the producer by pop()'s release edge.
    uint64_t BusyNs = 0;
    uint64_t EventsApplied = 0;
    uint64_t MarkersApplied = 0;
    uint64_t ViewsInstalled = 0;
    uint64_t LastBroadcastSeq = 0;
    uint64_t OrderViolations = 0;
    /// Producer side: slot being staged during the current incoming
    /// batch.
    ShardBatch *Open = nullptr;

    explicit Lane(size_t RingBatches) : Ring(RingBatches) {}
  };

  /// True for event kinds every shard must see (sync edges, lifecycle,
  /// commits) — applied to the table and written to the segment as
  /// markers; false for the location-routed check/alloc kinds.
  static bool isBroadcast(EventKind K) {
    return K != EventKind::FieldCheck && K != EventKind::ArrayCheck &&
           K != EventKind::ArrayAlloc;
  }

  /// splitmix64 of the object id — the location partition.
  size_t shardOf(uint64_t Obj) const {
    uint64_t X = Obj + 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    X ^= X >> 31;
    return size_t(X % NumShards);
  }

  /// The slot \p L stages into for the current incoming batch.
  static ShardBatch &openSlot(Lane &L);

  /// Copies event \p E into \p L's open slot, stamped with its sequence
  /// and the sync edge it depends on.
  static void stage(Lane &L, const Event &E, const uint32_t *Payload,
                    uint64_t Seq, uint64_t Horizon);

  /// The segment for the current incoming batch's tool sync edges. The
  /// first call per batch opens a slot on every shard lane, then reuses
  /// the segment of the sync batch Cap batches back (see the file
  /// comment for why no lane still reads it).
  SyncSegment &openSync();

  /// Lane side: applies marker \p Index of segment \p S to the lane's
  /// detector.
  static void applyMarker(Lane &L, const SyncSegment &S, size_t Index);

  void laneLoop(Lane &L);

  /// Event kind -> runtime sync-edge kind.
  static SyncEdgeKind edgeKindOf(EventKind K);

  size_t NumShards;
  /// The sync writer. Touched only by the producer.
  SyncClockTable Table;
  /// One segment per ring slot, reused round-robin by sync batch number.
  /// The destructor joins the lanes before any segment dies.
  std::vector<SyncSegment> Segments;
  uint64_t SyncBatches = 0;           ///< Sync-carrying batches opened.
  SyncSegment *OpenSync = nullptr;    ///< This incoming batch's segment.
  /// Sequence of the last sync edge staged to the lanes (all of them see
  /// every sync edge).
  uint64_t SyncHorizon = 0;
  std::vector<std::unique_ptr<Lane>> Shards;
  /// Routed array checks touch the writer clock only when applied
  /// directly (deferred footprint adds never read HB state).
  bool TouchArrayChecks;
  std::atomic<bool> Stop{false};
  uint64_t NextSeq = 0; ///< Producer-side numbering of tool events.
  uint64_t RoutedEvents = 0;
  uint64_t BroadcastEvents = 0;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_SHARDEDSINK_H
