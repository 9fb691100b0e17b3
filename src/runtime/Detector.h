//===- Detector.h - The DynamicBF race detector family ----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configurable dynamic race detector covering all five tools the
/// paper evaluates. They share the FastTrack core and differ in three
/// switches (Figure 2):
///
///   * DeferArrayChecks — per-thread footprints committed at the next
///     synchronization operation (SlimState, SlimCard, BigFoot),
///   * AdaptiveArrayShadow — compressed array representations (ditto),
///   * FieldProxy — static field-group compression for object shadow
///     locations (RedCard, SlimCard, BigFoot).
///
/// Check placement (which checks arrive here at all) is the instrumenter's
/// job; see src/instrument. Every check that arrives runs the state
/// machine: redundancy is removed statically or not at all, as in the
/// paper (DESIGN.md Sec. 11 gives the measurements behind that).
///
/// The event interface works on interned ids (support/Symbol.h) and the
/// shadow representation is cache-conscious (DESIGN.md Sec. 8): field
/// shadows are grouped per object in dense slot arrays, so a coalesced
/// check on N fields of one object resolves the object once — through a
/// per-thread last-slot cache in the common repeated-access case — and
/// then walks slots without further hash probes; inflated clocks live in
/// a detector-owned ClockPool; races deduplicate on packed numeric keys.
/// Strings appear only when a race is actually reported. Shadow memory
/// and location censuses are maintained incrementally through the single
/// byte-cost model in ShadowCosts.h, so shadowBytes()/
/// shadowLocationCount() are O(1); the audit variants walk everything and
/// must agree (asserted by the accounting test).
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_DETECTOR_H
#define BIGFOOT_RUNTIME_DETECTOR_H

#include "runtime/ArrayShadow.h"
#include "runtime/ClockPool.h"
#include "runtime/HbState.h"
#include "runtime/SyncClockTable.h"
#include "support/FlatMap.h"
#include "support/Stats.h"
#include "support/Symbol.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace bigfoot {

/// Detector configuration; the five named tools are factory functions
/// below.
struct DetectorConfig {
  std::string Name = "fasttrack";
  bool DeferArrayChecks = false;
  bool AdaptiveArrayShadow = false;
  /// DJIT+ mode: full vector clocks per shadow location instead of
  /// FastTrack's adaptive epochs (an extra baseline beyond the paper's
  /// five tools; DJIT+ is their shared ancestor).
  bool VectorClocksOnly = false;
  /// field -> proxy-group representative; empty means one shadow location
  /// per field.
  std::map<std::string, std::string> FieldProxy;
  /// Ignored: there is no dynamic check cache (DESIGN.md Sec. 11). Kept
  /// for detbench's nofilter leg until the pending benchmark change
  /// drops it.
  bool CheckFilter = true;
};

/// Always zero: there is no dynamic check cache. Kept, with
/// RaceDetector's accessor below, for detbench's nofilter leg until the
/// pending benchmark change drops it.
struct CheckFilterStats {
  uint64_t hits() const { return 0; }
  uint64_t misses() const { return 0; }
};

/// A reported race, deduplicated per shadow location.
struct ReportedRace {
  RaceKind Kind;
  bool OnArray = false;
  ObjectId Id = 0;
  FieldId Field = kNoSym;  ///< Proxy-representative id (objects).
  std::string FieldName;   ///< Rendered from Field at report time; the
                           ///< hot path never touches strings.
  StridedRange Range;      ///< Checked range for arrays.
  Epoch Prev, Cur;

  std::string str() const;
};

/// The detector. The host VM feeds it check events and synchronization
/// events; it updates shadow state and accumulates race reports and
/// counters.
class RaceDetector {
public:
  /// \p Symbols seeds the detector's field-id namespace (normally the host
  /// program's table, so the ids on incoming checks resolve without any
  /// translation); null starts empty, and the string entry points intern
  /// on demand.
  RaceDetector(DetectorConfig Config, Stats &Counters,
               const SymbolTable *Symbols = nullptr)
      : Config(std::move(Config)), Counters(Counters) {
    if (Symbols) {
      Syms = *Symbols;
      // With the host's table in hand, resolve the whole field -> proxy
      // representative map up front; the hot path is then a plain indexed
      // load with no string lookups.
      resolveProxyTable();
    }
  }

  const DetectorConfig &config() const { return Config; }

  /// The id of \p Name in this detector's symbol namespace (interning it
  /// if new) — for callers that build check field lists by hand.
  FieldId internField(std::string_view Name) { return Syms.intern(Name); }

  //===--- Check events ------------------------------------------------------
  /// A (possibly coalesced) field check on \p NumFields interned fields of
  /// \p Obj. The hot entry point: no strings touched, one object
  /// resolution for the whole group.
  void checkFields(ThreadId T, ObjectId Obj, const FieldId *Fields,
                   size_t NumFields, AccessKind K);

  /// String convenience (tests, ad-hoc drivers): interns and forwards.
  void checkFields(ThreadId T, ObjectId Obj,
                   const std::vector<std::string> &Fields, AccessKind K);

  /// A (possibly coalesced) array range check.
  void checkArrayRange(ThreadId T, ObjectId Arr, const StridedRange &R,
                       AccessKind K);

  /// Array allocation (length is needed for shadow compression).
  void onArrayAlloc(ObjectId Arr, int64_t Length);

  //===--- Synchronization events --------------------------------------------
  void onAcquire(ThreadId T, ObjectId Lock);
  void onRelease(ThreadId T, ObjectId Lock);
  void onVolatileRead(ThreadId T, ObjectId Obj, FieldId Field);
  void onVolatileWrite(ThreadId T, ObjectId Obj, FieldId Field);
  void onFork(ThreadId Parent, ThreadId Child);
  void onJoin(ThreadId Joiner, ThreadId Joined);
  void onBarrier(const std::vector<ThreadId> &Parties);
  void onThreadExit(ThreadId T);

  /// Commits thread \p T's pending footprints without any HB effect —
  /// the Section 3.3 "periodically commit deferred checks" extension for
  /// potentially non-terminating loops. Always sound: it only checks
  /// earlier within the same release-free span.
  void periodicCommit(ThreadId T) { commitFootprints(T); }

  //===--- Split-state mode (DESIGN.md Sec. 13) --------------------------------
  /// Switches this detector to marker mode: one writer (a SyncClockTable)
  /// applies the sync edges and ships post-edge thread clocks, so sync
  /// edges must arrive as applySyncMarker calls — the on*() mutators
  /// assert. The detector's HbState then holds only its views of the
  /// thread clocks: {T:1} until a marker ships T's clock. Owned mode is
  /// the default and keeps the single-detector behavior.
  void useSyncMarkers() { SyncMarkers = true; }

  /// Applies one sync-edge marker: commits the affected threads'
  /// pending footprints against the pre-edge views, installs the clocks
  /// shipped in E.Clocks, and samples memory at the same points the
  /// owned-mode handler would. \p HbBytesAfter is
  /// the writer's post-edge HB census, carried so lockstep memory
  /// samples reproduce a single detector's byte-exactly. Returns the
  /// number of clocks installed.
  size_t applySyncMarker(const SyncEdge &E, uint64_t HbBytesAfter);

  /// Refreshes the HB census for the run-end sample (the writer's state
  /// may have grown after the last marker via first-touch inits on
  /// trailing checks).
  void syncSharedHbBytes(uint64_t Bytes) { SharedHbBytes = Bytes; }

  /// Bytes of this detector's thread clocks; in marker mode, its views.
  size_t threadViewBytes() const { return Hb.memoryBytes(); }

  //===--- Results ------------------------------------------------------------
  const std::vector<ReportedRace> &races() const { return Races; }

  /// Where a race sits in the stream, for the sharded merge (DESIGN.md
  /// Sec. 12): the global sequence of the event whose application
  /// reported it, plus two sub-event components that break ties when one
  /// broadcast sync edge commits deferred footprints in several shards at
  /// once — the barrier party index (threads commit in party order) and
  /// the global sequence of the routed event that first inserted the
  /// committed footprint entry (entries commit in insertion order, and
  /// insertion order restricted to one shard's arrays equals the global
  /// insertion order restricted to them). Sorting merged races by
  /// (EventSeq, Party, EntrySeq) — stably, so same-shard same-key races
  /// keep their apply order — reproduces the single-detector report
  /// order exactly. All zeros outside sharded runs (setEventSeq unset).
  struct RaceOrder {
    uint64_t EventSeq = 0;
    uint64_t Party = 0;
    uint64_t EntrySeq = 0;
  };

  /// Order keys parallel to races().
  const std::vector<RaceOrder> &raceOrder() const { return RaceOrderKeys; }

  /// Stamps the global stream sequence of the event about to be applied
  /// (called by the sharded workers before each applyEvent).
  void setEventSeq(uint64_t Seq) { CurrentEventSeq = Seq; }

  /// Racy locations as strings (for differential tests): "obj#N.f" or
  /// "arr#N".
  std::set<std::string> racyLocationKeys() const;

  /// Current shadow memory (bytes) and live shadow location count. Both
  /// O(1): maintained incrementally across every shadow mutation.
  size_t shadowBytes() const {
    return Hb.memoryBytes() + FieldBytes + ArrayBytes + PendingBytes;
  }
  size_t shadowLocationCount() const { return FieldLocs + ArrayLocs; }

  /// Full-walk recomputations of the two censuses; must always equal the
  /// O(1) accessors (asserted by the accounting test).
  size_t auditShadowBytes() const;
  size_t auditShadowLocationCount() const;

  /// Records peak memory gauges into the stats (throttled).
  void sampleMemory();

  /// Unthrottled sample, for run end / thread exit.
  void sampleMemoryNow();

  /// One memory sample, split the way the sharded merge needs it: the HB
  /// component is replicated per shard (counted once, as a max), the
  /// shadow component is partitioned (summed across shards).
  struct MemorySample {
    size_t HbBytes = 0;      ///< HB census — the same in every lane.
    size_t PartialBytes = 0; ///< Field + array + pending — partitioned.
    size_t Locations = 0;    ///< shadowLocationCount() — partitioned.
  };

  /// Redirects memory sampling into \p Log instead of the gauge counters.
  /// Sample points are driven entirely by broadcast synchronization events
  /// plus the run-end sample, so every shard of a sharded run appends the
  /// same number of samples at the same stream positions; the merge
  /// recombines sample k across shards as max(HbBytes) + sum(PartialBytes)
  /// and takes the gauge max over k — byte-identical to a single detector
  /// sampling the undivided shadow state (DESIGN.md Sec. 12).
  void setMemorySampleLog(std::vector<MemorySample> *Log) {
    SampleLog = Log;
  }

  /// The arena backing every inflated clock of this detector's shadow
  /// locations (bench/test introspection).
  const ClockPool &clockPool() const { return Pool; }

  /// Always zero (see the struct). Kept for detbench's nofilter leg
  /// until the pending benchmark change drops it.
  CheckFilterStats filterStats() const { return {}; }

private:
  DetectorConfig Config;
  Stats &Counters;
  /// This detector's field-id namespace (a copy of the host program's
  /// table when seeded; detectors outlive no program but tests drive them
  /// bare).
  SymbolTable Syms;
  /// HB state: every clock in owned mode; in marker mode only the thread
  /// views, installed from shipped clocks.
  HbState Hb;
  /// Marker mode (sharded lanes): sync edges arrive as applySyncMarker.
  bool SyncMarkers = false;
  /// The writer's HB census at the last marker (for memory samples).
  uint64_t SharedHbBytes = 0;
  /// Arena for every inflated clock held by field, array, and footprint
  /// shadow state.
  ClockPool Pool;

  /// One field shadow location: the proxy-representative id it covers and
  /// its FastTrack state, laid out contiguously in the per-object slot
  /// array.
  struct FieldSlot {
    FieldId Rep;
    FastTrackState State;
    explicit FieldSlot(FieldId Rep) : Rep(Rep) {}
  };

  /// Dense per-object slot array: a coalesced check resolves the object
  /// once, then finds each field by a short linear scan (objects have a
  /// handful of proxy groups at most).
  struct ObjShadow {
    std::vector<FieldSlot> Slots;
  };

  /// Keyed by object id; slots inside are keyed by proxy-representative
  /// id in first-touch order.
  FlatMap<ObjShadow> FieldShadow;
  FlatMap<ArrayShadow> Arrays;

  /// Per-thread pending array footprints (read and write separately).
  struct Footprint {
    RangeSet Reads;
    RangeSet Writes;
    /// Global sequence of the event that inserted this entry (sharded
    /// runs; 0 otherwise). Not part of the shadow-byte cost model.
    uint64_t EntrySeq = 0;
  };
  /// Indexed by thread; each map is keyed by array id. Commit iterates in
  /// insertion order and clears the map wholesale.
  std::vector<FlatMap<Footprint>> PendingByThread;

  /// Per-thread last-resolved caches for the tight read-modify-write
  /// loops the benchmarks exercise. Indices are validated against the
  /// target map's current contents before use, so clear()/growth never
  /// needs explicit invalidation.
  struct ThreadCache {
    ObjectId FieldObj = ~uint64_t(0);
    uint32_t FieldObjIdx = 0;
    FieldId FieldRep = kNoSym;
    uint32_t FieldSlotIdx = 0;
    ObjectId Arr = ~uint64_t(0);
    uint32_t ArrIdx = 0;
    ObjectId PendArr = ~uint64_t(0);
    uint32_t PendIdx = 0;
  };
  std::vector<ThreadCache> TCaches;

  /// FieldId -> proxy representative id (identity where no proxy
  /// applies), extended lazily as ids appear.
  std::vector<FieldId> ProxyById;

  /// Packed numeric race-dedup key: no strings on the (hot) duplicate
  /// path. Object races key on packLoc(obj, rep); array races on the
  /// array id plus the canonical checked range.
  struct RaceKey {
    uint64_t Loc = 0;
    int64_t Begin = 0, End = 0, Stride = 0;
    bool OnArray = false;

    bool operator<(const RaceKey &O) const {
      if (OnArray != O.OnArray)
        return OnArray < O.OnArray;
      if (Loc != O.Loc)
        return Loc < O.Loc;
      if (Begin != O.Begin)
        return Begin < O.Begin;
      if (End != O.End)
        return End < O.End;
      return Stride < O.Stride;
    }
  };

  std::vector<ReportedRace> Races;
  std::set<RaceKey> RaceKeys;
  std::vector<RaceOrder> RaceOrderKeys; ///< Parallel to Races.
  uint64_t MemorySampleTick = 0;
  /// Non-null in sharded runs: samples are logged, not gauged.
  std::vector<MemorySample> *SampleLog = nullptr;
  /// Stream position of the event being applied (sharded runs only).
  uint64_t CurrentEventSeq = 0;
  /// Barrier party index while onBarrier commits its parties.
  uint64_t CurrentParty = 0;
  /// EntrySeq of the footprint entry commitFootprints is applying.
  uint64_t CurrentEntrySeq = 0;

  // Incremental censuses behind shadowBytes()/shadowLocationCount().
  size_t FieldBytes = 0;
  size_t FieldLocs = 0;
  size_t ArrayBytes = 0;
  size_t ArrayLocs = 0;
  size_t PendingBytes = 0;

  /// Reused proxy-dedupe buffer (checks carry at most a handful of
  /// fields; reuse keeps the hot path allocation-free).
  std::vector<FieldId> RepScratch;
  /// Reused intern buffer for the string checkFields entry point.
  std::vector<FieldId> IdScratch;

  HotCounter CheckEventsFieldC{Counters, "tool.checkEvents.field"};
  HotCounter CheckEventsArrayC{Counters, "tool.checkEvents.array"};
  HotCounter ShadowOpsC{Counters, "tool.shadowOps"};
  HotCounter RefinementsC{Counters, "tool.refinements"};
  HotCounter FootprintAddsC{Counters, "tool.footprintAdds"};
  HotCounter EarlyCommitsC{Counters, "tool.earlyCommits"};
  HotCounter CommitsC{Counters, "tool.commits"};

  ThreadCache &cacheFor(ThreadId T) {
    if (T >= TCaches.size()) [[unlikely]]
      TCaches.resize(T + 1);
    return TCaches[T];
  }

  /// The proxy representative for \p F: an indexed load when \p F was
  /// known at attach time, lazy resolution for later-interned ids.
  FieldId proxyOf(FieldId F);

  /// Resolves ProxyById for every currently interned id (constructor,
  /// when seeded with the host program's symbol table).
  void resolveProxyTable();

  /// One shadow operation on the slot for \p Rep of the object at dense
  /// index \p ObjIdx (already resolved).
  void runFieldOp(ObjectId Obj, uint32_t ObjIdx, FieldId Rep, AccessKind K,
                  Epoch Cur, const VectorClock &C, ThreadCache &TC);

  /// Applies a range directly to the array shadow.
  void applyArray(ThreadId T, ObjectId Arr, const StridedRange &R,
                  AccessKind K);

  /// Commits thread \p T's pending footprints (called before any
  /// synchronization operation by that thread).
  void commitFootprints(ThreadId T);

  void report(ReportedRace &&Race);

  ArrayShadow &shadowFor(ObjectId Arr, ThreadCache &TC);
};

//===--- The five paper configurations ---------------------------------------

DetectorConfig fastTrackConfig();
DetectorConfig djitConfig();
DetectorConfig redCardConfig(std::map<std::string, std::string> Proxies);
DetectorConfig slimStateConfig();
DetectorConfig slimCardConfig(std::map<std::string, std::string> Proxies);
DetectorConfig bigFootConfig(std::map<std::string, std::string> Proxies);

} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_DETECTOR_H
