//===- ShardedSink.cpp - Location-partitioned parallel detection ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/ShardedSink.h"

#include "events/DetectionPipeline.h"
#include "events/DetectorSink.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace bigfoot;

std::optional<size_t> bigfoot::parseLaneCount(std::string_view Text) {
  size_t Lanes = 0;
  if (!parseNumber(Text, Lanes) || Lanes > kMaxLanes)
    return std::nullopt;
  return Lanes;
}

ShardedSink::ShardedSink(const DetectorConfig &Tool,
                         const SymbolTable *Symbols, size_t Lanes,
                         size_t RingBatches)
    : NumShards(std::max<size_t>(1, Lanes)),
      // Direct array checks read HB state (first-touch clock init the
      // writer census must mirror); deferred adds do not.
      TouchArrayChecks(!Tool.DeferArrayChecks) {
  RingBatches = std::max<size_t>(2, RingBatches);
  Segments.resize(RingBatches);
  Shards.reserve(NumShards);
  for (size_t S = 0; S < NumShards; ++S) {
    auto L = std::make_unique<Lane>(RingBatches);
    L->Detector = std::make_unique<RaceDetector>(Tool, L->Counters, Symbols);
    L->Detector->useSyncMarkers();
    // Redirect memory sampling into the lockstep log; the merge
    // reconstructs the gauges, so shard Stats stay purely summable.
    L->Detector->setMemorySampleLog(&L->Samples);
    Shards.push_back(std::move(L));
  }
  for (auto &L : Shards)
    L->Worker = std::thread([this, Lp = L.get()] { laneLoop(*Lp); });
}

ShardedSink::~ShardedSink() {
  drain();
  Stop.store(true, std::memory_order_release);
  for (auto &L : Shards)
    L->Ring.wakeConsumer();
  for (auto &L : Shards)
    L->Worker.join();
}

ShardBatch &ShardedSink::openSlot(Lane &L) {
  if (!L.Open) {
    L.Open = &L.Ring.acquireSlot();
    L.Open->clear();
  }
  return *L.Open;
}

void ShardedSink::stage(Lane &L, const Event &E, const uint32_t *Payload,
                        uint64_t Seq, uint64_t Horizon) {
  ShardBatch &B = openSlot(L);
  Event Copy = E;
  if (E.PayloadCount) {
    // Rewrite the payload reference against this lane's arena.
    Copy.PayloadIndex = uint32_t(B.Payload.size());
    B.Payload.insert(B.Payload.end(), Payload + E.PayloadIndex,
                     Payload + E.PayloadIndex + E.PayloadCount);
  } else {
    Copy.PayloadIndex = 0;
  }
  B.Events.push_back(Copy);
  B.Seq.push_back(Seq);
  B.Horizon.push_back(Horizon);
}

SyncSegment &ShardedSink::openSync() {
  if (OpenSync)
    return *OpenSync;
  // Every lane's slot for this batch first: holding them all proves each
  // lane retired its slot for the sync batch that last used the segment.
  for (auto &L : Shards)
    openSlot(*L);
  OpenSync = &Segments[SyncBatches++ % Segments.size()];
  OpenSync->clear();
  for (auto &L : Shards)
    L->Open->Sync = OpenSync;
  return *OpenSync;
}

SyncEdgeKind ShardedSink::edgeKindOf(EventKind K) {
  switch (K) {
  case EventKind::Acquire:
    return SyncEdgeKind::Acquire;
  case EventKind::Release:
    return SyncEdgeKind::Release;
  case EventKind::VolatileRead:
    return SyncEdgeKind::VolatileRead;
  case EventKind::VolatileWrite:
    return SyncEdgeKind::VolatileWrite;
  case EventKind::Fork:
    return SyncEdgeKind::Fork;
  case EventKind::Join:
    return SyncEdgeKind::Join;
  case EventKind::Barrier:
    return SyncEdgeKind::Barrier;
  case EventKind::ThreadBegin:
    return SyncEdgeKind::ThreadBegin;
  case EventKind::ThreadExit:
    return SyncEdgeKind::ThreadExit;
  case EventKind::Commit:
    return SyncEdgeKind::Commit;
  default:
    return SyncEdgeKind::None; // Check kinds never reach here.
  }
}

void ShardedSink::consumeBatch(const Event *Events, size_t N,
                               const uint32_t *Payload) {
  for (size_t I = 0; I < N; ++I) {
    const Event &E = Events[I];
    if (!(E.Target & kTargetTool))
      continue;
    uint64_t Seq = ++NextSeq;
    if (!isBroadcast(E.Kind)) {
      ++RoutedEvents;
      // First-touch parity: the writer's census must grow exactly when
      // a single detector's would (checks initialize the acting thread's
      // clock on their HB read).
      if (E.Kind == EventKind::FieldCheck ||
          (E.Kind == EventKind::ArrayCheck && TouchArrayChecks))
        Table.touchThread(E.Tid);
      stage(*Shards[shardOf(E.Obj)], E, Payload, Seq, SyncHorizon);
      continue;
    }
    // Apply the edge once and write its marker and shipped clocks once,
    // into the segment every lane's slot for this batch names.
    ++BroadcastEvents;
    SyncSegment &S = openSync();
    SyncEdge Edge;
    Edge.Kind = edgeKindOf(E.Kind);
    Edge.Tid = E.Tid;
    Edge.Obj = E.Obj;
    Edge.Field = E.Field;
    Edge.Aux = E.Aux;
    SyncSegment::Marker M;
    if (E.PayloadCount) {
      Edge.Parties = Payload + E.PayloadIndex;
      Edge.NumParties = E.PayloadCount;
      M.PartyIndex = static_cast<uint32_t>(S.Parties.size());
      M.PartyCount = E.PayloadCount;
      S.Parties.insert(S.Parties.end(), Edge.Parties,
                       Edge.Parties + Edge.NumParties);
    }
    M.HbBytes = Table.apply(Edge, S.Clocks);
    M.Seq = Seq;
    M.Horizon = SyncHorizon;
    M.Kind = Edge.Kind;
    M.Tid = E.Tid;
    M.ClockEnd = static_cast<uint32_t>(S.Clocks.size());
    S.Markers.push_back(M);
    // The horizon advances after staging, so a sync edge's own horizon
    // is the sync edge before it.
    SyncHorizon = Seq;
  }
  // Publish once per lane per incoming batch: lanes see batch boundaries
  // no finer than the producer's, keeping per-slot overhead amortized.
  for (auto &L : Shards)
    if (L->Open) {
      L->Ring.publish();
      L->Open = nullptr;
    }
  OpenSync = nullptr;
}

void ShardedSink::applyMarker(Lane &L, const SyncSegment &S, size_t Index) {
  const SyncSegment::Marker &M = S.Markers[Index];
  // Same ordering invariant as staged events: every earlier marker must
  // already be applied (structural per-lane FIFO; counted if violated).
  if (L.LastBroadcastSeq != M.Horizon)
    ++L.OrderViolations;
  RaceDetector &D = *L.Detector;
  D.setEventSeq(M.Seq);
  uint32_t ClockBegin = Index ? S.Markers[Index - 1].ClockEnd : 0;
  SyncEdge E;
  E.Kind = M.Kind;
  E.Tid = M.Tid;
  if (M.PartyCount) {
    E.Parties = S.Parties.data() + M.PartyIndex;
    E.NumParties = M.PartyCount;
  }
  E.Clocks = S.Clocks.data() + ClockBegin;
  E.ClockWords = M.ClockEnd - ClockBegin;
  L.ViewsInstalled += D.applySyncMarker(E, M.HbBytes);
  L.LastBroadcastSeq = M.Seq;
  ++L.MarkersApplied;
}

void ShardedSink::drain() {
  for (auto &L : Shards)
    L->Ring.drain();
}

void ShardedSink::laneLoop(Lane &L) {
  using Clock = std::chrono::steady_clock;
  RaceDetector &D = *L.Detector;
  for (;;) {
    ShardBatch *B = L.Ring.waitPeek(Stop);
    if (!B)
      return; // Stop observed with an empty ring: every slot applied.
    auto T0 = Clock::now();
    const uint32_t *Words = B->Payload.data();
    // Interleave the segment's markers with the event stream by
    // sequence (both are staged ascending, the ranges never overlap).
    const SyncSegment *S = B->Sync;
    size_t MI = 0, MN = S ? S->Markers.size() : 0;
    for (size_t I = 0, N = B->Events.size(); I < N; ++I) {
      const Event &E = B->Events[I];
      while (MI < MN && S->Markers[MI].Seq < B->Seq[I])
        applyMarker(L, *S, MI++);
      // Ordering invariant: every broadcast this event was published
      // after must already be applied. The per-lane FIFO makes this
      // structural; the check turns any future regression into a counted
      // violation instead of a silent wrong answer.
      if (L.LastBroadcastSeq != B->Horizon[I])
        ++L.OrderViolations;
      D.setEventSeq(B->Seq[I]);
      applyEvent(D, E, Words);
    }
    while (MI < MN)
      applyMarker(L, *S, MI++);
    L.EventsApplied += B->Events.size();
    L.BusyNs += uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
            .count());
    L.Ring.pop();
  }
}

void ShardedSink::finish(RunResult &R) {
  // The run-end sample, in lockstep across shards (the producer appends
  // it after drain, so every lane has applied its whole stream). The HB
  // component is the writer's final census — it may have grown past the
  // last shipped edge via first-touch inits on trailing routed checks,
  // exactly like an inline detector's.
  for (auto &L : Shards) {
    L->Detector->syncSharedHbBytes(Table.hbBytes());
    L->Detector->sampleMemoryNow();
  }

  // Partitioned counters: every tool.* name is bumped in exactly one
  // shard per contributing event, so summing final values reproduces the
  // single-detector map (0-valued names never appear, matching a
  // detector that never bumped them). The names are disjoint from the
  // producer's vm.* ones already in R.Counters.
  for (auto &L : Shards)
    for (const auto &[Name, Value] : L->Counters.all())
      R.Counters.bump(Name, Value);

  // Peak gauges: recombine sample k across shards — HB bytes are
  // replica-identical (max is defensive), shadow bytes and locations are
  // partitioned sums — then take the max over k, exactly what one
  // detector's gaugeMax over the undivided census computes.
  size_t MaxSamples = 0;
  for (auto &L : Shards)
    MaxSamples = std::max(MaxSamples, L->Samples.size());
  for (size_t K = 0; K < MaxSamples; ++K) {
    size_t Hb = 0, Partial = 0, Locs = 0;
    for (auto &L : Shards) {
      if (K >= L->Samples.size())
        continue;
      const RaceDetector::MemorySample &S = L->Samples[K];
      Hb = std::max(Hb, S.HbBytes);
      Partial += S.PartialBytes;
      Locs += S.Locations;
    }
    R.Counters.gaugeMax("tool.peakShadowBytes", Hb + Partial);
    R.Counters.gaugeMax("tool.peakShadowLocations", Locs);
  }

  // Races: stable sort on the RaceOrder keys reproduces first-occurrence
  // stream order (see RaceDetector::RaceOrder for why the sub-event
  // components break cross-shard commit ties exactly).
  struct Tagged {
    RaceDetector::RaceOrder Key;
    size_t Lane;
    size_t Idx;
  };
  std::vector<Tagged> All;
  for (size_t S = 0; S < Shards.size(); ++S) {
    const auto &Keys = Shards[S]->Detector->raceOrder();
    for (size_t I = 0; I < Keys.size(); ++I)
      All.push_back({Keys[I], S, I});
  }
  std::stable_sort(All.begin(), All.end(), [](const Tagged &A,
                                              const Tagged &B) {
    if (A.Key.EventSeq != B.Key.EventSeq)
      return A.Key.EventSeq < B.Key.EventSeq;
    if (A.Key.Party != B.Key.Party)
      return A.Key.Party < B.Key.Party;
    return A.Key.EntrySeq < B.Key.EntrySeq;
  });
  for (const Tagged &T : All)
    R.ToolRaces.push_back(Shards[T.Lane]->Detector->races()[T.Idx]);
  for (auto &L : Shards) {
    std::set<std::string> Keys = L->Detector->racyLocationKeys();
    R.ToolRacyLocations.insert(Keys.begin(), Keys.end());
  }

  // Lane accounting for the [shards] summary.
  for (auto &L : Shards) {
    ShardLaneStats LS;
    LS.Events = L->EventsApplied;
    LS.Markers = L->MarkersApplied;
    LS.Batches = L->Ring.published();
    LS.Stalls = L->Ring.fullStalls();
    LS.BusyNs = L->BusyNs;
    R.ShardLanes.push_back(LS);
    R.AsyncBatches += LS.Batches;
    R.AsyncStalls += LS.Stalls;
    R.ShardHorizonAdvances += L->MarkersApplied;
    R.ShardTableReads += L->ViewsInstalled;
    R.ShardOrderViolations += L->OrderViolations;
    R.DetectorSeconds = std::max(R.DetectorSeconds, LS.BusyNs * 1e-9);
  }
  R.ShardRoutedEvents = RoutedEvents;
  R.ShardBroadcastEvents = BroadcastEvents;
  R.ShardSyncPublishes = Table.clocksShipped();
  R.ShardSyncTableBytes = syncStateBytes();
}

size_t ShardedSink::syncStateBytes() const {
  size_t Bytes = 0;
  for (const SyncSegment &S : Segments)
    Bytes += S.residentBytes();
  for (const auto &L : Shards)
    Bytes += L->Detector->threadViewBytes();
  return Bytes;
}
