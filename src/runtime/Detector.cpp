//===- Detector.cpp - The DynamicBF race detector family -------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "runtime/Detector.h"

#include "runtime/ShadowCosts.h"
#include "support/LocKey.h"

using namespace bigfoot;

std::string ReportedRace::str() const {
  std::string Where = OnArray ? lockey::arrayRange(Id, Range.str())
                              : lockey::objField(Id, FieldName);
  const char *KindText = Kind == RaceKind::WriteWrite  ? "write-write"
                         : Kind == RaceKind::WriteRead ? "write-read"
                                                       : "read-write";
  return std::string(KindText) + " race on " + Where + " (" + Prev.str() +
         " vs " + Cur.str() + ")";
}

ArrayShadow &RaceDetector::shadowFor(ObjectId Arr, ThreadCache &TC) {
  // Arrays is append-only (cleared never), so a cached index whose entry
  // still matches Arr is the entry.
  if (TC.Arr == Arr && TC.ArrIdx < Arrays.size() &&
      Arrays.item(TC.ArrIdx).Key == Arr)
    return Arrays.item(TC.ArrIdx).Value;
  // Allocation event missed (e.g. array created before the tool was
  // attached): fall back to an empty array; onArrayAlloc normally runs
  // first.
  auto [Idx, IsNew] = Arrays.emplaceIdx(Arr, 0, Config.AdaptiveArrayShadow,
                                        Pool, Config.VectorClocksOnly);
  ArrayShadow &S = Arrays.item(Idx).Value;
  if (IsNew) {
    ArrayBytes += S.memoryBytes();
    ArrayLocs += S.locationCount();
  }
  TC.Arr = Arr;
  TC.ArrIdx = Idx;
  return S;
}

void RaceDetector::onArrayAlloc(ObjectId Arr, int64_t Length) {
  auto [S, IsNew] = Arrays.emplace(Arr, Length, Config.AdaptiveArrayShadow,
                                   Pool, Config.VectorClocksOnly);
  if (IsNew) {
    ArrayBytes += S.memoryBytes();
    ArrayLocs += S.locationCount();
  }
}

void RaceDetector::report(ReportedRace &&Race) {
  RaceKey Key;
  Key.OnArray = Race.OnArray;
  if (Race.OnArray) {
    Key.Loc = Race.Id;
    // StridedRange is canonically normalized, so the numeric triple
    // deduplicates exactly like the old Range.str() key.
    Key.Begin = Race.Range.begin();
    Key.End = Race.Range.end();
    Key.Stride = Race.Range.stride();
  } else {
    Key.Loc = packLoc(Race.Id, Race.Field);
  }
  if (!RaceKeys.insert(Key).second)
    return;
  // First report for this location: now (and only now) materialize the
  // field name, so str()/racyLocationKeys() stay self-contained even
  // after the detector is gone.
  if (!Race.OnArray)
    Race.FieldName = Syms.name(Race.Field);
  Races.push_back(std::move(Race));
  RaceOrderKeys.push_back({CurrentEventSeq, CurrentParty, CurrentEntrySeq});
  Counters.bump("tool.races");
}

void RaceDetector::resolveProxyTable() {
  if (Config.FieldProxy.empty())
    return;
  // Resolve ids in first-intern order. Interning a representative may
  // append new symbols; the loop keeps going until it covers those too.
  while (ProxyById.size() < Syms.size()) {
    FieldId I = static_cast<FieldId>(ProxyById.size());
    auto It = Config.FieldProxy.find(Syms.name(I));
    ProxyById.push_back(It == Config.FieldProxy.end()
                            ? I
                            : Syms.intern(It->second));
  }
}

FieldId RaceDetector::extendProxyTable(FieldId F) {
  // Extend in first-intern order, as resolveProxyTable does.
  while (ProxyById.size() <= F) {
    FieldId I = static_cast<FieldId>(ProxyById.size());
    auto It = Config.FieldProxy.find(Syms.name(I));
    ProxyById.push_back(It == Config.FieldProxy.end()
                            ? I
                            : Syms.intern(It->second));
  }
  return ProxyById[F];
}

void RaceDetector::checkFields(ThreadId T, ObjectId Obj,
                               const std::vector<std::string> &Fields,
                               AccessKind K) {
  IdScratch.clear();
  for (const std::string &F : Fields)
    IdScratch.push_back(Syms.intern(F));
  checkFields(T, Obj, IdScratch.data(), IdScratch.size(), K);
}

// Folded into both checkFields entry points: one call frame for the whole
// check keeps the per-access cost at probe + slot-scan + epoch ops.
[[gnu::always_inline]] inline void RaceDetector::runFieldOp(
    ObjectId Obj, uint32_t ObjIdx, FieldId Rep, AccessKind K, Epoch Cur,
    const VectorClock &C, ThreadCache &TC) {
  ShadowOpsC.bump();
  ObjShadow &OS = FieldShadow.item(ObjIdx).Value;
  // The caller resolved Obj, so a matching cached rep names a slot of
  // this very object; slots are append-only, so the index is stable.
  uint32_t SlotIdx;
  if (TC.FieldRep == Rep && TC.FieldSlotIdx < OS.Slots.size() &&
      OS.Slots[TC.FieldSlotIdx].Rep == Rep) {
    SlotIdx = TC.FieldSlotIdx;
  } else {
    SlotIdx = static_cast<uint32_t>(OS.Slots.size());
    for (uint32_t I = 0; I != OS.Slots.size(); ++I)
      if (OS.Slots[I].Rep == Rep) {
        SlotIdx = I;
        break;
      }
    if (SlotIdx == OS.Slots.size()) {
      OS.Slots.emplace_back(Rep);
      FieldBytes += sizeof(FieldSlot);
      ++FieldLocs;
    }
    TC.FieldRep = Rep;
    TC.FieldSlotIdx = SlotIdx;
  }
  FastTrackState &State = OS.Slots[SlotIdx].State;
  // Epoch-only states stay 24 POD bytes through any epoch-only op, so the
  // (pool-chasing) byte recount only runs when a pooled clock is in play
  // before or after the op.
  bool WasInflated = State.readVc() != ClockPool::kNone ||
                     State.writeVc() != ClockPool::kNone;
  size_t Before =
      WasInflated ? shadowcost::stateBytes(State, Pool) : 0;
  // DJIT+ keeps every location in vector-clock mode. Deflation never
  // happens there, so only never-touched locations need forcing.
  if (Config.VectorClocksOnly && State.writeVc() == ClockPool::kNone) {
    State.forceVectorClocks(Pool);
    if (!WasInflated) {
      WasInflated = true;
      Before = sizeof(FastTrackState);
    }
  }
  std::optional<RaceInfo> Race = K == AccessKind::Read
                                     ? State.onRead(Cur, C, Pool)
                                     : State.onWrite(Cur, C, Pool);
  if (WasInflated || State.readVc() != ClockPool::kNone) {
    if (!WasInflated)
      Before = sizeof(FastTrackState); // Inflated during this op.
    // Unsigned wrap-around keeps the diff correct when the state shrinks.
    FieldBytes += shadowcost::stateBytes(State, Pool) - Before;
  }
  if (Race) {
    ReportedRace R;
    R.Kind = Race->Kind;
    R.OnArray = false;
    R.Id = Obj;
    R.Field = Rep;
    R.Prev = Race->Prev;
    R.Cur = Race->Cur;
    report(std::move(R));
  }
}

[[gnu::always_inline]] inline void
RaceDetector::fieldCheck(ThreadId T, ObjectId Obj, const FieldId *Fields,
                         size_t NumFields, AccessKind K) {
  CheckEventsFieldC.bump();
  ThreadCache &TC = cacheFor(T);
  auto [C, Cur] = Hb.current(T);

  // Resolve the object once for the whole (possibly coalesced) check.
  // FieldShadow is append-only, so a cached index whose entry still
  // matches Obj is the entry.
  uint32_t ObjIdx;
  if (TC.FieldObj == Obj && TC.FieldObjIdx < FieldShadow.size() &&
      FieldShadow.item(TC.FieldObjIdx).Key == Obj) {
    ObjIdx = TC.FieldObjIdx;
  } else {
    auto [Idx, IsNew] = FieldShadow.emplaceIdx(Obj);
    if (IsNew)
      FieldBytes += shadowcost::kEntryKeyBytes + sizeof(ObjShadow);
    ObjIdx = Idx;
    TC.FieldObj = Obj;
    TC.FieldObjIdx = Idx;
    TC.FieldRep = kNoSym; // The slot cache belonged to the old object.
  }

  if (NumFields == 1) {
    // The overwhelmingly common shape (and every fully compressed group
    // after instrumentation): no dedupe pass at all.
    runFieldOp(Obj, ObjIdx, proxyOf(Fields[0]), K, Cur, C, TC);
    return;
  }

  // Map fields through the proxy table and deduplicate: a coalesced check
  // on a fully compressed group performs a single shadow operation.
  // Checks carry a handful of fields at most, so a linear scan beats a
  // sort — and processing in first-occurrence order keeps the dense slot
  // arrays in program-order, which the caches like.
  RepScratch.clear();
  for (size_t I = 0; I != NumFields; ++I) {
    FieldId Rep = proxyOf(Fields[I]);
    bool Seen = false;
    for (FieldId Prev : RepScratch)
      Seen |= Prev == Rep;
    if (!Seen)
      RepScratch.push_back(Rep);
  }
  for (FieldId Rep : RepScratch)
    runFieldOp(Obj, ObjIdx, Rep, K, Cur, C, TC);
}

void RaceDetector::applyArray(ThreadId T, ObjectId Arr, const StridedRange &R,
                              AccessKind K) {
  ThreadCache &TC = cacheFor(T);
  auto [C, Cur] = Hb.current(T);
  ArrayShadow &Shadow = shadowFor(Arr, TC);
  size_t BytesBefore = Shadow.memoryBytes();
  size_t LocsBefore = Shadow.locationCount();
  ShadowOpResult Result = Shadow.apply(R, K, Cur, C);
  // Unsigned wrap-around keeps the diffs correct even when a state
  // shrinks.
  ArrayBytes += Shadow.memoryBytes() - BytesBefore;
  ArrayLocs += Shadow.locationCount() - LocsBefore;
  ShadowOpsC.bump(Result.ShadowOps);
  RefinementsC.bump(Result.Refinements);
  for (const RaceInfo &Race : Result.Races) {
    ReportedRace Rep;
    Rep.Kind = Race.Kind;
    Rep.OnArray = true;
    Rep.Id = Arr;
    Rep.Range = R;
    Rep.Prev = Race.Prev;
    Rep.Cur = Race.Cur;
    report(std::move(Rep));
  }
}

void RaceDetector::checkFields(ThreadId T, ObjectId Obj,
                               const FieldId *Fields, size_t NumFields,
                               AccessKind K) {
  fieldCheck(T, Obj, Fields, NumFields, K);
}

[[gnu::always_inline]] inline void
RaceDetector::arrayCheck(ThreadId T, ObjectId Arr, const StridedRange &R,
                         AccessKind K) {
  CheckEventsArrayC.bump();
  if (!Config.DeferArrayChecks) {
    applyArray(T, Arr, R, K);
    return;
  }
  ThreadCache &TC = cacheFor(T);
  // Footprinting: defer to the next synchronization operation (Section 4).
  if (PendingByThread.size() <= T)
    PendingByThread.resize(T + 1);
  FlatMap<Footprint> &Map = PendingByThread[T];
  // Pending maps are cleared wholesale at commits, so the cached index
  // must re-match both bounds and key before use.
  uint32_t FpIdx;
  if (TC.PendArr == Arr && TC.PendIdx < Map.size() &&
      Map.item(TC.PendIdx).Key == Arr) {
    FpIdx = TC.PendIdx;
  } else {
    auto [Idx, IsNew] = Map.emplaceIdx(Arr);
    if (IsNew) {
      PendingBytes += shadowcost::kEntryKeyBytes;
      Map.item(Idx).Value.EntrySeq = CurrentEventSeq;
    }
    FpIdx = Idx;
    TC.PendArr = Arr;
    TC.PendIdx = Idx;
  }
  Footprint &FP = Map.item(FpIdx).Value;
  size_t FragsBefore = FP.Reads.fragments() + FP.Writes.fragments();
  RangeSet &Set = K == AccessKind::Read ? FP.Reads : FP.Writes;
  Set.add(R);
  FootprintAddsC.bump();
  size_t Frags = FP.Reads.fragments() + FP.Writes.fragments();
  PendingBytes += (Frags - FragsBefore) * sizeof(StridedRange);
  // Scattered access patterns can fragment a footprint without bound;
  // committing early is always sound (the checks stay inside the same
  // release-free span) and keeps footprint maintenance linear.
  if (Frags > 32) {
    // applyArray touches no pending map, so FP stays valid across it.
    for (const StridedRange &Range : FP.Writes.ranges())
      applyArray(T, Arr, Range, AccessKind::Write);
    for (const StridedRange &Range : FP.Reads.ranges())
      applyArray(T, Arr, Range, AccessKind::Read);
    FP.Reads.clear();
    FP.Writes.clear();
    PendingBytes -= Frags * sizeof(StridedRange);
    EarlyCommitsC.bump();
  }
}

void RaceDetector::checkArrayRange(ThreadId T, ObjectId Arr,
                                   const StridedRange &R, AccessKind K) {
  arrayCheck(T, Arr, R, K);
}

size_t RaceDetector::applyBatch(const Event *Events, size_t N,
                                const uint32_t *Payload, uint8_t Target) {
  size_t Applied = 0;
  for (const Event *E = Events, *End = Events + N; E != End; ++E) {
    if (!(E->Target & Target))
      continue;
    ++Applied;
    switch (E->Kind) {
    case EventKind::FieldCheck:
      fieldCheck(E->Tid, E->Obj, Payload + E->PayloadIndex, E->PayloadCount,
                 E->Access);
      break;
    case EventKind::ArrayCheck:
      arrayCheck(E->Tid, E->Obj, StridedRange(E->Begin, E->End, E->Stride),
                 E->Access);
      break;
    case EventKind::ArrayAlloc:
      onArrayAlloc(E->Obj, static_cast<int64_t>(E->Aux));
      break;
    case EventKind::Acquire:
      onAcquire(E->Tid, E->Obj);
      break;
    case EventKind::Release:
      onRelease(E->Tid, E->Obj);
      break;
    case EventKind::VolatileRead:
      onVolatileRead(E->Tid, E->Obj, E->Field);
      break;
    case EventKind::VolatileWrite:
      onVolatileWrite(E->Tid, E->Obj, E->Field);
      break;
    case EventKind::Fork:
      onFork(E->Tid, static_cast<ThreadId>(E->Aux));
      break;
    case EventKind::Join:
      onJoin(E->Tid, static_cast<ThreadId>(E->Aux));
      break;
    case EventKind::Barrier:
      // Barriers are rare (one event per full round), so rebuilding the
      // party vector from the payload stays off the hot path.
      onBarrier(std::vector<ThreadId>(Payload + E->PayloadIndex,
                                      Payload + E->PayloadIndex +
                                          E->PayloadCount));
      break;
    case EventKind::ThreadBegin:
      break; // Stream marker only; no detector effect.
    case EventKind::ThreadExit:
      onThreadExit(E->Tid);
      break;
    case EventKind::Commit:
      periodicCommit(E->Tid);
      break;
    }
  }
  return Applied;
}

size_t RaceDetector::applyOwned(const Event *Events, size_t N,
                                const uint32_t *Payload) {
  size_t Applied = 0;
  for (const Event *E = Events, *End = Events + N; E != End; ++E) {
    if (!(E->Target & kTargetTool))
      continue;
    // Every lane sees every tool event, so each numbers them alike.
    ++CurrentEventSeq;
    bool Located = E->Kind == EventKind::FieldCheck ||
                   E->Kind == EventKind::ArrayCheck ||
                   E->Kind == EventKind::ArrayAlloc;
    if (Located && laneOf(E->Obj, NumLanes) != OwnLane) {
      // Another lane's object. The check's HB read would have given the
      // acting thread its first clock; deferred array checks read none.
      if (E->Kind == EventKind::FieldCheck ||
          (E->Kind == EventKind::ArrayCheck && !Config.DeferArrayChecks))
        Hb.current(E->Tid);
      continue;
    }
    Applied += applyBatch(E, 1, Payload, kTargetTool);
  }
  return Applied;
}

void RaceDetector::commitFootprints(ThreadId T) {
  if (!Config.DeferArrayChecks || T >= PendingByThread.size())
    return;
  FlatMap<Footprint> &Map = PendingByThread[T];
  if (Map.empty())
    return;
  for (auto &Entry : Map) {
    CurrentEntrySeq = Entry.Value.EntrySeq;
    // Writes first: a write subsumes a read of the same element.
    for (const StridedRange &R : Entry.Value.Writes.ranges())
      applyArray(T, Entry.Key, R, AccessKind::Write);
    for (const StridedRange &R : Entry.Value.Reads.ranges())
      applyArray(T, Entry.Key, R, AccessKind::Read);
    CurrentEntrySeq = 0;
    CommitsC.bump();
    PendingBytes -= shadowcost::kEntryKeyBytes +
                    (Entry.Value.Reads.fragments() +
                     Entry.Value.Writes.fragments()) *
                        sizeof(StridedRange);
  }
  Map.clear();
}

void RaceDetector::onAcquire(ThreadId T, ObjectId Lock) {
  commitFootprints(T);
  Hb.onAcquire(T, Lock);
  sampleMemory();
}

void RaceDetector::onRelease(ThreadId T, ObjectId Lock) {
  commitFootprints(T);
  Hb.onRelease(T, Lock);
}

void RaceDetector::onVolatileRead(ThreadId T, ObjectId Obj, FieldId Field) {
  commitFootprints(T);
  Hb.onVolatileRead(T, Obj, Field);
}

void RaceDetector::onVolatileWrite(ThreadId T, ObjectId Obj, FieldId Field) {
  commitFootprints(T);
  Hb.onVolatileWrite(T, Obj, Field);
}

void RaceDetector::onFork(ThreadId Parent, ThreadId Child) {
  commitFootprints(Parent);
  Hb.onFork(Parent, Child);
}

void RaceDetector::onJoin(ThreadId Joiner, ThreadId Joined) {
  commitFootprints(Joiner);
  Hb.onJoin(Joiner, Joined);
}

void RaceDetector::onBarrier(const std::vector<ThreadId> &Parties) {
  // Parties commit in party order; the index is the RaceOrder tiebreak
  // that keeps commit races from different parties mergeable in this
  // exact order when the parties' arrays live in different lanes.
  for (size_t I = 0; I < Parties.size(); ++I) {
    CurrentParty = I;
    commitFootprints(Parties[I]);
  }
  CurrentParty = 0;
  Hb.onBarrier(Parties);
  sampleMemory();
}

void RaceDetector::onThreadExit(ThreadId T) {
  commitFootprints(T);
  Hb.onThreadExit(T);
  sampleMemoryNow();
}

std::set<std::string> RaceDetector::racyLocationKeys() const {
  std::set<std::string> Keys;
  for (const ReportedRace &R : Races) {
    if (R.OnArray)
      Keys.insert(lockey::array(R.Id));
    else
      Keys.insert(lockey::objField(R.Id, R.FieldName));
  }
  return Keys;
}

size_t RaceDetector::auditShadowBytes() const {
  size_t Bytes = Hb.auditMemoryBytes();
  for (const auto &Entry : FieldShadow) {
    Bytes += shadowcost::kEntryKeyBytes + sizeof(ObjShadow);
    for (const FieldSlot &S : Entry.Value.Slots)
      // The slot plus the pooled clocks behind it; expressed through the
      // one stateBytes() model so incremental and audit cannot diverge.
      Bytes += sizeof(FieldSlot) - sizeof(FastTrackState) +
               shadowcost::stateBytes(S.State, Pool);
  }
  for (const auto &Entry : Arrays)
    Bytes += Entry.Value.auditMemoryBytes();
  for (const FlatMap<Footprint> &Map : PendingByThread)
    for (const auto &Entry : Map)
      Bytes += shadowcost::kEntryKeyBytes +
               (Entry.Value.Reads.fragments() +
                Entry.Value.Writes.fragments()) *
                   sizeof(StridedRange);
  return Bytes;
}

size_t RaceDetector::auditShadowLocationCount() const {
  size_t N = 0;
  for (const auto &Entry : FieldShadow)
    N += Entry.Value.Slots.size();
  for (const auto &Entry : Arrays)
    N += Entry.Value.locationCount();
  return N;
}

void RaceDetector::sampleMemory() {
  // Sample sparsely so sync-heavy programs are not dominated by gauge
  // bookkeeping (RoadRunner samples on a timer for the same reason).
  if (++MemorySampleTick % 64 != 1)
    return;
  sampleMemoryNow();
}

void RaceDetector::sampleMemoryNow() {
  size_t HbB = Hb.memoryBytes();
  if (SampleLog) {
    // On lanes: defer the gauge to the merge, which needs the replicated
    // (HB) and partitioned (shadow) components separately per sample
    // point to reconstruct the undivided peak exactly.
    SampleLog->push_back({HbB, FieldBytes + ArrayBytes + PendingBytes,
                          shadowLocationCount()});
    return;
  }
  Counters.gaugeMax("tool.peakShadowBytes",
                    HbB + FieldBytes + ArrayBytes + PendingBytes);
  Counters.gaugeMax("tool.peakShadowLocations", shadowLocationCount());
}

//===----------------------------------------------------------------------===
// Named configurations.
//===----------------------------------------------------------------------===

DetectorConfig bigfoot::fastTrackConfig() {
  DetectorConfig C;
  C.Name = "fasttrack";
  return C;
}

DetectorConfig bigfoot::djitConfig() {
  DetectorConfig C;
  C.Name = "djit";
  C.VectorClocksOnly = true;
  return C;
}

DetectorConfig
bigfoot::redCardConfig(std::map<std::string, std::string> Proxies) {
  DetectorConfig C;
  C.Name = "redcard";
  C.FieldProxy = std::move(Proxies);
  return C;
}

DetectorConfig bigfoot::slimStateConfig() {
  DetectorConfig C;
  C.Name = "slimstate";
  C.DeferArrayChecks = true;
  C.AdaptiveArrayShadow = true;
  return C;
}

DetectorConfig
bigfoot::slimCardConfig(std::map<std::string, std::string> Proxies) {
  DetectorConfig C;
  C.Name = "slimcard";
  C.DeferArrayChecks = true;
  C.AdaptiveArrayShadow = true;
  C.FieldProxy = std::move(Proxies);
  return C;
}

DetectorConfig
bigfoot::bigFootConfig(std::map<std::string, std::string> Proxies) {
  DetectorConfig C;
  C.Name = "bigfoot";
  C.DeferArrayChecks = true;
  C.AdaptiveArrayShadow = true;
  C.FieldProxy = std::move(Proxies);
  return C;
}
