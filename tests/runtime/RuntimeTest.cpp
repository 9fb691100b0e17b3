//===- RuntimeTest.cpp - DynamicBF runtime unit tests -----------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "runtime/ArrayShadow.h"
#include "runtime/Detector.h"
#include "runtime/HbState.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {

/// A tiny harness for driving FastTrackState directly.
struct Clocks {
  ClockPool Pool;
  VectorClock T0, T1;
  Clocks() {
    T0.set(0, 1);
    T1.set(1, 1);
  }
};

} // namespace

TEST(VectorClock, JoinIsPointwiseMax) {
  VectorClock A, B;
  A.set(0, 5);
  A.set(1, 2);
  B.set(1, 7);
  B.set(2, 3);
  A.joinWith(B);
  EXPECT_EQ(A.get(0), 5u);
  EXPECT_EQ(A.get(1), 7u);
  EXPECT_EQ(A.get(2), 3u);
}

TEST(VectorClock, CoversEpochs) {
  VectorClock C;
  C.set(2, 10);
  EXPECT_TRUE(C.covers(Epoch(2, 10)));
  EXPECT_TRUE(C.covers(Epoch(2, 9)));
  EXPECT_FALSE(C.covers(Epoch(2, 11)));
  EXPECT_TRUE(C.covers(Epoch())); // Bottom.
}

TEST(FastTrack, SequentialAccessesNoRace) {
  Clocks C;
  FastTrackState S;
  EXPECT_FALSE(S.onWrite(0, C.T0, C.Pool).has_value());
  EXPECT_FALSE(S.onRead(0, C.T0, C.Pool).has_value());
  EXPECT_FALSE(S.onWrite(0, C.T0, C.Pool).has_value());
}

TEST(FastTrack, ConcurrentWritesRace) {
  Clocks C;
  FastTrackState S;
  EXPECT_FALSE(S.onWrite(0, C.T0, C.Pool).has_value());
  auto Race = S.onWrite(1, C.T1, C.Pool);
  ASSERT_TRUE(Race.has_value());
  EXPECT_EQ(Race->Kind, RaceKind::WriteWrite);
}

TEST(FastTrack, WriteThenConcurrentReadRaces) {
  Clocks C;
  FastTrackState S;
  EXPECT_FALSE(S.onWrite(0, C.T0, C.Pool).has_value());
  auto Race = S.onRead(1, C.T1, C.Pool);
  ASSERT_TRUE(Race.has_value());
  EXPECT_EQ(Race->Kind, RaceKind::WriteRead);
}

TEST(FastTrack, OrderedWriteReadNoRace) {
  Clocks C;
  FastTrackState S;
  EXPECT_FALSE(S.onWrite(0, C.T0, C.Pool).has_value());
  // Thread 1 synchronizes with thread 0 (its clock covers T0@1).
  VectorClock T1Synced = C.T1;
  T1Synced.joinWith(C.T0);
  EXPECT_FALSE(S.onRead(1, T1Synced, C.Pool).has_value());
}

TEST(FastTrack, ConcurrentReadsNoRaceThenWriterRaces) {
  Clocks C;
  FastTrackState S;
  EXPECT_FALSE(S.onRead(0, C.T0, C.Pool).has_value());
  EXPECT_FALSE(S.onRead(1, C.T1, C.Pool).has_value()); // Inflates to read-shared.
  EXPECT_TRUE(S.isReadShared());
  VectorClock T2;
  T2.set(2, 1);
  auto Race = S.onWrite(2, T2, C.Pool);
  ASSERT_TRUE(Race.has_value());
  EXPECT_EQ(Race->Kind, RaceKind::ReadWrite);
}

TEST(FastTrack, ReadSharedWriteAfterJoinAllNoRace) {
  Clocks C;
  FastTrackState S;
  EXPECT_FALSE(S.onRead(0, C.T0, C.Pool).has_value());
  EXPECT_FALSE(S.onRead(1, C.T1, C.Pool).has_value());
  VectorClock Writer;
  Writer.set(2, 1);
  Writer.joinWith(C.T0);
  Writer.joinWith(C.T1);
  EXPECT_FALSE(S.onWrite(2, Writer, C.Pool).has_value());
  EXPECT_FALSE(S.isReadShared()) << "write deflates the read set";
}

TEST(HbState, LockHandOffOrdersAccesses) {
  HbState Hb;
  (void)Hb.clockOf(0);
  (void)Hb.clockOf(1);
  Epoch E0 = Hb.clockOf(0).epochOf(0);
  Hb.onRelease(0, /*Lock=*/42);
  Hb.onAcquire(1, /*Lock=*/42);
  EXPECT_TRUE(Hb.clockOf(1).covers(E0));
}

TEST(HbState, ForkJoinOrdering) {
  HbState Hb;
  Epoch Parent = Hb.clockOf(0).epochOf(0);
  Hb.onFork(0, 1);
  EXPECT_TRUE(Hb.clockOf(1).covers(Parent));
  Epoch Child = Hb.clockOf(1).epochOf(1);
  Hb.onThreadExit(1);
  Hb.onJoin(0, 1);
  EXPECT_TRUE(Hb.clockOf(0).covers(Child));
}

TEST(HbState, BarrierAllToAll) {
  HbState Hb;
  Epoch E0 = Hb.clockOf(0).epochOf(0);
  Epoch E1 = Hb.clockOf(1).epochOf(1);
  Hb.onBarrier({0, 1});
  EXPECT_TRUE(Hb.clockOf(0).covers(E1));
  EXPECT_TRUE(Hb.clockOf(1).covers(E0));
}

//===----------------------------------------------------------------------===
// Adaptive array shadow.
//===----------------------------------------------------------------------===

TEST(ArrayShadow, WholeArrayChecksStayCoarse) {
  Clocks C;
  ArrayShadow S(1000, /*Adaptive=*/true, C.Pool);
  auto R1 = S.apply(StridedRange(0, 1000), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(R1.ShadowOps, 1u);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Coarse);
  EXPECT_EQ(S.locationCount(), 1u);
}

TEST(ArrayShadow, HalfArrayRefinesToSegments) {
  // The paper's movePts(a, 0, a.length/2) scenario: the shadow refines to
  // two locations, each covering half.
  Clocks C;
  ArrayShadow S(1000, true, C.Pool);
  S.apply(StridedRange(0, 1000), AccessKind::Write, 0, C.T0);
  auto R = S.apply(StridedRange(0, 500), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Segments);
  EXPECT_EQ(S.locationCount(), 2u);
  EXPECT_EQ(R.ShadowOps, 1u);
  EXPECT_GE(R.Refinements, 1u);
}

TEST(ArrayShadow, StridedCommitsUseResidueClasses) {
  Clocks C;
  ArrayShadow S(1024, true, C.Pool);
  auto R0 = S.apply(StridedRange(0, 1024, 2), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Strided);
  EXPECT_EQ(S.locationCount(), 2u);
  EXPECT_EQ(R0.ShadowOps, 1u);
  auto R1 = S.apply(StridedRange(1, 1024, 2), AccessKind::Write, 1, C.T1);
  EXPECT_EQ(R1.ShadowOps, 1u);
  EXPECT_TRUE(R1.Races.empty()) << "disjoint residue classes never race";
}

TEST(ArrayShadow, TriangularPatternDegradesToFine) {
  // The lufact pattern: shrinking prefixes eventually exceed the segment
  // budget and the representation falls back to fine-grained.
  Clocks C;
  ArrayShadow S(2000, true, C.Pool);
  for (int64_t Lo = 0; Lo < 400; ++Lo)
    S.apply(StridedRange(Lo, 2000), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Fine);
  EXPECT_EQ(S.locationCount(), 2000u);
}

TEST(ArrayShadow, RefinementPreservesHistory) {
  // A write by T0 recorded coarsely must still race with T1 after
  // refinement splits the location.
  Clocks C;
  ArrayShadow S(100, true, C.Pool);
  S.apply(StridedRange(0, 100), AccessKind::Write, 0, C.T0);
  auto R = S.apply(StridedRange(10, 20), AccessKind::Write, 1, C.T1);
  ASSERT_FALSE(R.Races.empty());
  EXPECT_EQ(R.Races[0].Kind, RaceKind::WriteWrite);
}

TEST(ArrayShadow, NonAdaptiveIsAlwaysFine) {
  Clocks C;
  ArrayShadow S(64, /*Adaptive=*/false, C.Pool);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Fine);
  auto R = S.apply(StridedRange(0, 64), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(R.ShadowOps, 64u);
}

TEST(ArrayShadow, OutOfBoundsRangeIsClipped) {
  Clocks C;
  ArrayShadow S(10, true, C.Pool);
  auto R = S.apply(StridedRange(5, 100), AccessKind::Read, 0, C.T0);
  EXPECT_GE(R.ShadowOps, 1u); // Only [5..10) processed.
}

//===----------------------------------------------------------------------===
// Detector-level behaviour.
//===----------------------------------------------------------------------===

TEST(Detector, FieldProxyCompressesGroupCheck) {
  Stats S;
  std::map<std::string, std::string> Proxies{{"x", "x"},
                                             {"y", "x"},
                                             {"z", "x"}};
  RaceDetector D(bigFootConfig(Proxies), S);
  D.checkFields(0, 7, {"x", "y", "z"}, AccessKind::Write);
  EXPECT_EQ(S.get("tool.shadowOps"), 1u);
  EXPECT_EQ(D.shadowLocationCount(), 1u);

  Stats S2;
  RaceDetector NoProxy(fastTrackConfig(), S2);
  NoProxy.checkFields(0, 7, {"x", "y", "z"}, AccessKind::Write);
  EXPECT_EQ(S2.get("tool.shadowOps"), 3u);
}

TEST(Detector, DeferredChecksCommitAtSync) {
  Stats S;
  RaceDetector D(slimStateConfig(), S);
  D.onArrayAlloc(3, 100);
  for (int64_t I = 0; I < 100; ++I)
    D.checkArrayRange(0, 3, StridedRange::singleton(I), AccessKind::Write);
  EXPECT_EQ(S.get("tool.shadowOps"), 0u) << "nothing before the sync";
  D.onRelease(0, 99);
  // The footprint coalesced into one whole-array range: one shadow op.
  EXPECT_EQ(S.get("tool.shadowOps"), 1u);
  EXPECT_EQ(S.get("tool.commits"), 1u);
}

TEST(Detector, DeferredRaceStillDetected) {
  Stats S;
  RaceDetector D(bigFootConfig({}), S);
  D.onArrayAlloc(5, 50);
  D.checkArrayRange(0, 5, StridedRange(0, 50), AccessKind::Write);
  D.onRelease(0, 1); // Commit T0.
  D.checkArrayRange(1, 5, StridedRange(0, 50), AccessKind::Write);
  D.onThreadExit(1); // Commit T1.
  EXPECT_FALSE(D.races().empty());
}

TEST(Detector, ImmediateToolDetectsFieldRace) {
  Stats S;
  RaceDetector D(fastTrackConfig(), S);
  D.checkFields(0, 1, {"f"}, AccessKind::Write);
  D.checkFields(1, 1, {"f"}, AccessKind::Write);
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::WriteWrite);
}

TEST(Detector, LockOrderingPreventsRace) {
  Stats S;
  RaceDetector D(fastTrackConfig(), S);
  D.onAcquire(0, 100);
  D.checkFields(0, 1, {"f"}, AccessKind::Write);
  D.onRelease(0, 100);
  D.onAcquire(1, 100);
  D.checkFields(1, 1, {"f"}, AccessKind::Write);
  D.onRelease(1, 100);
  EXPECT_TRUE(D.races().empty());
}

TEST(Detector, RacesAreDeduplicatedPerLocation) {
  Stats S;
  RaceDetector D(fastTrackConfig(), S);
  D.checkFields(0, 1, {"f"}, AccessKind::Write);
  D.checkFields(1, 1, {"f"}, AccessKind::Write);
  D.checkFields(1, 1, {"f"}, AccessKind::Write);
  EXPECT_EQ(D.races().size(), 1u);
}

TEST(Detector, MemorySamplingTracksPeak) {
  Stats S;
  RaceDetector D(fastTrackConfig(), S);
  D.onArrayAlloc(1, 1000);
  D.checkArrayRange(0, 1, StridedRange(0, 1000), AccessKind::Write);
  D.sampleMemory();
  EXPECT_GT(S.get("tool.peakShadowBytes"), 0u);
  EXPECT_GE(S.get("tool.peakShadowLocations"), 1000u);
}

namespace {

/// The first object id from \p From on that lane \p Lane of \p Lanes owns.
ObjectId objectOfLane(size_t Lane, size_t Lanes, ObjectId From) {
  while (laneOf(From, Lanes) != Lane)
    ++From;
  return From;
}

} // namespace

// A thread that no sync edge has touched gets its first clock from its
// first check's HB read. A lane that skips another lane's check must
// still give it that clock, or its HB census — the replicated part of
// every memory sample the lane merge takes the max of — falls short of
// the inline detector's. Each lane here sees such a thread check a field
// of another lane's object and, without deferred array checks, a range
// of another lane's array; every lane's logged samples must carry the
// unpartitioned detector's HB bytes, and their partitioned parts must
// sum to its shadow bytes.
TEST(Detector, LanesKeepTheInlineHbCensusOnFirstTouch) {
  for (const DetectorConfig &Cfg : {fastTrackConfig(), bigFootConfig({})}) {
    for (size_t Lanes : {size_t(2), size_t(3)}) {
      std::string Tag = Cfg.Name + "/lanes" + std::to_string(Lanes);
      SymbolTable Syms;
      uint32_t F = Syms.intern("f");
      std::vector<Event> Batch;
      auto Add = [&Batch](EventKind K, ThreadId T, ObjectId Obj) {
        Event E;
        E.Kind = K;
        E.Tid = T;
        E.Obj = Obj;
        Batch.push_back(E);
        return &Batch.back();
      };
      // Thread 1's acquire is the first sync edge and the first sample.
      Add(EventKind::Acquire, 1, 1000);
      for (size_t L = 0; L < Lanes; ++L) {
        size_t Other = (L + 1) % Lanes;
        ObjectId Obj = objectOfLane(Other, Lanes, 10 * (L + 1));
        ObjectId Arr = objectOfLane(Other, Lanes, 500 + 10 * L);
        Add(EventKind::ArrayAlloc, 0, Arr)->Aux = 64;
        Event *C = Add(EventKind::FieldCheck, ThreadId(10 + L), Obj);
        C->Access = AccessKind::Write;
        C->PayloadCount = 1; // Field id F at payload word 0.
        Event *A = Add(EventKind::ArrayCheck, ThreadId(20 + L), Arr);
        A->Access = AccessKind::Read;
        A->Begin = 0;
        A->End = 64;
        A->Stride = 1;
      }
      // Thread exit samples unthrottled, after every first touch.
      Add(EventKind::ThreadExit, 1, 0);
      const uint32_t Payload[] = {F};

      Stats RefCounters;
      std::vector<RaceDetector::MemorySample> RefLog;
      RaceDetector Ref(Cfg, RefCounters, &Syms);
      Ref.setMemorySampleLog(&RefLog);
      Ref.applyBatch(Batch.data(), Batch.size(), Payload, kTargetTool);
      Ref.sampleMemoryNow();
      ASSERT_EQ(RefLog.size(), 3u) << Tag;
      ASSERT_GT(RefLog[1].HbBytes, RefLog[0].HbBytes) << Tag;

      std::vector<size_t> Partial(RefLog.size(), 0);
      for (size_t L = 0; L < Lanes; ++L) {
        Stats Counters;
        std::vector<RaceDetector::MemorySample> Log;
        RaceDetector D(Cfg, Counters, &Syms);
        D.ownPartition(L, Lanes);
        D.setMemorySampleLog(&Log);
        D.applyOwned(Batch.data(), Batch.size(), Payload);
        D.sampleMemoryNow();
        ASSERT_EQ(Log.size(), RefLog.size()) << Tag << " lane " << L;
        for (size_t K = 0; K < Log.size(); ++K) {
          EXPECT_EQ(Log[K].HbBytes, RefLog[K].HbBytes)
              << Tag << " lane " << L << " sample " << K;
          Partial[K] += Log[K].PartialBytes;
        }
      }
      for (size_t K = 0; K < RefLog.size(); ++K)
        EXPECT_EQ(Partial[K], RefLog[K].PartialBytes)
            << Tag << " sample " << K;
    }
  }
}
