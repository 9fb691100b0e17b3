//===- SpscBatchRingTest.cpp - Lane rings and sink edge cases ----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Coverage for the threaded detection consumers' moving parts
// (DESIGN.md Sec. 10 and 12) plus producer-side sink edges the differential
// goldens never reach: the SPSC batch ring under a real producer/consumer
// thread pair with randomized batch sizes, AsyncSink's drain and
// backpressure protocol, EventRing capacity clamping and empty flushes,
// and TeeSink fan-out / mid-stream rebinding.
//
//===----------------------------------------------------------------------===//

#include "events/AsyncSink.h"
#include "events/DetectionPipeline.h"
#include "events/EventSink.h"
#include "events/ShardedSink.h"
#include "events/SpscBatchRing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

using namespace bigfoot;

namespace {

/// Flattens every consumed event (and its payload words) into one log, so
/// tests can assert on exact delivery: counts, order, batch boundaries.
struct RecordingSink final : public EventSink {
  std::vector<Event> Events;
  std::vector<std::vector<uint32_t>> PayloadPerEvent;
  std::vector<size_t> BatchSizes;

  void consumeBatch(const Event *E, size_t N, const uint32_t *Payload) override {
    BatchSizes.push_back(N);
    for (size_t I = 0; I < N; ++I) {
      Events.push_back(E[I]);
      PayloadPerEvent.emplace_back(Payload + E[I].PayloadIndex,
                                   Payload + E[I].PayloadIndex +
                                       E[I].PayloadCount);
    }
  }
};

Event seqEvent(uint64_t Seq) {
  Event E;
  E.Kind = EventKind::Acquire;
  E.Tid = 1;
  E.Obj = 7;
  E.Aux = Seq; // Sequence number rides in Aux for order checks.
  return E;
}

//===--- SpscBatchRing --------------------------------------------------------

// The core stress: a real producer thread publishing batches of
// randomized sizes through a shallow ring (so wraparound and full-ring
// backpressure both happen constantly) while a consumer drains them. The
// consumer must observe every event exactly once, in publication order,
// with each event's payload intact.
TEST(SpscBatchRing, StressRandomizedBatchesKeepOrder) {
  constexpr uint64_t kTotalEvents = 50000;
  SpscBatchRing Ring(4);
  std::atomic<bool> Stop{false};

  std::vector<uint64_t> Consumed;
  Consumed.reserve(kTotalEvents);
  std::vector<uint32_t> PayloadSums;
  std::thread Consumer([&] {
    for (;;) {
      EventBatch *B = Ring.waitPeek(Stop);
      if (!B)
        return;
      for (const Event &E : B->Events) {
        Consumed.push_back(E.Aux);
        uint32_t Sum = 0;
        for (uint32_t I = 0; I < E.PayloadCount; ++I)
          Sum += B->Payload[E.PayloadIndex + I];
        PayloadSums.push_back(Sum);
      }
      Ring.pop();
    }
  });

  std::mt19937_64 Rng(42);
  std::vector<Event> Batch;
  std::vector<uint32_t> Payload;
  uint64_t Seq = 0, BatchesSent = 0;
  while (Seq < kTotalEvents) {
    size_t N = 1 + Rng() % 97; // 1..97 events per batch.
    if (N > kTotalEvents - Seq)
      N = size_t(kTotalEvents - Seq);
    Batch.clear();
    Payload.clear();
    for (size_t I = 0; I < N; ++I) {
      Event E = seqEvent(Seq);
      // Every third event carries payload: two words derived from Seq.
      if (Seq % 3 == 0) {
        E.PayloadIndex = uint32_t(Payload.size());
        E.PayloadCount = 2;
        Payload.push_back(uint32_t(Seq));
        Payload.push_back(uint32_t(Seq >> 3));
      }
      Batch.push_back(E);
      ++Seq;
    }
    EventBatch &Slot = Ring.acquireSlot();
    Slot.assign(Batch.data(), Batch.size(), Payload.data());
    Ring.publish();
    ++BatchesSent;
  }
  Ring.drain();
  Stop.store(true, std::memory_order_release);
  Ring.wakeConsumer();
  Consumer.join();

  // No lost, duplicated, or reordered events: the consumed sequence is
  // exactly 0..N-1.
  ASSERT_EQ(Consumed.size(), kTotalEvents);
  for (uint64_t I = 0; I < kTotalEvents; ++I)
    ASSERT_EQ(Consumed[size_t(I)], I) << "at index " << I;
  ASSERT_EQ(PayloadSums.size(), kTotalEvents);
  for (uint64_t I = 0; I < kTotalEvents; ++I) {
    uint32_t Want = I % 3 == 0 ? uint32_t(I) + uint32_t(I >> 3) : 0;
    ASSERT_EQ(PayloadSums[size_t(I)], Want) << "payload at " << I;
  }
  EXPECT_EQ(Ring.published(), BatchesSent);
}

// The shutdown edge under the sanitizers: the producer publishes its
// final batches and immediately sets Stop + wakes — no drain() — so the
// stop signal races the consumer's last waitPeek/pop round. The
// publish-before-Stop release ordering is the contract under test: a
// consumer that observes Stop with an empty ring must already have seen
// every published batch, so nothing can be lost on any interleaving.
// Many short rounds vary where the race lands (consumer asleep, mid-pop,
// between peek and wait).
TEST(SpscBatchRing, StopSignalRacesFinalPublish) {
  for (int Round = 0; Round < 200; ++Round) {
    SpscBatchRing Ring(2);
    std::atomic<bool> Stop{false};
    std::atomic<uint64_t> Consumed{0};
    std::thread Consumer([&] {
      for (;;) {
        EventBatch *B = Ring.waitPeek(Stop);
        if (!B)
          return; // Stop observed with an empty ring: nothing more comes.
        Consumed.fetch_add(B->Events.size(), std::memory_order_relaxed);
        Ring.pop();
      }
    });
    uint64_t Sent = 0;
    size_t Batches = 1 + size_t(Round) % 7;
    std::vector<Event> Evs;
    for (size_t B = 0; B < Batches; ++B) {
      Evs.clear();
      size_t N = 1 + (size_t(Round) + B) % 5;
      for (size_t I = 0; I < N; ++I)
        Evs.push_back(seqEvent(Sent++));
      EventBatch &Slot = Ring.acquireSlot();
      Slot.assign(Evs.data(), Evs.size(), nullptr);
      Ring.publish();
    }
    Stop.store(true, std::memory_order_release);
    Ring.wakeConsumer();
    Consumer.join();
    ASSERT_EQ(Consumed.load(), Sent) << "round " << Round;
  }
}

// Ring destruction while the consumer thread is mid-batch: the owner
// (here playing AsyncSink's destructor sequence) must drain, signal, and
// join before the ring's storage goes away, every round, with a slow
// consumer guaranteeing destruction overlaps active consumption.
TEST(SpscBatchRing, DestructionBehindDrainJoinsActiveConsumer) {
  for (int Round = 0; Round < 30; ++Round) {
    uint64_t Consumed = 0, Sent = 0;
    {
      SpscBatchRing Ring(2);
      std::atomic<bool> Stop{false};
      std::thread Consumer([&] {
        for (;;) {
          EventBatch *B = Ring.waitPeek(Stop);
          if (!B)
            return;
          // Slow apply: the producer's drain overlaps a busy consumer.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          Consumed += B->Events.size();
          Ring.pop();
        }
      });
      std::vector<Event> Evs;
      for (size_t B = 0; B < 4; ++B) {
        Evs.clear();
        for (size_t I = 0; I < 3; ++I)
          Evs.push_back(seqEvent(Sent++));
        EventBatch &Slot = Ring.acquireSlot();
        Slot.assign(Evs.data(), Evs.size(), nullptr);
        Ring.publish();
      }
      Ring.drain();
      Stop.store(true, std::memory_order_release);
      Ring.wakeConsumer();
      Consumer.join();
    } // Ring destroyed here; the join above must have made that safe.
    ASSERT_EQ(Consumed, Sent) << "round " << Round;
  }
}

// drain() on a never-used ring returns immediately, and a sub-minimum
// capacity is clamped rather than rejected.
TEST(SpscBatchRing, DrainOnEmptyAndCapacityClamp) {
  SpscBatchRing Ring(0);
  EXPECT_GE(Ring.capacity(), 2u);
  Ring.drain(); // Must not block.
  EXPECT_EQ(Ring.peek(), nullptr);
  EXPECT_EQ(Ring.published(), 0u);
  EXPECT_EQ(Ring.fullStalls(), 0u);
}

//===--- AsyncSink ------------------------------------------------------------

// Events pushed through an AsyncSink arrive at the downstream sink
// complete and in order once drain() returns — the property the VM's
// result-sampling depends on.
TEST(AsyncSink, DrainDeliversEverythingInOrder) {
  RecordingSink Downstream;
  AsyncSink Async(Downstream, 4);

  constexpr uint64_t kEvents = 10000;
  std::vector<Event> Batch;
  uint64_t Seq = 0;
  while (Seq < kEvents) {
    Batch.clear();
    for (size_t I = 0; I < 64 && Seq < kEvents; ++I)
      Batch.push_back(seqEvent(Seq++));
    Async.consumeBatch(Batch.data(), Batch.size(), nullptr);
  }
  Async.drain();

  ASSERT_EQ(Downstream.Events.size(), kEvents);
  for (uint64_t I = 0; I < kEvents; ++I)
    ASSERT_EQ(Downstream.Events[size_t(I)].Aux, I);
  EXPECT_EQ(Async.batchesConsumed(), (kEvents + 63) / 64);
}

/// Downstream sink that sleeps per batch, forcing the producer into the
/// ring-full path.
struct SlowSink final : public EventSink {
  std::atomic<uint64_t> Seen{0};
  void consumeBatch(const Event *, size_t N, const uint32_t *) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Seen.fetch_add(N, std::memory_order_relaxed);
  }
};

// A slow consumer behind a shallow ring must throttle the producer
// (bounded memory — the backpressure contract) without dropping events.
TEST(AsyncSink, BackpressureThrottlesWithoutLoss) {
  SlowSink Downstream;
  constexpr uint64_t kBatches = 32;
  uint64_t Sent = 0;
  {
    AsyncSink Async(Downstream, 2);
    Event E = seqEvent(0);
    for (uint64_t B = 0; B < kBatches; ++B) {
      Async.consumeBatch(&E, 1, nullptr);
      ++Sent;
    }
    Async.drain();
    EXPECT_EQ(Downstream.Seen.load(), Sent);
    EXPECT_GT(Async.producerStalls(), 0u);
    EXPECT_GT(Async.busyNs(), 0u);
    EXPECT_EQ(Async.batchesConsumed(), kBatches);
  } // Destructor: drain + join must be clean after heavy backpressure.
  EXPECT_EQ(Downstream.Seen.load(), Sent);
}

// The sink destroyed while its worker is provably mid-batch, many
// rounds: no drain() call, a slow downstream, and a shallow ring mean
// the destructor's drain/stop/join sequence always lands on an active
// consumer. Every published event must still reach the downstream sink
// before the destructor returns — shutdown may never drop work.
TEST(AsyncSink, DestructorRacesActiveConsumerManyRounds) {
  for (int Round = 0; Round < 50; ++Round) {
    SlowSink Downstream;
    uint64_t Sent = 0;
    {
      AsyncSink Async(Downstream, 2);
      Event E = seqEvent(0);
      for (int B = 0; B < 5; ++B) {
        Async.consumeBatch(&E, 1, nullptr);
        ++Sent;
      }
    } // No drain(): the destructor owns the full shutdown handshake.
    ASSERT_EQ(Downstream.Seen.load(), Sent) << "round " << Round;
  }
}

// Empty batches are dropped at the producer side; destruction without
// drain() still delivers everything published.
TEST(AsyncSink, EmptyBatchesAndDestructorDrain) {
  RecordingSink Downstream;
  {
    AsyncSink Async(Downstream, 4);
    Event E = seqEvent(1);
    Async.consumeBatch(&E, 0, nullptr); // No-op.
    Async.consumeBatch(&E, 1, nullptr);
  } // No explicit drain: the destructor must flush the ring.
  ASSERT_EQ(Downstream.Events.size(), 1u);
  EXPECT_EQ(Downstream.Events[0].Aux, 1u);
}

//===--- ShardedSink ----------------------------------------------------------

// The fan-out sink's destructor without finish(): N worker lanes are
// joined mid-stream, with shallow rings so teardown overlaps busy
// workers. Exercised across lane counts (2 to 5) and many rounds
// so the sanitizer jobs see every lane-shutdown interleaving; finish()'s
// merge is deliberately skipped — abandoning a sharded run must still
// shut down cleanly.
TEST(ShardedSink, DestructorWithoutFinishJoinsAllLanes) {
  const DetectorConfig Ft = fastTrackConfig();
  for (int Round = 0; Round < 24; ++Round) {
    ShardedSink Sink(Ft, nullptr, 2 + size_t(Round) % 4, 2);

    // A mix of routed checks (spread over objects, so every lane gets
    // work) and sync edges, in several small batches.
    std::vector<Event> Batch;
    std::vector<uint32_t> Payload;
    for (int B = 0; B < 6; ++B) {
      Batch.clear();
      Payload.clear();
      for (uint64_t I = 0; I < 16; ++I) {
        Event E;
        E.Tid = 1;
        E.Target = kTargetBoth;
        if (I % 8 == 7) {
          E.Kind = I % 16 == 7 ? EventKind::Acquire : EventKind::Release;
          E.Obj = 100;
        } else {
          E.Kind = EventKind::FieldCheck;
          E.Obj = 1 + (uint64_t(B) * 16 + I) % 13;
          E.PayloadIndex = uint32_t(Payload.size());
          E.PayloadCount = 1;
          Payload.push_back(uint32_t(I % 3));
        }
        Batch.push_back(E);
      }
      Sink.consumeBatch(Batch.data(), Batch.size(), Payload.data());
    }
  } // Destructor: drain + stop + join every lane, no finish().
}

// finish() after the same traffic is complete and deterministic: the
// merged counters must partition-sum identically no matter how lane
// scheduling interleaved, every sync edge must reach every lane as one
// horizon marker, and the ordering invariant must hold.
TEST(ShardedSink, FinishAfterBroadcastHeavyTrafficIsDeterministic) {
  Stats Reference;
  for (int Round = 0; Round < 8; ++Round) {
    ShardedSink Sink(fastTrackConfig(), nullptr, 3, 2);
    std::vector<Event> Batch;
    std::vector<uint32_t> Payload;
    for (int B = 0; B < 8; ++B) {
      Batch.clear();
      Payload.clear();
      for (uint64_t I = 0; I < 12; ++I) {
        Event E;
        E.Tid = 1;
        if (I % 4 == 3) {
          E.Kind = I % 8 == 3 ? EventKind::Acquire : EventKind::Release;
          E.Obj = 42;
        } else {
          E.Kind = EventKind::FieldCheck;
          E.Obj = 1 + (uint64_t(B) * 12 + I) % 7;
          E.PayloadIndex = uint32_t(Payload.size());
          E.PayloadCount = 1;
          Payload.push_back(uint32_t(I % 2));
        }
        Batch.push_back(E);
      }
      Sink.consumeBatch(Batch.data(), Batch.size(), Payload.data());
    }
    Sink.drain();
    RunResult M;
    Sink.finish(M);
    EXPECT_EQ(M.ShardOrderViolations, 0u) << "round " << Round;
    EXPECT_EQ(M.ShardHorizonAdvances, M.ShardBroadcastEvents * 3)
        << "round " << Round;
    EXPECT_GT(M.ShardSyncPublishes, 0u) << "round " << Round;
    if (Round == 0)
      Reference = M.Counters;
    else
      EXPECT_TRUE(M.Counters.all() == Reference.all())
          << "round " << Round << ": merged counters diverged";
  }
}

/// Builds batches of tool events for the sink tests below: field checks
/// on one field and payload-free sync edges (volatiles on field 0).
struct BatchBuilder {
  std::vector<Event> Events;
  std::vector<uint32_t> Payload;

  void clear() {
    Events.clear();
    Payload.clear();
  }
  void check(ThreadId T, ObjectId Obj, AccessKind K, uint32_t Field = 0) {
    Event E;
    E.Kind = EventKind::FieldCheck;
    E.Access = K;
    E.Tid = T;
    E.Obj = Obj;
    E.PayloadIndex = uint32_t(Payload.size());
    E.PayloadCount = 1;
    Payload.push_back(Field);
    Events.push_back(E);
  }
  void sync(EventKind K, ThreadId T, ObjectId Obj) {
    Event E;
    E.Kind = K;
    E.Tid = T;
    E.Obj = Obj;
    E.Field = 0; // Volatiles name a field; locks ignore it.
    Events.push_back(E);
  }
  void feed(EventSink &S) const {
    S.consumeBatch(Events.data(), Events.size(), Payload.data());
  }
};

/// Field names f0..f3 for the checks above: race reports render them.
SymbolTable fieldNames() {
  SymbolTable Syms;
  for (const char *Name : {"f0", "f1", "f2", "f3"})
    Syms.intern(Name);
  return Syms;
}

/// Race reports as text, in report order.
std::vector<std::string> raceText(const RunResult &R) {
  std::vector<std::string> Out;
  for (const ReportedRace &Race : R.ToolRaces)
    Out.push_back(Race.str());
  return Out;
}

// The sync state that crosses to the lanes is bounded (ROADMAP item 2):
// two threads pass a lock back and forth for 10^7 acquire and release
// edges, with a field check inside every critical section. The segments
// and lane views reach their size within the first 10^5 edges and never
// grow after, while reports and counters stay those of an inline
// detector fed the same events.
TEST(ShardedSink, SyncStateBytesPlateauOverTenMillionEdges) {
  const DetectorConfig Ft = fastTrackConfig();
  const SymbolTable Syms = fieldNames();
  DetectionOptions InlineOpts;
  DetectionPipeline Inline(&Ft, &Syms, InlineOpts);
  ShardedSink Sink(Ft, &Syms, 2);

  // One unguarded write-write pair first, so there is a race to merge.
  BatchBuilder B;
  B.check(1, 99, AccessKind::Write);
  B.check(2, 99, AccessKind::Write);
  B.feed(*Inline.sink());
  B.feed(Sink);

  // One batch, fed over and over: 40 rounds of four edges, a check inside
  // each critical section. Every segment then holds the same edges.
  B.clear();
  for (ObjectId Round = 0; Round < 40; ++Round)
    for (ThreadId T : {ThreadId(1), ThreadId(2)}) {
      B.sync(EventKind::Acquire, T, 7);
      B.check(T, 10 + Round % 8, T == 1 ? AccessKind::Write : AccessKind::Read);
      B.sync(EventKind::Release, T, 7);
    }
  constexpr uint64_t kEdgesPerBatch = 160;
  auto FeedEdges = [&](uint64_t From, uint64_t To) {
    for (uint64_t Edges = From; Edges < To; Edges += kEdgesPerBatch) {
      B.feed(*Inline.sink());
      B.feed(Sink);
    }
  };
  FeedEdges(0, 100'000);
  Sink.drain();
  size_t Early = Sink.syncStateBytes();
  FeedEdges(100'000, 10'000'000);
  Sink.drain();
  EXPECT_GT(Early, 0u);
  EXPECT_EQ(Sink.syncStateBytes(), Early);

  RunResult Lanes, Ref;
  Sink.finish(Lanes);
  Inline.finish(Ref);
  EXPECT_EQ(Lanes.ShardBroadcastEvents, 10'000'000u);
  EXPECT_EQ(Lanes.ShardSyncTableBytes, Early);
  EXPECT_EQ(Lanes.ShardOrderViolations, 0u);
  EXPECT_TRUE(Lanes.Counters.all() == Ref.Counters.all());
  EXPECT_EQ(raceText(Lanes), raceText(Ref));
  EXPECT_EQ(Ref.ToolRaces.size(), 1u);
}

// Segment reuse at its tightest: 2-slot rings and 3 lanes, so a lane's
// slot for sync batch k can only be taken once it retired its slot for
// sync batch k - 2, which last read the segment batch k reuses. Sync
// batches alternate with check-only batches on one object, which all go
// to one lane, so the other lanes get slots only on sync batches and
// fall behind or race ahead of the busy one. Under TSan this checks the
// reuse edge itself; everywhere it checks the merged result against an
// inline detector.
TEST(ShardedSink, SegmentReuseWithTwoSlotRingsMatchesInline) {
  const DetectorConfig Ft = fastTrackConfig();
  const SymbolTable Syms = fieldNames();
  for (int Round = 0; Round < 6; ++Round) {
    DetectionOptions InlineOpts;
    DetectionPipeline Inline(&Ft, &Syms, InlineOpts);
    ShardedSink Sink(Ft, &Syms, 3, 2);
    BatchBuilder B;
    for (uint64_t Batch = 0; Batch < 300; ++Batch) {
      B.clear();
      if (Batch % 2 == 0) {
        // Sync batch: lock hand-offs between threads 1..3, volatile
        // writes and reads, and guarded checks spread over objects.
        for (uint64_t I = 0; I < 8; ++I) {
          ThreadId T = ThreadId(1 + (Batch / 2 + I) % 3);
          B.sync(EventKind::Acquire, T, 7);
          B.check(T, 20 + (Batch + I) % 11, AccessKind::Write);
          B.sync(EventKind::Release, T, 7);
          B.sync(I % 2 ? EventKind::VolatileRead : EventKind::VolatileWrite,
                 T, 8);
        }
      } else {
        // Check-only batch: every check on object 500, unguarded.
        for (uint64_t I = 0; I < 24; ++I)
          B.check(ThreadId(1 + (Batch + I) % 3), 500, AccessKind(I % 2),
                  uint32_t(I % 4));
      }
      B.feed(*Inline.sink());
      B.feed(Sink);
    }
    Sink.drain();
    RunResult Lanes, Ref;
    Sink.finish(Lanes);
    Inline.finish(Ref);
    EXPECT_EQ(Lanes.ShardOrderViolations, 0u) << "round " << Round;
    EXPECT_TRUE(Lanes.Counters.all() == Ref.Counters.all())
        << "round " << Round;
    EXPECT_EQ(raceText(Lanes), raceText(Ref)) << "round " << Round;
    EXPECT_FALSE(Ref.ToolRaces.empty());
    // Every sync edge reached all three lanes.
    EXPECT_EQ(Lanes.ShardHorizonAdvances, Lanes.ShardBroadcastEvents * 3)
        << "round " << Round;
  }
}

// Lane counts arrive from the command line as a plain decimal from 0 to
// kMaxLanes. Signs, blanks, words (including "auto"), trailing text and
// larger numbers are rejected rather than wrapped or truncated.
TEST(ShardedSink, ParseLaneCount) {
  EXPECT_EQ(parseLaneCount("0").value_or(99), 0u);
  EXPECT_EQ(parseLaneCount("1").value_or(99), 1u);
  EXPECT_EQ(parseLaneCount("4").value_or(99), 4u);
  EXPECT_EQ(parseLaneCount("64").value_or(99), 64u);
  for (const char *Bad : {"", "-1", "+2", " 4", "4x", "abc", "auto", "65",
                          "18446744073709551617"})
    EXPECT_FALSE(parseLaneCount(Bad).has_value()) << "'" << Bad << "'";
}

//===--- EventRing edge cases -------------------------------------------------

// Capacity 0 clamps to per-event dispatch instead of tripping an assert:
// every emit flushes a one-event batch.
TEST(EventRing, ZeroCapacityResetClampsToPerEvent) {
  RecordingSink Sink;
  EventRing Ring;
  Ring.reset(&Sink, 0);
  for (uint64_t I = 0; I < 3; ++I)
    Ring.emit(seqEvent(I));
  ASSERT_EQ(Sink.Events.size(), 3u);
  EXPECT_EQ(Sink.BatchSizes, (std::vector<size_t>{1, 1, 1}));
}

// flush() with nothing buffered must not reach the sink (consumers treat
// every consumeBatch as meaningful work).
TEST(EventRing, FlushOnEmptyIsANoOp) {
  RecordingSink Sink;
  EventRing Ring;
  Ring.reset(&Sink, 8);
  Ring.flush();
  EXPECT_TRUE(Sink.BatchSizes.empty());
  Ring.emit(seqEvent(0));
  Ring.flush();
  Ring.flush(); // Second flush: batch already delivered, nothing new.
  EXPECT_EQ(Sink.BatchSizes, (std::vector<size_t>{1}));
}

// reset() mid-stream rebinds to a new sink: flushed events stay with the
// old sink, buffered-but-unflushed events are dropped (reset is a
// rebind, not a handoff), and new emits go to the new sink with
// batch-relative payload indices starting over.
TEST(EventRing, SinkReplacementMidStream) {
  RecordingSink A, B;
  EventRing Ring;
  Ring.reset(&A, 4);
  uint32_t Words[2] = {11, 22};
  Ring.emit(seqEvent(0), Words, 2);
  Ring.flush();
  Ring.emit(seqEvent(1)); // Buffered, never flushed before the rebind.
  Ring.reset(&B, 4);
  uint32_t More[1] = {33};
  Ring.emit(seqEvent(2), More, 1);
  Ring.flush();

  ASSERT_EQ(A.Events.size(), 1u);
  EXPECT_EQ(A.Events[0].Aux, 0u);
  EXPECT_EQ(A.PayloadPerEvent[0], (std::vector<uint32_t>{11, 22}));
  ASSERT_EQ(B.Events.size(), 1u);
  EXPECT_EQ(B.Events[0].Aux, 2u);
  EXPECT_EQ(B.Events[0].PayloadIndex, 0u); // Arena restarted at rebind.
  EXPECT_EQ(B.PayloadPerEvent[0], (std::vector<uint32_t>{33}));
}

//===--- TeeSink --------------------------------------------------------------

// Fan-out hits every sink in add() order with the same batch; null adds
// are ignored; sole() only short-circuits a singleton tee.
TEST(TeeSink, FanOutOrderAndSoleSemantics) {
  RecordingSink A, B;
  TeeSink Tee;
  Tee.add(nullptr);
  EXPECT_EQ(Tee.size(), 0u);
  Tee.add(&A);
  EXPECT_EQ(Tee.sole(), &A);
  Tee.add(&B);
  EXPECT_EQ(Tee.sole(), nullptr); // Two sinks: no single fast path.

  Event E[2] = {seqEvent(5), seqEvent(6)};
  Tee.consumeBatch(E, 2, nullptr);
  ASSERT_EQ(A.Events.size(), 2u);
  ASSERT_EQ(B.Events.size(), 2u);
  EXPECT_EQ(A.Events[1].Aux, 6u);
  EXPECT_EQ(B.Events[1].Aux, 6u);
  EXPECT_EQ(A.BatchSizes, B.BatchSizes);
}

} // namespace
