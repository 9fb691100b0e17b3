//===- SpscBatchRingTest.cpp - Lane rings and sink edge cases ----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Coverage for the threaded detection consumers' moving parts
// (DESIGN.md Sec. 10 and 12) plus producer-side sink edges the differential
// goldens never reach: the SPSC batch ring under a real producer/consumer
// thread pair with randomized batch sizes, AsyncSink's drain and
// backpressure protocol, a DetectionPipeline's lanes torn down and merged,
// EventRing capacity clamping and empty flushes, and TeeSink fan-out /
// mid-stream rebinding.
//
//===----------------------------------------------------------------------===//

#include "events/AsyncSink.h"
#include "events/DetectionPipeline.h"
#include "events/EventSink.h"
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
// backpressure both happen constantly) while one consumer, then three
// (as three lanes do), drain them. Every consumer must observe every
// event exactly once, in publication order, with each event's payload
// intact.
TEST(SpscBatchRing, StressRandomizedBatchesKeepOrder) {
  constexpr uint64_t kTotalEvents = 50000;
  for (size_t NumConsumers : {size_t(1), size_t(3)}) {
    SpscBatchRing Ring(4, NumConsumers);
    std::atomic<bool> Stop{false};

    std::vector<std::vector<uint64_t>> Consumed(NumConsumers);
    std::vector<std::vector<uint32_t>> PayloadSums(NumConsumers);
    std::vector<std::thread> Consumers;
    for (size_t C = 0; C < NumConsumers; ++C)
      Consumers.emplace_back([&, C] {
        for (;;) {
          EventBatch *B = Ring.waitPeek(Stop, C);
          if (!B)
            return;
          for (const Event &E : B->Events) {
            Consumed[C].push_back(E.Aux);
            uint32_t Sum = 0;
            for (uint32_t I = 0; I < E.PayloadCount; ++I)
              Sum += B->Payload[E.PayloadIndex + I];
            PayloadSums[C].push_back(Sum);
          }
          Ring.pop(C);
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
    for (std::thread &T : Consumers)
      T.join();

    // No lost, duplicated, or reordered events: each consumed sequence is
    // exactly 0..N-1.
    for (size_t C = 0; C < NumConsumers; ++C) {
      ASSERT_EQ(Consumed[C].size(), kTotalEvents) << "consumer " << C;
      for (uint64_t I = 0; I < kTotalEvents; ++I)
        ASSERT_EQ(Consumed[C][size_t(I)], I) << "consumer " << C;
      ASSERT_EQ(PayloadSums[C].size(), kTotalEvents);
      for (uint64_t I = 0; I < kTotalEvents; ++I) {
        uint32_t Want = I % 3 == 0 ? uint32_t(I) + uint32_t(I >> 3) : 0;
        ASSERT_EQ(PayloadSums[C][size_t(I)], Want)
            << "consumer " << C << " payload at " << I;
      }
    }
    EXPECT_EQ(Ring.published(), BatchesSent);
    uint64_t Attributed = 0;
    for (size_t C = 0; C < NumConsumers; ++C)
      Attributed += Ring.fullStallsOn(C);
    EXPECT_EQ(Attributed, Ring.fullStalls());
  }
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
  AsyncSink Async({&Downstream}, 4);

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
    AsyncSink Async({&Downstream}, 2);
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
      AsyncSink Async({&Downstream}, 2);
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
    AsyncSink Async({&Downstream}, 4);
    Event E = seqEvent(1);
    Async.consumeBatch(&E, 0, nullptr); // No-op.
    Async.consumeBatch(&E, 1, nullptr);
  } // No explicit drain: the destructor must flush the ring.
  ASSERT_EQ(Downstream.Events.size(), 1u);
  EXPECT_EQ(Downstream.Events[0].Aux, 1u);
}

//===--- Detection lanes ------------------------------------------------------

/// Builds batches of tool events for the lane tests below: field checks
/// and payload-free lock edges.
struct BatchBuilder {
  std::vector<Event> Events;
  std::vector<uint32_t> Payload;

  void check(ThreadId T, ObjectId Obj, AccessKind K, uint32_t Field) {
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
  void sync(EventKind K, ThreadId T, ObjectId Lock) {
    Event E;
    E.Kind = K;
    E.Tid = T;
    E.Obj = Lock;
    Events.push_back(E);
  }
  void feed(EventSink &S) const {
    S.consumeBatch(Events.data(), Events.size(), Payload.data());
  }
};

/// Checks spread over \p Objects objects with a lock edge every
/// \p SyncEvery-th event, by two threads, in \p Batches batches of
/// \p PerBatch events.
std::vector<BatchBuilder> mixedTraffic(uint64_t Batches, uint64_t PerBatch,
                                       uint64_t Objects, uint64_t SyncEvery) {
  std::vector<BatchBuilder> Out(Batches);
  for (uint64_t B = 0; B < Batches; ++B)
    for (uint64_t I = 0; I < PerBatch; ++I) {
      ThreadId T = ThreadId(1 + (B + I) % 2);
      if (I % SyncEvery == SyncEvery - 1)
        Out[B].sync(I % (2 * SyncEvery) == SyncEvery - 1 ? EventKind::Acquire
                                                          : EventKind::Release,
                    T, 100);
      else
        Out[B].check(T, 1 + (B * PerBatch + I) % Objects, AccessKind(I % 2),
                     uint32_t(I % 2));
    }
  return Out;
}

// A pipeline's destructor without finish(): N lane threads are joined
// mid-stream, with 2-slot rings so teardown overlaps busy lanes.
// Exercised across lane counts (2 to 5) and many rounds so the sanitizer
// jobs see every lane-shutdown interleaving; the merge is deliberately
// skipped — abandoning a run on lanes must still shut down cleanly.
TEST(ShardedSink, DestructorWithoutFinishJoinsAllLanes) {
  const DetectorConfig Ft = fastTrackConfig();
  const std::vector<BatchBuilder> Traffic = mixedTraffic(6, 16, 13, 8);
  for (int Round = 0; Round < 24; ++Round) {
    DetectionOptions O;
    O.Lanes = 2 + size_t(Round) % 4;
    O.RingBatches = 2;
    DetectionPipeline Pipeline(&Ft, nullptr, O);
    for (const BatchBuilder &B : Traffic)
      B.feed(*Pipeline.sink());
  } // Destructor: drain + stop + join every lane, no finish().
}

/// Race reports as text, in report order.
std::vector<std::string> raceText(const RunResult &R) {
  std::vector<std::string> Out;
  for (const ReportedRace &Race : R.ToolRaces)
    Out.push_back(Race.str());
  return Out;
}

// finish() after sync-heavy traffic on three lanes with 2-slot rings is
// complete and deterministic: the merged counters and races equal an
// inline detector's in every round however the lanes interleaved, and
// each lane applied every lock edge plus the checks on its own objects.
TEST(ShardedSink, FinishAfterBroadcastHeavyTrafficIsDeterministic) {
  const DetectorConfig Ft = fastTrackConfig();
  SymbolTable Syms;
  Syms.intern("f0");
  Syms.intern("f1");
  const std::vector<BatchBuilder> Traffic = mixedTraffic(8, 12, 7, 4);
  constexpr size_t kLanes = 3;
  std::vector<uint64_t> Want(kLanes, 0);
  for (const BatchBuilder &B : Traffic)
    for (const Event &E : B.Events) {
      if (E.Kind == EventKind::FieldCheck)
        ++Want[laneOf(E.Obj, kLanes)];
      else
        for (uint64_t &W : Want)
          ++W;
    }

  RunResult Ref;
  {
    DetectionPipeline Inline(&Ft, &Syms, DetectionOptions());
    for (const BatchBuilder &B : Traffic)
      B.feed(*Inline.sink());
    Inline.finish(Ref);
  }
  ASSERT_FALSE(Ref.ToolRaces.empty());
  for (int Round = 0; Round < 8; ++Round) {
    DetectionOptions O;
    O.Lanes = kLanes;
    O.RingBatches = 2;
    DetectionPipeline Pipeline(&Ft, &Syms, O);
    for (const BatchBuilder &B : Traffic)
      B.feed(*Pipeline.sink());
    RunResult M;
    Pipeline.finish(M);
    EXPECT_TRUE(M.Counters.all() == Ref.Counters.all()) << "round " << Round;
    EXPECT_EQ(raceText(M), raceText(Ref)) << "round " << Round;
    ASSERT_EQ(M.ShardLanes.size(), kLanes);
    for (size_t L = 0; L < kLanes; ++L)
      EXPECT_EQ(M.ShardLanes[L].Events, Want[L])
          << "round " << Round << " lane " << L;
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
