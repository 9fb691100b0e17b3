//===- SpscBatchRing.h - Bounded SPSC ring of event batches -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handoff buffer between the VM thread and the detector lanes
/// (DESIGN.md Sec. 10): a bounded single-producer ring whose slots each
/// hold one copied event batch (events + payload arena). Each of its
/// consumers, one per lane, reads every batch, so N lanes cost the
/// producer one copy of each batch, as one lane does; each consumer sees
/// a single-producer/single-consumer stream.
///
/// The data plane is lock-free: slots are published and retired through
/// monotonically increasing atomic cursors (Tail = batches published, one
/// Head per consumer = batches it retired) with release/acquire pairing,
/// so no side ever takes a lock to move a batch. Blocking — the consumer waiting for
/// work, the producer waiting out a full ring (backpressure), drain
/// waiting for emptiness — goes through a doorbell mutex + condvars rung
/// once per batch transition. One uncontended mutex op per 256-event
/// batch is noise next to the batch's apply cost, and unlike
/// flag-checking schemes it cannot miss a wakeup: the sleeper re-checks
/// the cursors under the same mutex the other side rings.
///
/// Slot memory is recycled: a slot's vectors keep their capacity across
/// laps, so after warm-up the steady state allocates nothing. The
/// producer may touch a slot only after every Head has passed it
/// (observed with acquire), which is exactly the edge that makes each
/// consumer's last read of that slot happen-before the overwrite.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_SPSCBATCHRING_H
#define BIGFOOT_EVENTS_SPSCBATCHRING_H

#include "events/Event.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace bigfoot {

/// One ring slot: a self-contained copy of an event batch. PayloadIndex /
/// PayloadCount references inside Events resolve against Payload exactly
/// as they did in the producing EventRing's arena.
struct EventBatch {
  std::vector<Event> Events;
  std::vector<uint32_t> Payload;

  /// Copies a batch in, reusing this slot's existing capacity. The
  /// payload arena's live prefix is the largest index any event
  /// references (EventRing appends payload monotonically).
  void assign(const Event *E, size_t N, const uint32_t *Words) {
    Events.assign(E, E + N);
    size_t PayloadWords = 0;
    for (size_t I = 0; I < N; ++I) {
      size_t End = size_t(E[I].PayloadIndex) + E[I].PayloadCount;
      if (End > PayloadWords)
        PayloadWords = End;
    }
    // A batch without payload may pass null Words; never copy from it.
    assert((Words || PayloadWords == 0) && "payload referenced but absent");
    if (Words)
      Payload.assign(Words, Words + PayloadWords);
    else
      Payload.clear();
  }
};

/// Default ring depth, in batches. Deep enough to ride out consumer
/// hiccups (a slow batch, a scheduling gap) without stalling the VM;
/// shallow enough that the buffered window stays cache- and
/// memory-cheap (16 batches x 256 events x 64 B = 256 KiB worst case).
inline constexpr size_t kDefaultAsyncRingBatches = 16;

/// Bounded ring of EventBatch slots with one producer and \p Consumers
/// consumers, each of which reads every batch. Exactly one producer thread
/// may call the producer-side methods, and consumer C's methods are
/// called from one thread, passing C; drain() and stats accessors belong
/// to the producer side. Slots are default-constructed once and recycled.
class SpscBatchRing {
public:
  explicit SpscBatchRing(size_t Batches = kDefaultAsyncRingBatches,
                         size_t Consumers = 1)
      : Cap(Batches < 2 ? 2 : Batches), Ring(Cap),
        Heads(Consumers < 1 ? 1 : Consumers), StallsOn(Heads.size(), 0) {}

  size_t capacity() const { return Cap; }

  //===--- Producer side -------------------------------------------------------

  /// The slot to fill next. Blocks while the ring is full — this is the
  /// backpressure edge: the VM stalls instead of buffering unboundedly.
  EventBatch &acquireSlot() {
    uint64_t T = Tail.load(std::memory_order_relaxed);
    auto [Head, Behind] = slowest();
    if (T - Head == Cap) {
      ++FullStalls;
      ++StallsOn[Behind];
      std::unique_lock<std::mutex> L(DoorM);
      NotFullCv.wait(L, [&] { return T - slowest().first < Cap; });
    }
    return Ring[T % Cap];
  }

  /// Publishes the slot returned by acquireSlot() to the consumers.
  void publish() {
    Tail.store(Tail.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
    ++Published;
    ring(NotEmptyCv);
  }

  /// Blocks until every consumer has retired every published batch.
  /// Pairs with the consumers' post-apply pop(), so emptiness means
  /// "every event has been applied", and the acquires on the Heads make
  /// all consumer-side writes (detector state, timing) visible to the
  /// caller.
  void drain() {
    uint64_t T = Tail.load(std::memory_order_relaxed);
    auto Done = [&] {
      for (const Cursor &H : Heads)
        if (H.V.load(std::memory_order_acquire) != T)
          return false;
      return true;
    };
    if (Done())
      return;
    std::unique_lock<std::mutex> L(DoorM);
    NotFullCv.wait(L, Done);
  }

  /// Batches published so far (producer-side counter).
  uint64_t published() const { return Published; }

  /// Times acquireSlot() found the ring full and had to wait.
  uint64_t fullStalls() const { return FullStalls; }

  /// Of those, the times consumer \p C was the one furthest behind.
  uint64_t fullStallsOn(size_t C) const { return StallsOn[C]; }

  //===--- Consumer side -------------------------------------------------------

  /// Consumer \p C's oldest unretired batch, or null if it has retired
  /// every published one. Never blocks.
  EventBatch *peek(size_t C = 0) {
    uint64_t H = Heads[C].V.load(std::memory_order_relaxed);
    if (H == Tail.load(std::memory_order_acquire))
      return nullptr;
    return &Ring[H % Cap];
  }

  /// Like peek(), but blocks until a batch is available or \p Stop is
  /// observed true with nothing left for \p C (the shutdown edge).
  EventBatch *waitPeek(const std::atomic<bool> &Stop, size_t C = 0) {
    if (EventBatch *B = peek(C))
      return B;
    std::unique_lock<std::mutex> L(DoorM);
    NotEmptyCv.wait(L, [&] {
      return peek(C) != nullptr || Stop.load(std::memory_order_acquire);
    });
    return peek(C);
  }

  /// Retires consumer \p C's batch returned by peek()/waitPeek(). Call
  /// only after the batch is fully applied: the release on its Head is
  /// what lets drain() equate "empty" with "applied".
  void pop(size_t C = 0) {
    Heads[C].V.store(Heads[C].V.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
    ring(NotFullCv);
  }

  /// Rings the consumer doorbell without publishing (shutdown: the
  /// producer sets its stop flag, then kicks the consumers out of
  /// waitPeek).
  void wakeConsumer() { ring(NotEmptyCv); }

private:
  /// One consumer's cursor, on a cache line of its own.
  struct alignas(64) Cursor {
    std::atomic<uint64_t> V{0};
  };

  /// The lowest Head and its consumer (the first on a tie). Each Head is
  /// loaded once, with acquire, and only grows, so every slot below the
  /// result is retired by every consumer.
  std::pair<uint64_t, size_t> slowest() const {
    std::pair<uint64_t, size_t> Min{Heads[0].V.load(std::memory_order_acquire),
                                    0};
    for (size_t C = 1; C < Heads.size(); ++C) {
      uint64_t H = Heads[C].V.load(std::memory_order_acquire);
      if (H < Min.first)
        Min = {H, C};
    }
    return Min;
  }

  /// Take-and-drop the doorbell mutex, then notify. The empty critical
  /// section is what closes the race with a sleeper that has checked the
  /// cursors but not yet blocked: it holds the mutex from re-check to
  /// wait, so our lock/unlock cannot interleave there.
  void ring(std::condition_variable &Cv) {
    { std::lock_guard<std::mutex> L(DoorM); }
    Cv.notify_all();
  }

  const size_t Cap;
  std::vector<EventBatch> Ring;
  /// Cursors count batches ever published/retired; slot = cursor % Cap.
  /// 64-bit, so wraparound is not a practical concern.
  alignas(64) std::atomic<uint64_t> Tail{0};
  std::vector<Cursor> Heads;
  uint64_t Published = 0;  ///< Producer-side only.
  uint64_t FullStalls = 0; ///< Producer-side only.
  std::vector<uint64_t> StallsOn; ///< Producer-side only.

  std::mutex DoorM;
  std::condition_variable NotEmptyCv; ///< Consumers sleep here.
  std::condition_variable NotFullCv;  ///< Producer / drain sleep here.
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_SPSCBATCHRING_H
