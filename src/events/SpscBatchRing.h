//===- SpscBatchRing.h - Bounded SPSC ring of event batches -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handoff buffer between the VM thread and the detector thread
/// (DESIGN.md Sec. 10): a bounded single-producer/single-consumer ring
/// whose slots each hold one copied event batch (events + payload arena).
///
/// The data plane is lock-free: slots are published and retired through
/// two monotonically increasing atomic cursors (Tail = batches published,
/// Head = batches retired) with release/acquire pairing, so neither side
/// ever takes a lock to move a batch. Blocking — the consumer waiting for
/// work, the producer waiting out a full ring (backpressure), drain
/// waiting for emptiness — goes through a doorbell mutex + condvars rung
/// once per batch transition. One uncontended mutex op per 256-event
/// batch is noise next to the batch's apply cost, and unlike
/// flag-checking schemes it cannot miss a wakeup: the sleeper re-checks
/// the cursors under the same mutex the other side rings.
///
/// Slot memory is recycled: a slot's vectors keep their capacity across
/// laps, so after warm-up the steady state allocates nothing. The
/// producer may touch a slot only after Head has passed it (observed with
/// acquire), which is exactly the edge that makes the consumer's last
/// read of that slot happen-before the overwrite.
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

/// Bounded SPSC ring of \p SlotT slots. Exactly one producer thread may
/// call the producer-side methods and one consumer thread the
/// consumer-side methods; drain() and stats accessors belong to the
/// producer side. The slot type is a template parameter so the same
/// cursor/doorbell machinery carries both the plain EventBatch handoff
/// (AsyncSink) and the sequence-stamped shard batches of the fan-out
/// sink (ShardedSink) — the protocol is identical, only the payload of
/// a slot differs. Slots are default-constructed once and recycled.
template <typename SlotT> class SpscSlotRing {
public:
  explicit SpscSlotRing(size_t Batches = kDefaultAsyncRingBatches)
      : Cap(Batches < 2 ? 2 : Batches), Ring(Cap) {}

  size_t capacity() const { return Cap; }

  //===--- Producer side -------------------------------------------------------

  /// The slot to fill next. Blocks while the ring is full — this is the
  /// backpressure edge: the VM stalls instead of buffering unboundedly.
  SlotT &acquireSlot() {
    uint64_t T = Tail.load(std::memory_order_relaxed);
    if (T - Head.load(std::memory_order_acquire) == Cap) {
      ++FullStalls;
      std::unique_lock<std::mutex> L(DoorM);
      NotFullCv.wait(L, [&] {
        return T - Head.load(std::memory_order_acquire) < Cap;
      });
    }
    return Ring[T % Cap];
  }

  /// Publishes the slot returned by acquireSlot() to the consumer.
  void publish() {
    Tail.store(Tail.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
    ++Published;
    ring(NotEmptyCv);
  }

  /// Blocks until every published batch has been retired. Pairs with the
  /// consumer's post-apply pop(), so emptiness means "every event has
  /// been applied", and the acquire on Head makes all consumer-side
  /// writes (detector state, timing) visible to the caller.
  void drain() {
    uint64_t T = Tail.load(std::memory_order_relaxed);
    if (Head.load(std::memory_order_acquire) == T)
      return;
    std::unique_lock<std::mutex> L(DoorM);
    NotFullCv.wait(
        L, [&] { return Head.load(std::memory_order_acquire) == T; });
  }

  /// Batches published so far (producer-side counter).
  uint64_t published() const { return Published; }

  /// Times acquireSlot() found the ring full and had to wait.
  uint64_t fullStalls() const { return FullStalls; }

  //===--- Consumer side -------------------------------------------------------

  /// The oldest unretired batch, or null if the ring is empty. Never
  /// blocks.
  SlotT *peek() {
    uint64_t H = Head.load(std::memory_order_relaxed);
    if (H == Tail.load(std::memory_order_acquire))
      return nullptr;
    return &Ring[H % Cap];
  }

  /// Like peek(), but blocks until a batch is available or \p Stop is
  /// observed true with the ring empty (the shutdown edge).
  SlotT *waitPeek(const std::atomic<bool> &Stop) {
    if (SlotT *B = peek())
      return B;
    std::unique_lock<std::mutex> L(DoorM);
    NotEmptyCv.wait(L, [&] {
      return peek() != nullptr || Stop.load(std::memory_order_acquire);
    });
    return peek();
  }

  /// Retires the batch returned by peek()/waitPeek(). Call only after the
  /// batch is fully applied: the release on Head is what lets drain()
  /// equate "empty" with "applied".
  void pop() {
    Head.store(Head.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
    ring(NotFullCv);
  }

  /// Rings the consumer doorbell without publishing (shutdown: the
  /// producer sets its stop flag, then kicks the consumer out of
  /// waitPeek).
  void wakeConsumer() { ring(NotEmptyCv); }

private:
  /// Take-and-drop the doorbell mutex, then notify. The empty critical
  /// section is what closes the race with a sleeper that has checked the
  /// cursors but not yet blocked: it holds the mutex from re-check to
  /// wait, so our lock/unlock cannot interleave there.
  void ring(std::condition_variable &Cv) {
    { std::lock_guard<std::mutex> L(DoorM); }
    Cv.notify_all();
  }

  const size_t Cap;
  std::vector<SlotT> Ring;
  /// Cursors count batches ever published/retired; slot = cursor % Cap.
  /// 64-bit, so wraparound is not a practical concern.
  alignas(64) std::atomic<uint64_t> Tail{0};
  alignas(64) std::atomic<uint64_t> Head{0};
  uint64_t Published = 0;  ///< Producer-side only.
  uint64_t FullStalls = 0; ///< Producer-side only.

  std::mutex DoorM;
  std::condition_variable NotEmptyCv; ///< Consumer sleeps here.
  std::condition_variable NotFullCv;  ///< Producer / drain sleep here.
};

/// The original VM-to-detector handoff ring: one EventBatch per slot.
using SpscBatchRing = SpscSlotRing<EventBatch>;

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_SPSCBATCHRING_H
