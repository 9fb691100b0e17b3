//===- AsyncSink.h - Off-thread event sink behind an SPSC ring --*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AsyncSink moves a downstream EventSink onto its own thread; over the
/// tool's DetectorSink it is the one-lane detection consumer
/// (DetectionOptions::Lanes == 1). The producer side copies each incoming
/// batch into the next SpscBatchRing slot and returns immediately; a
/// dedicated consumer thread applies batches to the downstream sink in
/// publication order. Because the VM emits events from a single thread
/// and the detectors are passive consumers, in-order application
/// off-thread yields byte-identical reports to inline detection
/// (DESIGN.md Sec. 10).
///
/// drain() is the synchronization point: it blocks until every published
/// batch has been applied, after which downstream detector state may be
/// sampled from the caller's thread. The destructor drains, stops, and
/// joins, so tearing down an AsyncSink never abandons buffered events.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_ASYNCSINK_H
#define BIGFOOT_EVENTS_ASYNCSINK_H

#include "events/EventSink.h"
#include "events/SpscBatchRing.h"

#include <atomic>
#include <cstdint>
#include <thread>

namespace bigfoot {

/// EventSink that forwards batches to \p Downstream on a dedicated
/// detector thread. consumeBatch() and drain() must be called from one
/// producer thread (the VM's); the downstream sink is touched only by the
/// detector thread between start and drain.
class AsyncSink final : public EventSink {
public:
  /// Spawns the detector thread. \p Downstream must outlive this sink.
  AsyncSink(EventSink &Downstream,
            size_t RingBatches = kDefaultAsyncRingBatches);

  /// Drains, stops, and joins the detector thread.
  ~AsyncSink() override;

  AsyncSink(const AsyncSink &) = delete;
  AsyncSink &operator=(const AsyncSink &) = delete;

  /// Producer side: copies the batch into the ring (blocking while the
  /// ring is full) and hands it to the detector thread.
  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override;

  /// Blocks until every batch published so far has been applied
  /// downstream. After drain() returns, downstream state and the stats
  /// accessors below are safe to read from the producer thread.
  void drain();

  /// Nanoseconds the detector thread spent applying batches (busy time
  /// only; waiting for work is excluded). Valid after drain().
  uint64_t busyNs() const { return BusyNs; }

  /// Batches handed through the ring. Valid after drain().
  uint64_t batchesConsumed() const { return Ring.published(); }

  /// Times the producer blocked on a full ring (backpressure events).
  uint64_t producerStalls() const { return Ring.fullStalls(); }

private:
  void consumerLoop();

  EventSink &Downstream;
  SpscBatchRing Ring;
  std::atomic<bool> Stop{false};
  /// Written by the detector thread before each pop() (release on Head);
  /// read by the producer after drain()'s acquire — no torn reads.
  uint64_t BusyNs = 0;
  std::thread Worker;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_ASYNCSINK_H
