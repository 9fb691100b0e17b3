//===- AsyncSink.h - Off-thread event sink behind an SPSC ring --*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AsyncSink moves N >= 1 downstream EventSinks onto threads of their own:
/// over the lane detectors' DetectorSinks it is the detection lanes
/// (DetectionOptions::Lanes). The producer side copies each incoming
/// batch once into the next SpscBatchRing slot and returns immediately;
/// each downstream's thread applies every batch to its sink in
/// publication order. Because the VM emits events from a single thread
/// and the detectors are passive consumers, in-order application
/// off-thread yields byte-identical reports to inline detection
/// (DESIGN.md Sec. 10).
///
/// drain() is the synchronization point: it blocks until every published
/// batch has been applied by every thread, after which downstream
/// detector state may be sampled from the caller's thread. The destructor
/// drains, stops, and joins, so tearing down an AsyncSink never abandons
/// buffered events.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_ASYNCSINK_H
#define BIGFOOT_EVENTS_ASYNCSINK_H

#include "events/EventSink.h"
#include "events/SpscBatchRing.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace bigfoot {

/// EventSink that forwards every batch to each of its downstream sinks, on
/// one thread per sink. consumeBatch() and drain() must be called from one
/// producer thread (the VM's); downstream sink C is touched only by its
/// thread between start and drain.
class AsyncSink final : public EventSink {
public:
  /// Spawns one thread per sink in \p Downstreams, which must outlive
  /// this sink.
  AsyncSink(std::vector<EventSink *> Downstreams,
            size_t RingBatches = kDefaultAsyncRingBatches);

  /// Drains, stops, and joins the threads.
  ~AsyncSink() override;

  AsyncSink(const AsyncSink &) = delete;
  AsyncSink &operator=(const AsyncSink &) = delete;

  /// Producer side: copies the batch into the ring (blocking while the
  /// ring is full) and hands it to every thread.
  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override;

  /// Blocks until every batch published so far has been applied to every
  /// downstream sink. After drain() returns, downstream state and the
  /// stats accessors below are safe to read from the producer thread.
  void drain();

  /// Nanoseconds the thread of downstream \p C spent applying batches
  /// (busy time only; waiting for work is excluded). Valid after drain().
  uint64_t busyNs(size_t C = 0) const { return BusyNs[C]; }

  /// Batches handed through the ring (each applied by every thread).
  /// Valid after drain().
  uint64_t batchesConsumed() const { return Ring.published(); }

  /// Times the producer blocked on a full ring (backpressure events).
  uint64_t producerStalls() const { return Ring.fullStalls(); }

  /// Of those, the times downstream \p C's thread was furthest behind.
  uint64_t producerStallsOn(size_t C) const { return Ring.fullStallsOn(C); }

private:
  void consumerLoop(size_t C);

  std::vector<EventSink *> Downstreams;
  SpscBatchRing Ring;
  std::atomic<bool> Stop{false};
  /// Element C is written by thread C before each pop() (release on its
  /// Head); read by the producer after drain()'s acquire — no torn reads.
  std::vector<uint64_t> BusyNs;
  std::vector<std::thread> Workers;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_ASYNCSINK_H
