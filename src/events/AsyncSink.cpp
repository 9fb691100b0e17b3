//===- AsyncSink.cpp - Off-thread event sink behind an SPSC ring ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/AsyncSink.h"

#include <chrono>

namespace bigfoot {

AsyncSink::AsyncSink(std::vector<EventSink *> Sinks, size_t RingBatches)
    : Downstreams(std::move(Sinks)), Ring(RingBatches, Downstreams.size()),
      BusyNs(Downstreams.size(), 0) {
  for (size_t C = 0; C < Downstreams.size(); ++C)
    Workers.emplace_back([this, C] { consumerLoop(C); });
}

AsyncSink::~AsyncSink() {
  drain();
  Stop.store(true, std::memory_order_release);
  Ring.wakeConsumer();
  for (std::thread &W : Workers)
    W.join();
}

void AsyncSink::consumeBatch(const Event *Events, size_t N,
                             const uint32_t *Payload) {
  if (N == 0)
    return;
  EventBatch &Slot = Ring.acquireSlot();
  Slot.assign(Events, N, Payload);
  Ring.publish();
}

void AsyncSink::drain() { Ring.drain(); }

void AsyncSink::consumerLoop(size_t C) {
  using Clock = std::chrono::steady_clock;
  EventSink &Downstream = *Downstreams[C];
  for (;;) {
    EventBatch *B = Ring.waitPeek(Stop, C);
    if (!B)
      return; // Stop observed with nothing left: all batches applied.
    auto T0 = Clock::now();
    Downstream.consumeBatch(B->Events.data(), B->Events.size(),
                            B->Payload.data());
    BusyNs[C] += uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
            .count());
    Ring.pop(C);
  }
}

} // namespace bigfoot
