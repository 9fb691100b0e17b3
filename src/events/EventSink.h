//===- EventSink.h - Batched event consumers and the ring buffer -*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer side of the event stream. An `EventSink` receives events
/// in batches — one virtual call per batch, not per event — so consumers
/// amortize dispatch and keep their own state hot across a whole batch.
/// The `EventRing` is the producer's buffer: the VM appends into it and
/// it flushes full batches to its sink; capacity 1 degenerates to
/// per-event dispatch (the differential reference mode). `TeeSink` fans
/// one stream out to several consumers (detector + trace writer), which
/// is also where a future concurrent-consumer thread would attach.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_EVENTSINK_H
#define BIGFOOT_EVENTS_EVENTSINK_H

#include "events/Event.h"

#include <cassert>
#include <vector>

namespace bigfoot {

/// A batch consumer of the event stream. \p Payload is the arena the
/// batch's (PayloadIndex, PayloadCount) references resolve against; it is
/// only guaranteed alive for the duration of the call.
class EventSink {
public:
  virtual ~EventSink() = default;
  virtual void consumeBatch(const Event *Events, size_t N,
                            const uint32_t *Payload) = 0;
};

/// Default events per batch: big enough to amortize the per-batch virtual
/// call to nothing, small enough that a batch's events and payload stay
/// resident in L1 alongside the consumer's hot shadow state.
inline constexpr size_t kDefaultEventBatch = 256;

/// The producer-side buffer: a fixed-capacity event array plus payload
/// arena. Appends are inline; a full buffer flushes one batch to the
/// sink. Single-producer by design (the VM's scheduler is one thread);
/// total event order is exactly append order.
class EventRing {
public:
  EventRing() = default;

  /// (Re)binds the ring to \p S with \p Capacity events per batch.
  /// Capacity 0 is clamped to 1 (per-event dispatch) rather than trapping:
  /// callers wire user-supplied batch sizes straight through.
  void reset(EventSink *S, size_t Capacity = kDefaultEventBatch) {
    Sink = S;
    Cap = Capacity ? Capacity : 1;
    Buf.resize(Cap);
    N = 0;
    Payload.clear();
  }

  bool attached() const { return Sink != nullptr; }

  /// Appends one payload-free event.
  void emit(const Event &E) {
    next() = E;
    commit();
  }

  /// Appends \p E with \p Count payload words copied from \p Words
  /// (field ids or thread ids; both are 32-bit).
  void emit(Event E, const uint32_t *Words, uint32_t Count) {
    E.PayloadIndex = addPayload(Words, Count);
    E.PayloadCount = Count;
    emit(E);
  }

  /// The slot the next event goes in, for a producer that writes an event
  /// in place: it sets every field, then calls commit().
  Event &next() { return Buf[N]; }

  /// Appends the event written into next(); a full buffer flushes.
  void commit() {
    if (++N == Cap)
      flush();
  }

  /// Copies \p Count payload words from \p Words into the batch's arena
  /// and returns the index of the first, for an event written in place.
  uint32_t addPayload(const uint32_t *Words, uint32_t Count) {
    uint32_t Index = static_cast<uint32_t>(Payload.size());
    // Word by word: a check carries one to four words, where a range
    // insert calls memmove.
    for (uint32_t I = 0; I < Count; ++I)
      Payload.push_back(Words[I]);
    return Index;
  }

  /// Delivers any buffered events to the sink and resets the batch.
  void flush() {
    if (N == 0)
      return;
    if (Sink)
      Sink->consumeBatch(Buf.data(), N, Payload.data());
    N = 0;
    Payload.clear();
  }

private:
  EventSink *Sink = nullptr;
  size_t Cap = 0;
  size_t N = 0;
  std::vector<Event> Buf;
  std::vector<uint32_t> Payload;
};

/// Fans one stream out to several sinks, in order.
class TeeSink final : public EventSink {
public:
  void add(EventSink *S) {
    if (S)
      Sinks.push_back(S);
  }

  size_t size() const { return Sinks.size(); }

  /// The single sink when only one is attached (lets callers skip the
  /// tee layer entirely).
  EventSink *sole() const { return Sinks.size() == 1 ? Sinks[0] : nullptr; }

  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override {
    for (EventSink *S : Sinks)
      S->consumeBatch(Events, N, Payload);
  }

private:
  std::vector<EventSink *> Sinks;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_EVENTSINK_H
