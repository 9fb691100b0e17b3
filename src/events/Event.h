//===- Event.h - The detector-visible event stream --------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed event stream between execution and detection (DESIGN.md
/// Sec. 9). Every detector-visible action the VM performs — coalesced
/// field/array checks, synchronization, allocation, thread lifecycle —
/// is one POD `Event` record. The VM appends events to an `EventRing`
/// and an `EventSink` consumes them in batches; nothing about an event
/// references live VM state, so a stream can equally be applied online,
/// written to a trace, or replayed offline.
///
/// Events with a variable-length tail (the field list of a coalesced
/// check, the party list of a barrier) store it in a parallel `uint32_t`
/// payload arena addressed by (PayloadIndex, PayloadCount); payload
/// indices are valid within the batch that carries the event.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_EVENT_H
#define BIGFOOT_EVENTS_EVENT_H

#include "bfj/Path.h"
#include "runtime/VectorClock.h"
#include "support/Symbol.h"

#include <cstdint>

namespace bigfoot {

/// Identifies a heap object / array in the VM (same alias as the shadow
/// runtime's; redeclared so event code does not pull in shadow state).
using ObjectId = uint64_t;

/// Every detector-visible action. Checks are (possibly coalesced)
/// placement events; the rest mirror the RaceDetector's synchronization
/// and lifecycle interface one-for-one.
enum class EventKind : uint8_t {
  FieldCheck,    ///< Fields in payload; Obj is the owning object.
  ArrayCheck,    ///< Strided range [Begin, End):Stride on array Obj.
  ArrayAlloc,    ///< Array Obj allocated with length Aux.
  Acquire,       ///< Tid acquired lock Obj.
  Release,       ///< Tid released lock Obj.
  VolatileRead,  ///< Tid read volatile Obj.Field.
  VolatileWrite, ///< Tid wrote volatile Obj.Field.
  Fork,          ///< Tid forked thread Aux.
  Join,          ///< Tid joined thread Aux.
  Barrier,       ///< Parties (thread ids) in payload, arrival order.
  ThreadBegin,   ///< Thread Tid exists (no detector effect; stream marker).
  ThreadExit,    ///< Thread Tid finished.
  Commit,        ///< Periodic footprint commit for Tid (Section 3.3).
};

/// Longest array an ArrayAlloc may declare, in elements: over 1000x the
/// largest array any workload allocates. The VM fails a longer allocation
/// and the trace reader rejects one, because array shadow state is sized
/// by length up front and an unbounded length aborts the process instead.
inline constexpr uint64_t kMaxArrayLength = uint64_t(1) << 26;

/// How many distinct EventKind values exist (codec/fuzz bounds).
inline constexpr unsigned kNumEventKinds =
    static_cast<unsigned>(EventKind::Commit) + 1;

/// Which consumer(s) an event is for. Placement checks go to the
/// attached tool; per-access events feed the ground-truth oracle;
/// synchronization is visible to both.
enum : uint8_t {
  kTargetTool = 1u << 0,
  kTargetOracle = 1u << 1,
  kTargetBoth = kTargetTool | kTargetOracle,
};

/// One detector-visible event. Plain old data: memcpy-safe, no pointers,
/// no strings — locations are interned ids throughout.
struct Event {
  EventKind Kind = EventKind::FieldCheck;
  uint8_t Target = kTargetTool;        ///< kTarget* mask.
  AccessKind Access = AccessKind::Read; ///< Checks only.
  ThreadId Tid = 0;      ///< Acting thread (parent for Fork, joiner for Join).
  ObjectId Obj = 0;      ///< Object / array / lock id.
  uint64_t Aux = 0;      ///< Child tid (Fork), joined tid (Join),
                         ///< array length (ArrayAlloc).
  FieldId Field = kNoSym; ///< Volatile field id.
  uint32_t PayloadIndex = 0; ///< Into the batch's payload arena.
  uint32_t PayloadCount = 0; ///< Payload words (fields / parties).
  int64_t Begin = 0, End = 0, Stride = 1; ///< ArrayCheck range.
};

static_assert(std::is_trivially_copyable_v<Event>, "events must stay POD");

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_EVENT_H
