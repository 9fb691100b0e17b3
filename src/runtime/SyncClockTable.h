//===- SyncClockTable.h - The one writer of sharded sync state --*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The writer half of the split happens-before state (DESIGN.md Sec. 13).
/// Checks never mutate synchronization clocks; they only read the acting
/// thread's current view. So the sharded backend does not keep N
/// replicas of HbState coherent by replaying every sync edge in every
/// lane. Instead a single writer (the fan-out producer) applies each sync
/// edge once to one embedded HbState and ships the post-edge clock of
/// every thread the edge changed. The clocks ride the edge's marker to
/// every lane, which installs them into its own per-thread views.
///
/// Lock, volatile and final (join) release clocks never leave the writer:
/// checks read only thread views, so only thread clocks ship. A thread
/// whose clock the writer never initialized ships nothing; every lane
/// starts it at the initial view {T:1}.
///
/// Shipped-clock format: records back to back in one word array, each
/// [tid, width, entry 0, ..., entry width-1]. forEachShippedClock walks
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_SYNCCLOCKTABLE_H
#define BIGFOOT_RUNTIME_SYNCCLOCKTABLE_H

#include "runtime/HbState.h"
#include "runtime/VectorClock.h"

#include <cstdint>
#include <vector>

namespace bigfoot {

/// The synchronization-edge kinds a sync marker can carry. A runtime-level
/// mirror of the event-stream sync/lifecycle kinds (the runtime layer does
/// not see src/events); ThreadBegin and Commit have no clock effect but
/// still pass through the lanes in stream order, and Commit additionally
/// commits deferred footprints lane-side.
enum class SyncEdgeKind : uint8_t {
  None,
  Acquire,
  Release,
  VolatileRead,
  VolatileWrite,
  Fork,
  Join,
  Barrier,
  ThreadBegin,
  ThreadExit,
  Commit,
};

/// One synchronization edge, decoded from the event stream: what the
/// writer applies to the table and what a check lane applies as a marker.
struct SyncEdge {
  SyncEdgeKind Kind = SyncEdgeKind::None;
  ThreadId Tid = 0;   ///< Acting thread (parent for Fork, joiner for Join).
  uint64_t Obj = 0;   ///< Lock / volatile object id.
  FieldId Field = kNoSym; ///< Volatile field id.
  uint64_t Aux = 0;   ///< Child tid (Fork), joined tid (Join).
  const ThreadId *Parties = nullptr; ///< Barrier party list.
  size_t NumParties = 0;
  /// Lane side: the clocks the writer shipped for this edge.
  const uint64_t *Clocks = nullptr;
  size_t ClockWords = 0;
};

/// Calls \p Fn(T, Entries, Width) for each shipped clock record in the
/// \p NumWords words at \p Words.
template <typename FnT>
void forEachShippedClock(const uint64_t *Words, size_t NumWords, FnT &&Fn) {
  for (size_t I = 0; I < NumWords;) {
    uint32_t Width = static_cast<uint32_t>(Words[I + 1]);
    Fn(static_cast<ThreadId>(Words[I]), Words + I + 2, Width);
    I += 2 + size_t(Width);
  }
}

/// The single writer of the sharded run's sync state.
class SyncClockTable {
public:
  /// Applies one sync edge to the embedded HbState and appends to \p Out
  /// the post-edge clock of every thread it changed: the actor,
  /// parent then child for a fork, the parties in payload order for a
  /// barrier, nobody for a thread exit. Returns the post-edge HB byte
  /// census, carried on markers so lane memory samples reproduce a single
  /// detector's exactly.
  size_t apply(const SyncEdge &E, std::vector<uint64_t> &Out);

  /// First-touch clock-initialization parity with routed checks: a check
  /// by T initializes T's clock in a single detector, which the byte
  /// census tracks. Call on every routed check event that would touch the
  /// clock so the writer's census evolves exactly like an inline run's.
  /// Ships nothing: lanes start every view at {T:1} themselves.
  void touchThread(ThreadId T) { Hb.clockOf(T); }

  /// The writer's HB byte census right now (post-drain: the run-end
  /// value, including first-touch inits after the last sync edge).
  size_t hbBytes() const { return Hb.memoryBytes(); }

  /// Clocks shipped so far (one per changed thread per edge).
  uint64_t clocksShipped() const { return Shipped; }

private:
  /// Appends thread \p T's clock to \p Out as one record, if it has one.
  void ship(ThreadId T, std::vector<uint64_t> &Out);

  HbState Hb; ///< Thread, lock, volatile and final clocks: the only copy.
  std::vector<ThreadId> PartyScratch; ///< Barrier party list rebuild.
  uint64_t Shipped = 0;
};

} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_SYNCCLOCKTABLE_H
