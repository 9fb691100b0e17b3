//===- SyncClockTable.cpp - The one writer of sharded sync state ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "runtime/SyncClockTable.h"

using namespace bigfoot;

void SyncClockTable::ship(ThreadId T, std::vector<uint64_t> &Out) {
  // An edge that left T's clock uninitialized (a volatile read before any
  // write, a join of a thread with no final clock) ships nothing, and
  // reading it here must not initialize it: the census stays what a
  // single detector's would be.
  const VectorClock *C = Hb.liveClock(T);
  if (!C)
    return;
  Out.push_back(T);
  Out.push_back(C->size());
  Out.insert(Out.end(), C->entries(), C->entries() + C->size());
  ++Shipped;
}

size_t SyncClockTable::apply(const SyncEdge &E, std::vector<uint64_t> &Out) {
  switch (E.Kind) {
  case SyncEdgeKind::Acquire:
    Hb.onAcquire(E.Tid, E.Obj);
    ship(E.Tid, Out);
    break;
  case SyncEdgeKind::Release:
    Hb.onRelease(E.Tid, E.Obj);
    ship(E.Tid, Out);
    break;
  case SyncEdgeKind::VolatileRead:
    Hb.onVolatileRead(E.Tid, E.Obj, E.Field);
    ship(E.Tid, Out);
    break;
  case SyncEdgeKind::VolatileWrite:
    Hb.onVolatileWrite(E.Tid, E.Obj, E.Field);
    ship(E.Tid, Out);
    break;
  case SyncEdgeKind::Fork:
    Hb.onFork(E.Tid, static_cast<ThreadId>(E.Aux));
    ship(E.Tid, Out);
    ship(static_cast<ThreadId>(E.Aux), Out);
    break;
  case SyncEdgeKind::Join:
    Hb.onJoin(E.Tid, static_cast<ThreadId>(E.Aux));
    ship(E.Tid, Out);
    break;
  case SyncEdgeKind::Barrier:
    PartyScratch.assign(E.Parties, E.Parties + E.NumParties);
    Hb.onBarrier(PartyScratch);
    for (ThreadId T : PartyScratch)
      ship(T, Out);
    break;
  case SyncEdgeKind::ThreadExit:
    // Records T's final clock writer-side (joins read it via Hb); T's own
    // view is unchanged, so nothing ships.
    Hb.onThreadExit(E.Tid);
    break;
  case SyncEdgeKind::ThreadBegin:
  case SyncEdgeKind::Commit:
  case SyncEdgeKind::None:
    break; // No clock effect; the marker still reaches every lane.
  }
  return Hb.memoryBytes();
}
