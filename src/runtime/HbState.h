//===- HbState.h - Happens-before bookkeeping -------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-detector happens-before state: thread clocks plus release clocks
/// for locks, volatiles, forked threads, and barriers — the standard
/// DJIT+/FastTrack synchronization treatment (Section 5 handles the same
/// operations for Java).
///
/// Release clocks live in flat hash tables keyed by 64-bit ids (volatiles
/// use the packed (object, field-id) LocId), and every mutation keeps an
/// incremental byte census so memoryBytes() is O(1); auditMemoryBytes()
/// recomputes it by a full walk for the accounting test.
///
/// Each thread's packed current epoch c@t is cached and invalidated only
/// when its clock entry is incremented (a thread's own component never
/// rises through a join — vector-clock invariant), so the detector reads
/// one word per check event instead of recomputing epochOf per shadow op.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_HBSTATE_H
#define BIGFOOT_RUNTIME_HBSTATE_H

#include "runtime/ShadowCosts.h"
#include "runtime/VectorClock.h"
#include "support/FlatMap.h"
#include "support/Symbol.h"

#include <cassert>
#include <vector>

namespace bigfoot {

/// Identifies a heap object / array in the VM.
using ObjectId = uint64_t;

/// Happens-before clocks shared by all detectors.
class HbState {
public:
  /// The current clock of thread \p T.
  VectorClock &clockOf(ThreadId T) {
    if (T >= Threads.size()) {
      TrackedBytes += (T + 1 - Threads.size()) * sizeof(VectorClock);
      Threads.resize(T + 1);
      Epochs.resize(T + 1);
    }
    VectorClock &C = Threads[T];
    if (C.get(T) == 0) {
      size_t Before = shadowcost::clockBytes(C);
      C.set(T, 1); // Clocks start at 1; 0 is the bottom epoch.
      Epochs[T] = Epoch(T, 1);
      TrackedBytes += shadowcost::clockBytes(C) - Before;
    }
    return C;
  }

  /// The cached packed epoch c@t of thread \p T — one vector load on the
  /// check-event hot path. Valid until the thread's next increment.
  Epoch epochOf(ThreadId T) {
    clockOf(T); // Ensure initialized.
    assert(Epochs[T].clock() == Threads[T].get(T) &&
           "stale cached epoch: own clock entry changed outside bump()");
    return Epochs[T];
  }

  /// The clock and cached epoch of \p T behind a single initialization
  /// check — check events need both, and a non-bottom cached epoch
  /// certifies the thread's clock is live (clocks start at 1).
  struct ThreadView {
    const VectorClock &C;
    Epoch Cur;
  };
  ThreadView current(ThreadId T) {
    if (T < Threads.size() && !Epochs[T].isBottom())
      return {Threads[T], Epochs[T]};
    const VectorClock &C = clockOf(T);
    return {C, Epochs[T]};
  }

  void onAcquire(ThreadId T, ObjectId Lock) {
    VectorClock &C = clockOf(T);
    joinInto(C, entry(LockClocks, Lock));
  }

  void onRelease(ThreadId T, ObjectId Lock) {
    VectorClock &C = clockOf(T);
    assignEntry(entry(LockClocks, Lock), C);
    bump(C, T);
  }

  /// Volatile write = release to the volatile's clock; volatile read =
  /// acquire from it.
  void onVolatileWrite(ThreadId T, ObjectId Obj, FieldId Field) {
    VectorClock &C = clockOf(T);
    assignEntry(entry(VolatileClocks, packLoc(Obj, Field)), C);
    bump(C, T);
  }

  void onVolatileRead(ThreadId T, ObjectId Obj, FieldId Field) {
    if (const VectorClock *VC = VolatileClocks.find(packLoc(Obj, Field)))
      joinInto(clockOf(T), *VC);
  }

  void onFork(ThreadId Parent, ThreadId Child) {
    // Copy before touching the child: clockOf may grow the vector and
    // invalidate references.
    VectorClock P = clockOf(Parent);
    joinInto(clockOf(Child), P);
    bump(clockOf(Parent), Parent);
  }

  void onThreadExit(ThreadId T) {
    VectorClock &C = clockOf(T);
    assignEntry(entry(FinalClocks, T), C);
  }

  void onJoin(ThreadId Joiner, ThreadId Joined) {
    if (const VectorClock *FC = FinalClocks.find(Joined))
      joinInto(clockOf(Joiner), *FC);
  }

  /// All parties release into the barrier, then all acquire the join.
  void onBarrier(const std::vector<ThreadId> &Parties) {
    VectorClock Joined;
    for (ThreadId T : Parties)
      Joined.joinWith(clockOf(T));
    for (ThreadId T : Parties) {
      VectorClock &C = clockOf(T);
      joinInto(C, Joined);
      bump(C, T);
    }
  }

  /// Approximate footprint in bytes, maintained incrementally — O(1).
  size_t memoryBytes() const { return TrackedBytes; }

  /// Recomputes the footprint by walking every clock; must always equal
  /// memoryBytes() (asserted by the accounting test).
  size_t auditMemoryBytes() const {
    size_t Bytes = 0;
    for (const VectorClock &C : Threads)
      Bytes += shadowcost::clockBytes(C);
    auto MapBytes = [](const FlatMap<VectorClock> &Map) {
      size_t B = 0;
      for (const auto &Item : Map)
        B += shadowcost::kEntryKeyBytes + shadowcost::clockBytes(Item.Value);
      return B;
    };
    return Bytes + MapBytes(LockClocks) + MapBytes(VolatileClocks) +
           MapBytes(FinalClocks);
  }

private:
  std::vector<VectorClock> Threads;
  /// Cached packed epoch per thread, refreshed only by bump()/init.
  std::vector<Epoch> Epochs;
  FlatMap<VectorClock> LockClocks;
  /// Keyed by packLoc(Obj, FieldId).
  FlatMap<VectorClock> VolatileClocks;
  /// Keyed by the exited thread id.
  FlatMap<VectorClock> FinalClocks;
  size_t TrackedBytes = 0;

  /// Increments \p T's own clock entry and refreshes the cached epoch —
  /// the only way a thread's own component ever changes.
  void bump(VectorClock &C, ThreadId T) {
    C.increment(T);
    Epochs[T] = Epoch(T, C.get(T));
  }

  /// The release clock stored under \p Key, inserting (and accounting for)
  /// an empty one if absent. The reference is valid until the map's next
  /// insertion.
  VectorClock &entry(FlatMap<VectorClock> &Map, uint64_t Key) {
    auto [C, IsNew] = Map.emplace(Key);
    if (IsNew)
      TrackedBytes += shadowcost::kEntryKeyBytes + shadowcost::clockBytes(C);
    return C;
  }

  /// C.joinWith(Other) with byte accounting (the join may grow C).
  void joinInto(VectorClock &C, const VectorClock &Other) {
    size_t Before = shadowcost::clockBytes(C);
    C.joinWith(Other);
    TrackedBytes += shadowcost::clockBytes(C) - Before;
  }

  /// Dest = Src with byte accounting.
  void assignEntry(VectorClock &Dest, const VectorClock &Src) {
    size_t Before = shadowcost::clockBytes(Dest);
    Dest = Src;
    TrackedBytes += shadowcost::clockBytes(Dest) - Before;
  }
};

} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_HBSTATE_H
