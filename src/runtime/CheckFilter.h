//===- CheckFilter.h - Dynamic redundant-check elision ----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread direct-mapped cache in front of the FastTrack/DJIT state
/// machine (DESIGN.md Sec. 11). BigFoot removes redundant checks
/// *statically*; the same redundancy is visible dynamically — once a
/// thread has checked a location, every repeat check at an
/// equal-or-weaker access kind is a provable no-op until the thread's
/// own clock advances. The filter stamps each checked location with the
/// thread's stamp generation and the strongest access kind applied; a
/// valid stamp lets the detector skip the whole shadow lookup and state
/// transition while replicating its counters exactly.
///
/// Soundness hinges on one invariant: a thread's packed epoch c@t
/// changes only through HbState::bump(), and the detector bumps the
/// thread's stamp generation at every event that calls it (release,
/// volatile write, fork, barrier) plus join and thread exit. So while a
/// stamp is generation-valid, the stamping thread still runs at the
/// stamped epoch and no other thread's clock has been handed an entry
/// covering it — the skipped transition could only have re-recorded an
/// access the shadow state already absorbed.
///
/// Invalidation is O(1) by construction: release-side synchronization
/// bumps the thread's generation counter; entries are never scanned.
///
/// The cost model is asymmetric: a hit saves a shadow-map probe plus a
/// state transition, but a miss *adds* a table probe and a stamp to a
/// path that is often already a cheap same-epoch no-op. Three measures
/// keep misses nearly free. First, probe and stamp share one slot
/// resolution: a miss caches the slot, and the stamp after the real
/// check writes through it hash-free. Second, a per-thread adaptive
/// duty cycle watches the hit rate in windows and, when a window lands
/// below the probe-cost break-even rate, grants the *caller* a skip
/// budget (the high half of the packed hit result): the detector burns
/// that many checks down in its own thread cache without entering the
/// filter at all, so a workload with no dynamic redundancy degrades to
/// one local counter decrement per check — not even a dead probe. The
/// budget grows exponentially while windows stay cold, every leg
/// starts asleep under a warmup grant (DetectorConfig::FilterWarmup)
/// so short traces never probe at all, and the schedule is a pure
/// function of each thread's own check sequence, so record, replay,
/// and lane runs stay bit-identical. Third, the initial tables live
/// inline in the per-thread record (a short trace never allocates),
/// growing 4x when the stamp volume since the last growth exceeds the
/// slot count — sustained eviction is the signal that the working set
/// outgrew the table — but only while the leg has never closed a cold
/// window (or has recovered warm since), and a zero-hit cold close
/// drops the tables back to the inline storage: the grown table is
/// provably dead weight, and wake-window probes stay in one L1 line.
///
/// Array ranges are filtered in both shadow modes, with different
/// soundness arguments:
///
///  - Direct (non-deferred, Fine-mode) shadows: the unfiltered op count
///    of a fully applied range is exactly its element count, so the
///    stamp records the union of fully applied, unclipped, race-free
///    ranges (widened via StridedRange::unionWith so StaticBF's
///    coalesced sweeps compose with the filter) plus a per-index bitmap
///    over indices [0,64) for scatter patterns no single strided range
///    captures. A covered repeat skips the per-element walk by the
///    epoch argument above.
///
///  - Deferred footprints (SlimState/SlimCard/BigFoot): hits are pure
///    *state identity*, not race logic. RangeSet::add is a no-op
///    exactly when the added range lands in the trailing stride-1
///    fragment without extending it; the stamp mirrors that fragment.
///    A hit additionally requires R.begin() strictly inside the mirror:
///    with equal begins a later non-trailing add could stride-merge
///    with the left neighbor fragment and restructure the set, while a
///    strictly interior stride-1 range always resolves to the covering
///    fragment itself (erase + reinsert unchanged). Coverage only grows
///    within a release-free span, so a mirror hit made while probing
///    was paused stays sound. Kind-exact always: the Reads and Writes
///    sets are separate state. Invalidation rides the footprint
///    lifecycle (commitFootprints / early commit), not release edges.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_CHECKFILTER_H
#define BIGFOOT_RUNTIME_CHECKFILTER_H

#include "bfj/Path.h"
#include "runtime/HbState.h"
#include "runtime/ShadowCosts.h"
#include "support/StridedRange.h"
#include "support/Symbol.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace bigfoot {

/// Filter effectiveness tallies. Deliberately kept out of the Stats map:
/// race reports and harness counters must be byte-identical with the
/// filter on and off, so its own accounting travels beside the counters
/// (VmResult/ReplayResult), not among them. Misses count probed misses
/// (plus bypassed wide groups); checks the caller passes through under
/// a duty-cycle skip grant never reach the filter and are not tallied.
struct CheckFilterStats {
  uint64_t FieldHits = 0;
  uint64_t FieldMisses = 0;
  uint64_t ArrayHits = 0;
  uint64_t ArrayMisses = 0;
  /// Per-thread generation bumps (release edges).
  uint64_t Invalidations = 0;
  /// Direct-array stamps widened in place via unionWith.
  uint64_t RangeExtends = 0;

  uint64_t hits() const { return FieldHits + ArrayHits; }
  uint64_t misses() const { return FieldMisses + ArrayMisses; }
};

class CheckFilter {
public:
  /// Mirrors the owning DetectorConfig: \p Adaptive disables direct
  /// array filtering (a Coarse/Grid shadow's op count is not replicable
  /// from a coverage test), \p Deferred routes arrays to the footprint
  /// mirror instead, \p VcOnly restricts hits to kind-exact.
  CheckFilter(bool Deferred, bool Adaptive, bool VcOnly)
      : DirectArrays(!Deferred && !Adaptive), DeferredArrays(Deferred),
        VcOnly(VcOnly) {}

  //===--- Field groups -------------------------------------------------------
  /// Packed probe result: the low 32 bits are the stamped shadow-op
  /// count (>= 1) when the check is a provable no-op, 0 on a miss. The
  /// high 32 bits are a skip grant — when nonzero, the duty cycle went
  /// to sleep and the caller owes the filter silence for that many of
  /// this thread's checks on this leg (the caller counts them down
  /// locally, so sleeping checks never re-enter the filter at all). A
  /// miss caches the resolved slot; stampFields MUST only be called
  /// right after a miss, with the same location, and writes through
  /// that slot hash-free.
  uint64_t fieldHit(ThreadId T, ObjectId Obj, const FieldId *Fields,
                    size_t NumFields, AccessKind K) {
    if (NumFields == 0 || NumFields > kMaxGroup) {
      ++FieldBypasses_;
      PendingField = nullptr; // Suppress the stamp that follows.
      return 0;
    }
    Thread &Tab = threadFor(T);
    FieldEntry &E = Tab.fields()[fieldSlot(Obj, Fields[0], Tab.FieldShift)];
    if (E.Obj == Obj && E.Gen == Tab.FieldGen &&
        E.NumFields == NumFields && sameFields(E, Fields, NumFields) &&
        kindAllowed(E.KindMask, K)) {
      uint64_t Skip = Tab.FieldsDC.windowTick(/*Hit=*/true);
      return uint64_t(E.RepCount) | (Skip << 32);
    }
    PendingField = &E;
    PendingFieldTab = &Tab;
    uint32_t Skip = Tab.FieldsDC.windowTick(/*Hit=*/false);
    if (Skip && Tab.FieldsDC.LastWinHits == 0) {
      Tab.resetFieldTable();
      PendingField = nullptr; // The slot just died with the table.
    }
    return uint64_t(Skip) << 32;
  }

  /// Stamps the slot the preceding miss resolved (no-op when probing
  /// was paused or the group bypassed). Never call after a hit.
  void stampFields(ObjectId Obj, const FieldId *Fields, size_t NumFields,
                   AccessKind K, uint32_t RepCount) {
    FieldEntry *E = PendingField;
    if (!E)
      return;
    Thread &Tab = *PendingFieldTab;
    if (E->Obj == Obj && E->Gen == Tab.FieldGen &&
        E->NumFields == NumFields && sameFields(*E, Fields, NumFields)) {
      // Same live location, new kind (a read stamp upgraded by a write
      // or vice versa): widen the mask. RepCount depends only on the
      // field list, so it is unchanged.
      E->KindMask |= kindBit(K);
      return;
    }
    // A fresh stamp per slot's worth of writes since the last growth
    // means the working set is evicting itself: quadruple (cold path).
    // Only legs that have never closed cold (or recovered warm) grow —
    // a leg in the cold/sleep regime has already shown that capacity
    // is not its problem, and re-growing on every wake window would
    // pay the alloc+zero+rehash over and over for nothing.
    if (++Tab.FieldStamps > Tab.fieldSlots() &&
        Tab.FieldShift > kFieldShiftMin &&
        Tab.FieldsDC.Next == DutyCycle::kSleepInit)
      E = growFields(Tab, Obj, Fields[0]);
    E->Obj = Obj;
    E->Gen = Tab.FieldGen;
    for (size_t I = 0; I != NumFields; ++I)
      E->Fields[I] = Fields[I];
    E->NumFields = static_cast<uint8_t>(NumFields);
    E->KindMask = kindBit(K);
    E->RepCount = static_cast<uint8_t>(RepCount);
  }

  //===--- Direct (non-deferred) array ranges ---------------------------------
  /// Same packed contract as fieldHit: low 32 bits nonzero on a covered
  /// hit, high 32 bits a skip grant.
  uint64_t arrayHit(ThreadId T, ObjectId Arr, const StridedRange &R,
                    AccessKind K) {
    Thread &Tab = threadFor(T);
    ArrayEntry &E = Tab.arrays()[arraySlot(Arr, Tab.ArrayShift)];
    if (E.Arr == Arr && E.Gen == Tab.FieldGen && directCovered(E, R, K))
      return 1u | (uint64_t(Tab.ArraysDC.windowTick(/*Hit=*/true)) << 32);
    PendingArray = &E;
    PendingArrayGen = Tab.FieldGen;
    PendingArrayTab = &Tab;
    uint32_t Skip = Tab.ArraysDC.windowTick(/*Hit=*/false);
    if (Skip && Tab.ArraysDC.LastWinHits == 0) {
      Tab.resetArrayTable();
      PendingArray = nullptr;
    }
    return uint64_t(Skip) << 32;
  }

  /// Stamps a fully applied (unclipped, refinement-free, race-free)
  /// direct range through the slot the preceding miss resolved,
  /// widening the existing stamp when the union is again one strided
  /// range and setting per-index bits for small unit-stride ranges.
  void stampArray(ObjectId Arr, const StridedRange &R, AccessKind K);

  //===--- Deferred footprint mirrors ------------------------------------------
  /// Low 32 bits nonzero when adding \p R to the thread's footprint for
  /// \p Arr is provably a RangeSet no-op (see file comment): unit
  /// stride, strictly interior to the mirrored trailing fragment. The
  /// caller replicates the footprint-add counter and skips the map
  /// entirely. High 32 bits: skip grant, as in fieldHit.
  uint64_t deferredHit(ThreadId T, ObjectId Arr, const StridedRange &R,
                       AccessKind K) {
    Thread &Tab = threadFor(T);
    ArrayEntry &E = Tab.arrays()[arraySlot(Arr, Tab.ArrayShift)];
    if (E.Arr == Arr && E.Gen == Tab.ArrGen) {
      const StridedRange &M = K == AccessKind::Write ? E.WriteR : E.ReadR;
      if (R.stride() == 1 && !M.empty() && R.begin() > M.begin() &&
          R.end() <= M.end())
        return 1u | (uint64_t(Tab.ArraysDC.windowTick(/*Hit=*/true)) << 32);
    }
    PendingArray = &E;
    PendingArrayGen = Tab.ArrGen;
    PendingArrayTab = &Tab;
    uint32_t Skip = Tab.ArraysDC.windowTick(/*Hit=*/false);
    if (Skip && Tab.ArraysDC.LastWinHits == 0) {
      Tab.resetArrayTable();
      PendingArray = nullptr;
    }
    return uint64_t(Skip) << 32;
  }

  /// Mirrors the trailing fragment of the footprint \p R was just added
  /// to (\p Back may be null when the set is empty, which cannot happen
  /// after an add but keeps the contract total).
  void stampDeferred(ObjectId Arr, AccessKind K, const StridedRange *Back);

  //===--- Invalidation --------------------------------------------------------
  /// Release-edge invalidation: every stamp of \p T dies with one
  /// generation bump, never a table scan. Threads that never probed
  /// have no tables and nothing to invalidate beyond the tally.
  void invalidateThread(ThreadId T) {
    ++Invalidations_;
    tickThread(T);
  }

  /// The generation bump of invalidateThread without the tally: sharded
  /// table mode (DESIGN.md Sec. 13) ticks every lane's generations when
  /// its horizon passes a release edge, but the edge is counted once,
  /// producer-side — summing per-lane tallies would overcount N×.
  void tickThread(ThreadId T) {
    if (T >= Threads.size())
      return;
    Thread &Tab = Threads[T];
    if (++Tab.FieldGen == 0) {
      // A wrapped generation could revalidate ancient stamps; clearing
      // on wrap keeps the match exact. Unreachable in practice (2^32
      // release edges of one thread).
      std::fill_n(Tab.fields(), Tab.fieldSlots(), FieldEntry());
      std::fill_n(Tab.arrays(), Tab.arraySlots(), ArrayEntry());
      Tab.FieldGen = 1;
    }
  }

  /// Deferred-mirror invalidation, called when the thread's pending
  /// footprints are committed (or early-committed) and cleared.
  void invalidateFootprints(ThreadId T) {
    if (T >= Threads.size())
      return;
    Thread &Tab = Threads[T];
    if (++Tab.ArrGen == 0) {
      std::fill_n(Tab.arrays(), Tab.arraySlots(), ArrayEntry());
      Tab.ArrGen = 1;
    }
  }

  //===--- Introspection --------------------------------------------------------
  bool directArraysEnabled() const { return DirectArrays; }
  bool deferredArraysEnabled() const { return DeferredArrays; }

  /// Snapshot assembled from the per-thread duty-cycle accumulators —
  /// the hot paths touch only the thread-local cycle counters, never a
  /// shared tally line.
  CheckFilterStats stats() const {
    CheckFilterStats S;
    S.Invalidations = Invalidations_;
    S.RangeExtends = RangeExtends_;
    S.FieldMisses = FieldBypasses_;
    for (const Thread &Tab : Threads) {
      S.FieldHits += Tab.FieldsDC.AccHits + Tab.FieldsDC.Hits;
      S.FieldMisses += Tab.FieldsDC.AccSeen + Tab.FieldsDC.Seen -
                       Tab.FieldsDC.AccHits - Tab.FieldsDC.Hits;
      S.ArrayHits += Tab.ArraysDC.AccHits + Tab.ArraysDC.Hits;
      S.ArrayMisses += Tab.ArraysDC.AccSeen + Tab.ArraysDC.Seen -
                       Tab.ArraysDC.AccHits - Tab.ArraysDC.Hits;
    }
    return S;
  }

  /// Filter metadata footprint, charged through the ShadowCosts model
  /// (Table 2's census counts it as detector metadata).
  size_t memoryBytes() const {
    // The initial tables are inside sizeof(Thread); only grown tables
    // add heap bytes.
    size_t Bytes = sizeof(CheckFilter);
    for (const Thread &Tab : Threads)
      Bytes += sizeof(Thread) +
               shadowcost::filterTableBytes(Tab.FieldsHeap.size(),
                                            sizeof(FieldEntry)) +
               shadowcost::filterTableBytes(Tab.ArraysHeap.size(),
                                            sizeof(ArrayEntry));
    return Bytes;
  }

private:
  /// Coalesced checks carry a handful of fields; larger groups bypass.
  static constexpr size_t kMaxGroup = 4;
  /// Table sizes are tracked as shift amounts (slot = hash >> shift).
  /// Fields: 8 slots initially, growing 4x up to 4096; arrays: 4 up to
  /// 1024. The initial tables are small enough to embed in the Thread
  /// record itself, so short traces (BigFoot's coalesced placements
  /// shrink some traces to dozens of events) allocate nothing at all;
  /// growth rehashes the generation-valid stamps so a large working
  /// set accumulates across growths instead of restarting from zero
  /// each time.
  static constexpr uint8_t kFieldShiftInit = 61;
  static constexpr uint8_t kFieldShiftMin = 52;
  static constexpr uint8_t kArrayShiftInit = 62;
  static constexpr uint8_t kArrayShiftMin = 54;

  /// 32 bytes: one probe touches a single cache line pair at worst.
  struct FieldEntry {
    ObjectId Obj = ~uint64_t(0);
    FieldId Fields[kMaxGroup] = {};
    uint32_t Gen = 0; ///< Matches a live generation only once stamped.
    uint8_t NumFields = 0;
    uint8_t KindMask = 0; ///< bit 0 = read applied, bit 1 = write applied.
    uint8_t RepCount = 0; ///< Deduped shadow ops to replicate on a hit.
    uint8_t Pad = 0;
  };

  /// Direct mode: ReadR/WriteR are absorbed-range stamps and the masks
  /// carry per-index coverage for indices [0,64). Deferred mode:
  /// ReadR/WriteR mirror the trailing footprint fragment; masks unused.
  /// Line-aligned with key, generation, and both ranges in the first 64
  /// bytes, so a deferred probe touches exactly one cache line and a
  /// direct probe only reaches the second (mask) line when the range
  /// cover test fails.
  struct alignas(64) ArrayEntry {
    ObjectId Arr = ~uint64_t(0);
    uint32_t Gen = 0;
    StridedRange ReadR;
    StridedRange WriteR;
    uint64_t ReadMask = 0;
    uint64_t WriteMask = 0;
  };

  /// Adaptive duty cycle, one per leg per thread (per-thread because
  /// redundancy is phase- and thread-local: a main thread sweeping
  /// through setup must not put a worker's probing to sleep, and a
  /// freshly forked worker starts with a fresh cycle). Probing runs in
  /// windows; a window hitting under the leg's break-even rate closes
  /// cold, granting the
  /// caller a skip (octupling up to kSleepMax while the drought lasts)
  /// and doubling the next window up to kWinMax: periodic redundancy
  /// (a thread re-scanning a shared structure) only shows up once a
  /// window spans a full period, so cold windows grow to catch longer
  /// periods instead of giving up on them; a warm window resets both.
  /// There is deliberately no permanent retirement: a sleeping leg
  /// never stamps, so hits can only re-establish during a probing
  /// window — the growing wake window gives a late-blooming phase room
  /// to stamp its working set and start hitting, while the capped
  /// sleep already bounds a truly dead leg's probing to a fraction of
  /// a percent. The window
  /// starts small — the first window is paid by every leg of every
  /// thread, redundant or not, so it must be cheap; cold doubling
  /// restores statistical confidence exactly where it matters. The
  /// threshold tracks each leg's measured break-even hit rate (see the
  /// constructor comment): probing below break-even loses, so such
  /// legs are better off asleep. Driven only by the thread's own check
  /// count —
  /// deterministic for a given event stream. AccHits/AccSeen
  /// accumulate closed windows so the global stats snapshot needs no
  /// shared tally on the hot path.
  struct DutyCycle {
    static constexpr uint32_t kWinMax = 4096;
    static constexpr uint32_t kSleepInit = 16384;
    static constexpr uint32_t kSleepMax = 1 << 20;

    /// Break-even differs per leg: a field hit saves one state
    /// transition (break-even near 1/2), while an array hit saves a
    /// whole per-element walk or footprint add, so even sparse array
    /// hits pay for the probing between them (break-even much lower).
    /// Cold when Hits << ColdShift < WinLen, i.e. the hit rate is
    /// under 1/2^ColdShift.
    DutyCycle(uint32_t Shift, uint32_t Win)
        : ColdShift(Shift), WinInit(Win), WinLen(Win) {}

    uint32_t ColdShift;
    uint32_t WinInit;
    uint32_t Next = kSleepInit;
    uint32_t Seen = 0;
    uint32_t Hits = 0;
    uint32_t WinLen;
    /// Hit count of the most recently closed window (so a caller acting
    /// on a cold close can tell "sparse" from "provably dead").
    uint32_t LastWinHits = 0;
    uint64_t AccHits = 0;
    uint64_t AccSeen = 0;

    /// Returns the skip grant to hand the caller: 0 while the window is
    /// open or closes warm, the sleep length when it closes cold.
    uint32_t windowTick(bool Hit) {
      Hits += Hit;
      if (++Seen != WinLen)
        return 0;
      AccSeen += Seen;
      AccHits += Hits;
      LastWinHits = Hits;
      uint32_t Skip = 0;
      if ((Hits << ColdShift) < WinLen) {
        Skip = Next;
        Next = Next < kSleepMax / 8 ? Next * 8 : kSleepMax;
        WinLen = WinLen < kWinMax ? WinLen * 2 : kWinMax;
      } else {
        Next = kSleepInit;
        WinLen = WinInit;
      }
      Seen = 0;
      Hits = 0;
      return Skip;
    }
  };

  struct Thread {
    /// Start at 1 so zero-initialized entries can never match.
    uint32_t FieldGen = 1;
    uint32_t ArrGen = 1;
    uint8_t FieldShift = kFieldShiftInit;
    uint8_t ArrayShift = kArrayShiftInit;
    /// Fresh stamps since the last growth (the eviction-rate signal).
    uint32_t FieldStamps = 0;
    uint32_t ArrayStamps = 0;
    DutyCycle FieldsDC{/*Shift=*/2, /*Win=*/1024};
    DutyCycle ArraysDC{/*Shift=*/1, /*Win=*/1024};
    /// The initial tables live inline: materializing a thread is one
    /// Threads.resize with zero mallocs, so a microsecond replay (a
    /// BigFoot-coalesced trace can be a few dozen events) pays nothing
    /// for the filter it barely touches. Growth moves to the heap
    /// vectors; probes select the live base per access instead of
    /// caching a self-pointer, which would dangle when Threads grows.
    FieldEntry FieldsInit[size_t(1) << (64 - kFieldShiftInit)];
    ArrayEntry ArraysInit[size_t(1) << (64 - kArrayShiftInit)];
    std::vector<FieldEntry> FieldsHeap;
    std::vector<ArrayEntry> ArraysHeap;

    FieldEntry *fields() {
      return FieldsHeap.empty() ? FieldsInit : FieldsHeap.data();
    }
    ArrayEntry *arrays() {
      return ArraysHeap.empty() ? ArraysInit : ArraysHeap.data();
    }
    size_t fieldSlots() const { return size_t(1) << (64 - FieldShift); }
    size_t arraySlots() const { return size_t(1) << (64 - ArrayShift); }

    /// A window just closed cold with zero hits: every stamp in the
    /// table is dead weight. Drop back to the inline table so the
    /// grown (junk) storage is freed and the sparse wake-window probes
    /// that follow stay inside one L1 line.
    void resetFieldTable() {
      FieldsHeap = {};
      FieldShift = kFieldShiftInit;
      std::fill_n(FieldsInit, size_t(1) << (64 - kFieldShiftInit),
                  FieldEntry());
      FieldStamps = 0;
    }
    void resetArrayTable() {
      ArraysHeap = {};
      ArrayShift = kArrayShiftInit;
      std::fill_n(ArraysInit, size_t(1) << (64 - kArrayShiftInit),
                  ArrayEntry());
      ArrayStamps = 0;
    }
  };

  bool DirectArrays;
  bool DeferredArrays;
  bool VcOnly;
  std::vector<Thread> Threads;
  /// Cold-path tallies; the hit/miss totals live in the per-thread
  /// duty-cycle accumulators (see stats()).
  uint64_t Invalidations_ = 0;
  uint64_t RangeExtends_ = 0;
  uint64_t FieldBypasses_ = 0;
  /// Slot resolved by the last field/array miss; stamp targets. Null
  /// while sleeping or bypassed, so stamps are naturally suppressed.
  FieldEntry *PendingField = nullptr;
  ArrayEntry *PendingArray = nullptr;
  Thread *PendingFieldTab = nullptr;
  Thread *PendingArrayTab = nullptr;
  uint32_t PendingArrayGen = 0;

  Thread &threadFor(ThreadId T) {
    if (T >= Threads.size()) [[unlikely]] {
      size_t Old = Threads.size();
      Threads.resize(T + 1);
      // The array legs' break-even hit rates differ per mode: a direct
      // hit saves a per-element walk (~1/2), a deferred hit only skips
      // a footprint add the RangeSet fast path makes nearly free, so
      // deferred probing pays off only when essentially every check
      // hits (shift 0: any miss closes the window cold).
      if (DeferredArrays)
        for (size_t I = Old; I != Threads.size(); ++I)
          Threads[I].ArraysDC.ColdShift = 0;
    }
    return Threads[T];
  }

  /// Cold growth paths (defined out of line); return the new slot for
  /// the stamp in flight.
  FieldEntry *growFields(Thread &Tab, ObjectId Obj, FieldId First);
  ArrayEntry *growArrays(Thread &Tab, ObjectId Arr);

  static size_t fieldSlot(ObjectId Obj, FieldId First, uint8_t Shift) {
    return size_t((packLoc(Obj, First) * 0x9E3779B97F4A7C15ull) >> Shift);
  }
  static size_t arraySlot(ObjectId Arr, uint8_t Shift) {
    return size_t((Arr * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  static bool sameFields(const FieldEntry &E, const FieldId *Fields,
                         size_t NumFields) {
    for (size_t I = 0; I != NumFields; ++I)
      if (E.Fields[I] != Fields[I])
        return false;
    return true;
  }

  static uint8_t kindBit(AccessKind K) {
    return K == AccessKind::Read ? 1 : 2;
  }

  /// Bits [begin, end) for a unit-stride range inside the mask domain,
  /// 0 when the range does not fit (callers treat 0 as "no mask form").
  static uint64_t maskBits(const StridedRange &R) {
    if (R.empty() || R.stride() != 1 || R.begin() < 0 || R.end() > 64)
      return 0;
    uint64_t Hi =
        R.end() == 64 ? ~uint64_t(0) : (uint64_t(1) << R.end()) - 1;
    return Hi & ~((uint64_t(1) << R.begin()) - 1);
  }

  bool directCovered(const ArrayEntry &E, const StridedRange &R,
                     AccessKind K) const {
    if (K == AccessKind::Write) {
      if (E.WriteR.covers(R))
        return true;
      uint64_t Need = maskBits(R);
      return Need && (E.WriteMask & Need) == Need;
    }
    if (E.ReadR.covers(R) || (!VcOnly && E.WriteR.covers(R)))
      return true;
    uint64_t Need = maskBits(R);
    uint64_t Have = E.ReadMask | (VcOnly ? 0 : E.WriteMask);
    return Need && (Have & Need) == Need;
  }

  /// A hit needs the exact kind bit, or — outside DJIT+ — a write stamp
  /// for a read: with W = c@t recorded, the skipped read's R := c@t is
  /// informationally redundant (the write check dominates every future
  /// transition and race report).
  bool kindAllowed(uint8_t Mask, AccessKind K) const {
    if (Mask & kindBit(K))
      return true;
    return K == AccessKind::Read && (Mask & 2) && !VcOnly;
  }
};

} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_CHECKFILTER_H
