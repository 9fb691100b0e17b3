//===- FastTrackState.h - Per-location FastTrack automaton ------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FastTrack per-shadow-location state machine [PLDI'09]: a last-write
/// epoch plus an adaptive read representation (epoch in the common case,
/// inflated to a full vector clock for read-shared data). Every detector
/// in this repository — FastTrack, RedCard, SlimState, SlimCard, BigFoot
/// — stores one of these per shadow location; they differ only in how many
/// shadow locations they keep and how often they touch them.
///
/// A non-inflated location is 24 POD bytes: two packed epochs plus two
/// 32-bit ClockPool indices (kNone while not inflated). Inflated clocks
/// live in the detector-owned pool, so duplicating a location during an
/// array-shadow split is a pool clone (clone()), not a deep heap copy.
/// Plain copying is deleted — it would alias pool slots; moves are the
/// trivial index moves the flat shadow tables need for relocation.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_FASTTRACKSTATE_H
#define BIGFOOT_RUNTIME_FASTTRACKSTATE_H

#include "runtime/ClockPool.h"
#include "runtime/VectorClock.h"

#include <optional>

namespace bigfoot {

/// What kind of conflict a shadow operation detected.
enum class RaceKind { WriteWrite, WriteRead, ReadWrite };

/// A detected conflict: the previous access's epoch and the current one.
struct RaceInfo {
  RaceKind Kind;
  Epoch Prev;
  Epoch Cur;
};

/// One shadow location.
class FastTrackState {
public:
  FastTrackState() = default;
  // Copying would alias pool indices; duplication goes through clone().
  FastTrackState(const FastTrackState &) = delete;
  FastTrackState &operator=(const FastTrackState &) = delete;
  // Trivial moves so the flat shadow tables can relocate states. The
  // moved-from state still names the same pool slots; it must be dropped
  // without reset(), never used.
  FastTrackState(FastTrackState &&) = default;
  FastTrackState &operator=(FastTrackState &&) = default;

  /// DJIT+ mode [Pozniansky-Schuster 07]: keep full vector clocks for
  /// reads AND writes instead of FastTrack's adaptive epochs. Used by the
  /// extra "djit" baseline configuration.
  void forceVectorClocks(ClockPool &Pool);

  /// Processes a read at epoch \p Cur (the current thread's cached packed
  /// epoch) whose full clock is \p C. Returns the race if the read
  /// conflicts with an earlier write.
  ///
  /// The epoch-only transitions — all of FastTrack's common case — are
  /// inline: same-epoch is one packed-word compare, and the ordered
  /// read/write paths are a covers() each. Only inflation and the
  /// inflated representations go out of line. Inlining is forced: the
  /// detector folds its check bodies into its batch loop, and there GCC's
  /// growth limits would otherwise leave this fast path a call.
  [[gnu::always_inline]] std::optional<RaceInfo>
  onRead(Epoch Cur, const VectorClock &C, ClockPool &Pool) {
    if (ReadVc == ClockPool::kNone) {
      // WriteVc is only ever set together with ReadVc (DJIT+ forces
      // both), so this branch is the pure epoch representation.
      if (R == Cur)
        return std::nullopt;
      if (!W.isBottom() && !C.covers(W))
        return RaceInfo{RaceKind::WriteRead, W, Cur};
      if (R.isBottom() || R.tid() == Cur.tid() || C.covers(R)) {
        R = Cur;
        return std::nullopt;
      }
    }
    return onReadSlow(Cur, C, Pool);
  }

  /// Processes a write. Returns the race if it conflicts with an earlier
  /// write or any earlier read.
  [[gnu::always_inline]] std::optional<RaceInfo>
  onWrite(Epoch Cur, const VectorClock &C, ClockPool &Pool) {
    if (WriteVc == ClockPool::kNone) {
      if (W == Cur)
        return std::nullopt;
      if (!W.isBottom() && !C.covers(W))
        return RaceInfo{RaceKind::WriteWrite, W, Cur};
      if (ReadVc == ClockPool::kNone) {
        if (!R.isBottom() && !C.covers(R))
          return RaceInfo{RaceKind::ReadWrite, R, Cur};
        W = Cur;
        R = Epoch();
        return std::nullopt;
      }
    }
    return onWriteSlow(Cur, C, Pool);
  }

  /// Conveniences computing the epoch from \p C (tests, ad-hoc drivers —
  /// the detector hot path passes the HbState-cached epoch instead).
  std::optional<RaceInfo> onRead(ThreadId T, const VectorClock &C,
                                 ClockPool &Pool) {
    return onRead(C.epochOf(T), C, Pool);
  }
  std::optional<RaceInfo> onWrite(ThreadId T, const VectorClock &C,
                                  ClockPool &Pool) {
    return onWrite(C.epochOf(T), C, Pool);
  }

  /// True if the read representation was inflated to a vector clock.
  bool isReadShared() const { return ReadVc != ClockPool::kNone; }

  /// Pool slots backing the inflated representations (kNone while
  /// epoch-only); exposed for the byte-cost model in ShadowCosts.h.
  ClockPool::Index readVc() const { return ReadVc; }
  ClockPool::Index writeVc() const { return WriteVc; }

  Epoch writeEpoch() const { return W; }
  Epoch readEpoch() const { return R; }

  /// An independent duplicate: pool clocks are cloned into fresh slots.
  /// The copy-on-split path of the adaptive array shadow.
  FastTrackState clone(ClockPool &Pool) const {
    FastTrackState S;
    S.W = W;
    S.R = R;
    if (ReadVc != ClockPool::kNone)
      S.ReadVc = Pool.clone(ReadVc);
    if (WriteVc != ClockPool::kNone)
      S.WriteVc = Pool.clone(WriteVc);
    return S;
  }

  /// Releases any pool slots and returns to the bottom state. Must be
  /// called before discarding a state whose pool must keep serving others
  /// (array-shadow re-representation); states dropped together with their
  /// pool can skip it.
  void reset(ClockPool &Pool) {
    if (ReadVc != ClockPool::kNone)
      Pool.release(ReadVc);
    if (WriteVc != ClockPool::kNone)
      Pool.release(WriteVc);
    W = Epoch();
    R = Epoch();
    ReadVc = WriteVc = ClockPool::kNone;
  }

private:
  /// Out-of-line continuations for the rare transitions: read-share
  /// inflation, the inflated read set, and DJIT+ full-clock mode. Each
  /// re-runs the full (correct-everywhere) state machine.
  std::optional<RaceInfo> onReadSlow(Epoch Cur, const VectorClock &C,
                                     ClockPool &Pool);
  std::optional<RaceInfo> onWriteSlow(Epoch Cur, const VectorClock &C,
                                      ClockPool &Pool);

  Epoch W;
  Epoch R;
  /// Pool slot of the read clock once reads are shared; replaces R.
  ClockPool::Index ReadVc = ClockPool::kNone;
  /// Pool slot of the DJIT+ last-write clock (kNone outside DJIT+ mode).
  ClockPool::Index WriteVc = ClockPool::kNone;
};

} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_FASTTRACKSTATE_H
