//===- ArrayShadow.cpp - Adaptive compressed array shadow ------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "runtime/ArrayShadow.h"

#include "runtime/ShadowCosts.h"

#include <algorithm>
#include <cassert>

using namespace bigfoot;

ArrayShadow::ArrayShadow(int64_t Length, bool Adaptive, ClockPool &Pool,
                         bool VcOnly)
    : Length(Length < 0 ? 0 : Length), Pool(&Pool) {
  if (Adaptive && this->Length > 1) {
    Coarse = true;
    States.resize(1);
  } else {
    Fine = true;
    States.resize(static_cast<size_t>(this->Length));
  }
  if (VcOnly)
    for (FastTrackState &S : States)
      S.forceVectorClocks(Pool);
  // Refinements clone existing states, so VC-ness propagates on splits.
  StateBytes = stateSum(States);
}

size_t ArrayShadow::stateSum(const std::vector<FastTrackState> &V) const {
  size_t Bytes = 0;
  for (const FastTrackState &S : V)
    Bytes += shadowcost::stateBytes(S, *Pool);
  return Bytes;
}

ArrayShadow::Mode ArrayShadow::mode() const {
  if (Coarse)
    return Mode::Coarse;
  if (Fine)
    return Mode::Fine;
  return StrideK == 1 ? Mode::Segments : Mode::Strided;
}

void ArrayShadow::toFine() {
  if (Fine)
    return;
  std::vector<FastTrackState> FineStates(static_cast<size_t>(Length));
  if (Coarse) {
    for (auto &S : FineStates)
      S = States[0].clone(*Pool);
  } else {
    for (size_t Seg = 0; Seg + 1 < Bounds.size(); ++Seg)
      for (int64_t I = Bounds[Seg]; I < Bounds[Seg + 1]; ++I)
        FineStates[static_cast<size_t>(I)] =
            States[Seg * static_cast<size_t>(StrideK) +
                   static_cast<size_t>(I % StrideK)]
                .clone(*Pool);
  }
  // The covering states are dropped: their pool slots go back on the
  // free list for the clones (and later inflations) to reuse.
  for (FastTrackState &S : States)
    S.reset(*Pool);
  States = std::move(FineStates);
  Bounds.clear();
  StrideK = 1;
  Coarse = false;
  Fine = true;
  StateBytes = stateSum(States);
}

void ArrayShadow::toGrid(int64_t K) {
  assert(Coarse && "grids grow out of coarse mode");
  assert(K >= 1);
  std::vector<FastTrackState> Grid(static_cast<size_t>(K));
  for (auto &S : Grid)
    S = States[0].clone(*Pool);
  States[0].reset(*Pool);
  States = std::move(Grid);
  Bounds = {0, Length};
  StrideK = K;
  Coarse = false;
  StateBytes = stateSum(States);
}

bool ArrayShadow::splitAt(int64_t At, ShadowOpResult &Result) {
  if (At <= 0 || At >= Length)
    return true;
  assert(At % StrideK == 0 && "split points are stride-aligned");
  auto It = std::lower_bound(Bounds.begin(), Bounds.end(), At);
  if (It != Bounds.end() && *It == At)
    return true;
  if (States.size() + static_cast<size_t>(StrideK) > MaxGridStates)
    return false;
  size_t Seg = static_cast<size_t>(It - Bounds.begin()) - 1;
  Bounds.insert(It, At);
  // Duplicate the segment's class states for the new right half: a pool
  // clone per class, not a deep copy.
  size_t Base = Seg * static_cast<size_t>(StrideK);
  std::vector<FastTrackState> Copy;
  Copy.reserve(static_cast<size_t>(StrideK));
  for (size_t I = 0; I < static_cast<size_t>(StrideK); ++I)
    Copy.push_back(States[Base + I].clone(*Pool));
  StateBytes += stateSum(Copy);
  States.insert(
      States.begin() +
          static_cast<ptrdiff_t>(Base + static_cast<size_t>(StrideK)),
      std::make_move_iterator(Copy.begin()),
      std::make_move_iterator(Copy.end()));
  ++Result.Refinements;
  return true;
}

ShadowOpResult ArrayShadow::reapply(const StridedRange &R, AccessKind K,
                                    Epoch Cur, const VectorClock &C,
                                    ShadowOpResult Result) {
  ShadowOpResult Rec = apply(R, K, Cur, C);
  Result.ShadowOps += Rec.ShadowOps;
  Result.Refinements += Rec.Refinements;
  Result.Races.insert(Result.Races.end(), Rec.Races.begin(),
                      Rec.Races.end());
  return Result;
}

void ArrayShadow::opOn(FastTrackState &State, AccessKind K, Epoch Cur,
                       const VectorClock &C, ShadowOpResult &Result) {
  ++Result.ShadowOps;
  // Epoch-only states stay 24 POD bytes through any epoch-only op; only
  // recount bytes when a pooled clock is involved before or after.
  bool WasInflated = State.readVc() != ClockPool::kNone ||
                     State.writeVc() != ClockPool::kNone;
  size_t Before = WasInflated ? shadowcost::stateBytes(State, *Pool) : 0;
  std::optional<RaceInfo> Race = K == AccessKind::Read
                                     ? State.onRead(Cur, C, *Pool)
                                     : State.onWrite(Cur, C, *Pool);
  if (WasInflated || State.readVc() != ClockPool::kNone) {
    if (!WasInflated)
      Before = sizeof(FastTrackState); // Inflated during this op.
    // Unsigned wrap-around makes the diff correct even when the state
    // shrinks (a write dropping a shared read set).
    StateBytes += shadowcost::stateBytes(State, *Pool) - Before;
  }
  if (Race)
    Result.Races.push_back(*Race);
}

ShadowOpResult ArrayShadow::apply(const StridedRange &R, AccessKind K,
                                  Epoch Cur, const VectorClock &C) {
  ShadowOpResult Result;
  if (R.empty() || Length == 0)
    return Result;
  // Clip to the array bounds, preserving the stride phase: a negative
  // begin advances in whole strides to the range's first index at or above
  // 0, which is its residue mod the stride. A range inside the array is
  // already clipped.
  StridedRange Clipped = R;
  if (R.begin() < 0 || R.end() > Length) {
    int64_t K = R.stride();
    int64_t B = R.begin() < 0 ? (R.begin() % K + K) % K : R.begin();
    Clipped = StridedRange(B, std::min<int64_t>(R.end(), Length), K);
    if (Clipped.empty())
      return Result;
  }

  if (Coarse) {
    if (isWhole(Clipped)) {
      opOn(States[0], K, Cur, C, Result);
      return Result;
    }
    ++Result.Refinements;
    toGrid(Clipped.stride());
    return reapply(Clipped, K, Cur, C, std::move(Result));
  }

  if (Fine) {
    for (int64_t I = Clipped.begin(); I < Clipped.end();
         I += Clipped.stride())
      opOn(States[static_cast<size_t>(I)], K, Cur, C, Result);
    return Result;
  }

  // Grid mode: segments × residue classes mod StrideK.
  const int64_t GK = StrideK;
  auto AlignDown = [GK](int64_t X) { return X - (X % GK); };
  auto AlignUp = [GK](int64_t X) { return ((X + GK - 1) / GK) * GK; };

  if (Clipped.stride() == GK) {
    // The range covers exactly the class-r elements of the aligned span
    // [SpanLo, SpanHi): one op per covered segment.
    int64_t Last = Clipped.begin() + (Clipped.size() - 1) * GK;
    int64_t SpanLo = AlignDown(Clipped.begin());
    int64_t SpanHi = std::min(AlignUp(Last + 1), Length);
    // If no class-r element exists in [SpanHi, Length), extending the
    // span to the end is exact and avoids a pointless split.
    int64_t ClassR = Clipped.begin() % GK;
    int64_t NextClassElem = SpanHi + ((ClassR - SpanHi) % GK + GK) % GK;
    if (NextClassElem >= Length)
      SpanHi = Length;
    if (!splitAt(SpanLo, Result) || !splitAt(SpanHi, Result)) {
      ++Result.Refinements;
      toFine();
      return reapply(Clipped, K, Cur, C, std::move(Result));
    }
    size_t Class = static_cast<size_t>(Clipped.begin() % GK);
    for (size_t Seg = 0; Seg + 1 < Bounds.size(); ++Seg) {
      if (Bounds[Seg] < SpanLo || Bounds[Seg + 1] > SpanHi)
        continue;
      // Skip segments whose class-r slice is empty (ragged tail).
      if (Bounds[Seg] + static_cast<int64_t>(Class) >= Bounds[Seg + 1])
        continue;
      opOn(States[Seg * static_cast<size_t>(GK) + Class], K, Cur, C,
           Result);
    }
    return Result;
  }

  if (Clipped.stride() == 1 && GK > 1) {
    // A unit range over a strided grid is exact only when it covers whole
    // stride-aligned windows: then it touches every class of the covered
    // segments.
    bool Aligned = Clipped.begin() % GK == 0 &&
                   (Clipped.end() % GK == 0 || Clipped.end() == Length);
    if (Aligned && splitAt(Clipped.begin(), Result) &&
        splitAt(std::min(AlignUp(Clipped.end()), Length), Result)) {
      for (size_t Seg = 0; Seg + 1 < Bounds.size(); ++Seg) {
        if (Bounds[Seg] < Clipped.begin() || Bounds[Seg + 1] > Clipped.end())
          continue;
        for (int64_t Cls = 0; Cls < GK; ++Cls) {
          if (Bounds[Seg] + Cls >= Bounds[Seg + 1])
            continue;
          opOn(States[Seg * static_cast<size_t>(GK) +
                      static_cast<size_t>(Cls)],
               K, Cur, C, Result);
        }
      }
      return Result;
    }
    ++Result.Refinements;
    toFine();
    return reapply(Clipped, K, Cur, C, std::move(Result));
  }

  // Any other stride mismatch: no compressed representation fits.
  ++Result.Refinements;
  toFine();
  return reapply(Clipped, K, Cur, C, std::move(Result));
}

size_t ArrayShadow::auditMemoryBytes() const {
  return sizeof(ArrayShadow) + Bounds.size() * sizeof(int64_t) +
         stateSum(States);
}
