//===- VectorClock.h - Vector clocks and epochs -----------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector clocks [Mattern 88] and FastTrack epochs [PLDI'09]. An epoch
/// c@t is a (clock, thread) pair — the lightweight representation
/// FastTrack uses for the common case of totally ordered accesses.
///
/// Both types are engineered for the detector's per-access hot path
/// (DESIGN.md Sec. 8): an Epoch is one packed 64-bit word, so equality,
/// bottom tests, and covers() are single-word operations; a VectorClock
/// stores up to kInlineSlots entries inline and joins in place without
/// allocating unless it actually has to grow past its capacity. Eight
/// slots cover every suite program and detbench's arrays and objects
/// (five threads each: crypt forks four workers), so their thread and
/// read-shared clocks never allocate; detbench's sync runs nine threads,
/// so its clocks are still on the heap.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_VECTORCLOCK_H
#define BIGFOOT_RUNTIME_VECTORCLOCK_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>

namespace bigfoot {

using ThreadId = uint32_t;

/// An epoch c@t packed into one word: thread id in the high kTidBits,
/// clock below. Clock 0 is "bottom": it happens-before everything, so a
/// default epoch never races.
class Epoch {
public:
  static constexpr unsigned kTidBits = 16;
  static constexpr unsigned kClockBits = 64 - kTidBits;
  static constexpr uint64_t kClockMask = (uint64_t(1) << kClockBits) - 1;

  constexpr Epoch() = default;

  Epoch(ThreadId T, uint64_t Clock)
      : Raw((uint64_t(T) << kClockBits) | Clock) {
    assert(T < (1u << kTidBits) && "thread id overflows epoch packing");
    assert(Clock <= kClockMask && "clock overflows epoch packing");
  }

  ThreadId tid() const { return static_cast<ThreadId>(Raw >> kClockBits); }
  uint64_t clock() const { return Raw & kClockMask; }

  bool isBottom() const { return (Raw & kClockMask) == 0; }

  /// Raw equality: same thread AND same clock in one comparison.
  bool operator==(const Epoch &O) const { return Raw == O.Raw; }
  bool operator!=(const Epoch &O) const { return Raw != O.Raw; }

  std::string str() const {
    return std::to_string(clock()) + "@" + std::to_string(tid());
  }

private:
  uint64_t Raw = 0;
};

/// A growable vector clock with a small-size-optimized inline
/// representation: the first kInlineSlots thread entries live inside the
/// object; only wider clocks spill to the heap.
class VectorClock {
public:
  static constexpr uint32_t kInlineSlots = 8;

  VectorClock() = default;

  VectorClock(const VectorClock &O) { copyFrom(O); }

  VectorClock &operator=(const VectorClock &O) {
    if (this == &O)
      return *this;
    if (O.Size <= Cap) {
      // In-place: keeps the hot release-clock assignment allocation-free.
      std::copy(O.data(), O.data() + O.Size, data());
      Size = O.Size;
    } else {
      destroy();
      copyFrom(O);
    }
    return *this;
  }

  VectorClock(VectorClock &&O) noexcept { moveFrom(O); }

  VectorClock &operator=(VectorClock &&O) noexcept {
    if (this == &O)
      return *this;
    destroy();
    moveFrom(O);
    return *this;
  }

  ~VectorClock() { destroy(); }

  uint64_t get(ThreadId T) const { return T < Size ? data()[T] : 0; }

  void set(ThreadId T, uint64_t Value) {
    ensure(T);
    data()[T] = Value;
  }

  void increment(ThreadId T) {
    ensure(T);
    ++data()[T];
  }

  /// Pointwise maximum (the join after an acquire). Allocation-free
  /// unless \p Other is wider than this clock's current capacity.
  void joinWith(const VectorClock &Other) {
    if (Other.Size > Size)
      ensure(Other.Size - 1);
    uint64_t *D = data();
    const uint64_t *OD = Other.data();
    for (uint32_t I = 0; I < Other.Size; ++I)
      if (OD[I] > D[I])
        D[I] = OD[I];
  }

  /// True if epoch \p E happens-before (or equals) this clock's view.
  bool covers(const Epoch &E) const { return E.clock() <= get(E.tid()); }

  /// The epoch of thread \p T under this clock.
  Epoch epochOf(ThreadId T) const { return Epoch(T, get(T)); }

  size_t size() const { return Size; }

  /// Heap-allocated slots (0 while the clock is inline) — the byte-cost
  /// model in ShadowCosts.h charges exactly this beyond sizeof.
  size_t heapCapacity() const { return Cap > kInlineSlots ? Cap : 0; }

  /// Back to an empty inline clock, freeing any heap storage.
  void reset() {
    destroy();
    Size = 0;
    Cap = kInlineSlots;
  }

  std::string str() const;

private:
  uint32_t Size = 0;
  uint32_t Cap = kInlineSlots;
  union {
    uint64_t Inline[kInlineSlots];
    uint64_t *Heap;
  };

  bool onHeap() const { return Cap > kInlineSlots; }
  uint64_t *data() { return onHeap() ? Heap : Inline; }
  const uint64_t *data() const { return onHeap() ? Heap : Inline; }

  void ensure(ThreadId T) {
    if (T < Size)
      return;
    if (T >= Cap)
      growTo(T + 1);
    uint64_t *D = data();
    for (uint32_t I = Size; I <= T; ++I)
      D[I] = 0;
    Size = T + 1;
  }

  void growTo(uint32_t N) {
    uint32_t NewCap = Cap * 2;
    while (NewCap < N)
      NewCap *= 2;
    uint64_t *NewHeap = new uint64_t[NewCap];
    std::copy(data(), data() + Size, NewHeap);
    if (onHeap())
      delete[] Heap;
    Heap = NewHeap;
    Cap = NewCap;
  }

  void destroy() {
    if (onHeap())
      delete[] Heap;
  }

  void copyFrom(const VectorClock &O) {
    Size = O.Size;
    Cap = O.Size <= kInlineSlots ? kInlineSlots : O.Cap;
    if (onHeap())
      Heap = new uint64_t[Cap];
    std::copy(O.data(), O.data() + Size, data());
  }

  void moveFrom(VectorClock &O) {
    Size = O.Size;
    Cap = O.Cap;
    if (O.onHeap())
      Heap = O.Heap;
    else
      std::copy(O.Inline, O.Inline + O.Size, Inline);
    O.Size = 0;
    O.Cap = kInlineSlots;
  }
};

} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_VECTORCLOCK_H
