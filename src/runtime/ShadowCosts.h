//===- ShadowCosts.h - The one byte-cost model for shadow state -*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single definition of what a shadow representation "costs" in bytes
/// (Table 2's space accounting). Every consumer — the detector's
/// incremental censuses, the full-walk audits that must agree with them,
/// HbState's clock accounting, and the array shadow's per-state sums —
/// charges through these functions, so the Table 2 numbers cannot
/// silently diverge between the incremental and audit paths.
///
/// The model charges the representation actually held: object size plus
/// any heap capacity behind it (an inline small-size-optimized clock
/// costs nothing beyond sizeof; a spilled clock adds its heap slots; a
/// pooled clock charges its slot's clock). Map entries add one key word.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_RUNTIME_SHADOWCOSTS_H
#define BIGFOOT_RUNTIME_SHADOWCOSTS_H

#include "runtime/ClockPool.h"
#include "runtime/FastTrackState.h"
#include "runtime/VectorClock.h"

#include <cstddef>

namespace bigfoot {
namespace shadowcost {

/// Accounted per-entry key overhead in the flat shadow tables.
inline constexpr size_t kEntryKeyBytes = sizeof(uint64_t);

/// Footprint of one vector clock: the object plus any spilled heap slots.
inline size_t clockBytes(const VectorClock &C) {
  return sizeof(VectorClock) + C.heapCapacity() * sizeof(uint64_t);
}

/// Footprint of the pool slot behind index \p I (0 when not inflated).
inline size_t pooledClockBytes(const ClockPool &Pool, ClockPool::Index I) {
  return I == ClockPool::kNone ? 0 : clockBytes(Pool[I]);
}

/// Footprint of one shadow location: the POD state plus its pooled
/// clocks. sizeof(FastTrackState) is included, so containers that already
/// charged a state-bearing slot at insertion time can account op-driven
/// growth as the before/after difference of this function (the constant
/// cancels).
inline size_t stateBytes(const FastTrackState &S, const ClockPool &Pool) {
  return sizeof(FastTrackState) + pooledClockBytes(Pool, S.readVc()) +
         pooledClockBytes(Pool, S.writeVc());
}

} // namespace shadowcost
} // namespace bigfoot

#endif // BIGFOOT_RUNTIME_SHADOWCOSTS_H
