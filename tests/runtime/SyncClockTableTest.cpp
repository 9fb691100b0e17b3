//===- SyncClockTableTest.cpp - The sharded run's one sync writer ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The writer half of the split happens-before state (DESIGN.md Sec. 13):
// one writer applies every sync edge to its HbState and ships the
// post-edge clock of each thread the edge changed; lanes install those
// clocks into their own views. These tests drive the table with seeded
// random edge scripts against a plain HbState replica (what an inline
// detector holds) and a simulated lane that installs every shipped clock.
//
//===----------------------------------------------------------------------===//

#include "runtime/SyncClockTable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

/// Wider than VectorClock's inline slots, so clocks spill to the heap.
constexpr ThreadId kThreads = 10;

/// Applies \p E to a plain HbState replica, as an inline detector would.
void applyToReplica(HbState &Hb, const SyncEdge &E) {
  switch (E.Kind) {
  case SyncEdgeKind::Acquire:
    Hb.onAcquire(E.Tid, E.Obj);
    break;
  case SyncEdgeKind::Release:
    Hb.onRelease(E.Tid, E.Obj);
    break;
  case SyncEdgeKind::VolatileRead:
    Hb.onVolatileRead(E.Tid, E.Obj, E.Field);
    break;
  case SyncEdgeKind::VolatileWrite:
    Hb.onVolatileWrite(E.Tid, E.Obj, E.Field);
    break;
  case SyncEdgeKind::Fork:
    Hb.onFork(E.Tid, ThreadId(E.Aux));
    break;
  case SyncEdgeKind::Join:
    Hb.onJoin(E.Tid, ThreadId(E.Aux));
    break;
  case SyncEdgeKind::Barrier:
    Hb.onBarrier({E.Parties, E.Parties + E.NumParties});
    break;
  case SyncEdgeKind::ThreadExit:
    Hb.onThreadExit(E.Tid);
    break;
  default:
    break;
  }
}

/// The threads \p E changes, in shipping order.
std::vector<ThreadId> changedBy(const SyncEdge &E) {
  switch (E.Kind) {
  case SyncEdgeKind::Acquire:
  case SyncEdgeKind::Release:
  case SyncEdgeKind::VolatileRead:
  case SyncEdgeKind::VolatileWrite:
  case SyncEdgeKind::Join:
    return {E.Tid};
  case SyncEdgeKind::Fork:
    return {E.Tid, ThreadId(E.Aux)};
  case SyncEdgeKind::Barrier:
    return {E.Parties, E.Parties + E.NumParties};
  default:
    return {};
  }
}

/// Entries 0 .. kThreads-1 of \p T's clock in \p Hb, or of the initial
/// view {T:1} while \p Hb has none.
std::vector<uint64_t> denseView(const HbState &Hb, ThreadId T) {
  std::vector<uint64_t> V(kThreads, 0);
  if (const VectorClock *C = Hb.liveClock(T)) {
    for (ThreadId U = 0; U < kThreads; ++U)
      V[U] = C->get(U);
  } else {
    V[T] = 1;
  }
  return V;
}

/// Applies \p E to the table, the replica and a simulated lane, and checks
/// the shipped clocks, the census and every lane view against the replica.
/// Returns the number of clocks shipped.
size_t applyAndCheck(SyncClockTable &Table, HbState &Replica, HbState &Lane,
                     const SyncEdge &E, const std::string &Tag) {
  std::vector<uint64_t> Shipped;
  size_t Bytes = Table.apply(E, Shipped);
  applyToReplica(Replica, E);
  // The census first: nothing below may initialize a replica clock.
  EXPECT_EQ(Bytes, Replica.memoryBytes()) << Tag;
  EXPECT_EQ(Bytes, Table.hbBytes()) << Tag;

  // One record per changed thread that has a clock, in shipping order,
  // each exactly the replica's post-edge clock (width included).
  std::vector<ThreadId> Expected;
  for (ThreadId T : changedBy(E))
    if (Replica.liveClock(T))
      Expected.push_back(T);
  std::vector<ThreadId> Got;
  forEachShippedClock(
      Shipped.data(), Shipped.size(),
      [&](ThreadId T, const uint64_t *Entries, uint32_t Width) {
        Got.push_back(T);
        const VectorClock *C = Replica.liveClock(T);
        if (!C) {
          ADD_FAILURE() << Tag << " shipped tid " << T << " has no clock";
          return;
        }
        EXPECT_EQ(std::vector<uint64_t>(Entries, Entries + Width),
                  std::vector<uint64_t>(C->entries(),
                                        C->entries() + C->size()))
            << Tag << " tid " << T;
        Lane.install(T, Entries, Width);
      });
  EXPECT_EQ(Got, Expected) << Tag;

  // A lane that installed every shipped clock sees the replica's view of
  // every thread, including {T:1} for threads nothing shipped.
  for (ThreadId T = 0; T < kThreads; ++T)
    EXPECT_EQ(denseView(Lane, T), denseView(Replica, T))
        << Tag << " lane view of tid " << T;
  return Got.size();
}

// The two edges that can leave their actor without a clock: a volatile
// read before any write and a join of a thread with no final clock. They
// ship nothing and must not initialize the actor's clock, so the census
// the markers carry stays exactly a single detector's.
TEST(SyncClockTable, FirstTouchEdgesKeepCensusParity) {
  SyncClockTable Table;
  HbState Replica, Lane;
  SyncEdge Read;
  Read.Kind = SyncEdgeKind::VolatileRead;
  Read.Tid = 7;
  Read.Obj = 300;
  Read.Field = 1;
  applyAndCheck(Table, Replica, Lane, Read, "volatile read before write");
  SyncEdge Join;
  Join.Kind = SyncEdgeKind::Join;
  Join.Tid = 5;
  Join.Aux = 6;
  applyAndCheck(Table, Replica, Lane, Join, "join without final clock");
  EXPECT_EQ(Table.clocksShipped(), 0u);
  EXPECT_EQ(Table.hbBytes(), 0u);

  // Once the actor has a clock, the same edges ship it unchanged.
  SyncEdge Release;
  Release.Kind = SyncEdgeKind::Release;
  Release.Tid = 7;
  Release.Obj = 100;
  applyAndCheck(Table, Replica, Lane, Release, "release");
  applyAndCheck(Table, Replica, Lane, Read, "volatile read, live actor");
  EXPECT_EQ(Table.clocksShipped(), 2u);
}

/// One random edge over kThreads threads, three locks and four volatile
/// locations; joins may name threads that never exited.
SyncEdge randomEdge(std::mt19937_64 &Rng, std::vector<ThreadId> &Parties) {
  auto Pick = [&](uint64_t N) { return Rng() % N; };
  SyncEdge E;
  E.Tid = ThreadId(Pick(kThreads));
  switch (Pick(10)) {
  case 0:
    E.Kind = SyncEdgeKind::Acquire;
    E.Obj = 100 + Pick(3);
    break;
  case 1:
    E.Kind = SyncEdgeKind::Release;
    E.Obj = 100 + Pick(3);
    break;
  case 2:
    E.Kind = SyncEdgeKind::VolatileRead;
    E.Obj = 200 + Pick(2);
    E.Field = FieldId(Pick(2));
    break;
  case 3:
    E.Kind = SyncEdgeKind::VolatileWrite;
    E.Obj = 200 + Pick(2);
    E.Field = FieldId(Pick(2));
    break;
  case 4:
    E.Kind = SyncEdgeKind::Fork;
    E.Aux = (E.Tid + 1 + Pick(kThreads - 1)) % kThreads;
    break;
  case 5:
    E.Kind = SyncEdgeKind::Join;
    E.Aux = (E.Tid + 1 + Pick(kThreads - 1)) % kThreads;
    break;
  case 6: {
    E.Kind = SyncEdgeKind::Barrier;
    // 2..5 distinct parties in random arrival order.
    std::vector<ThreadId> All;
    for (ThreadId T = 0; T < kThreads; ++T)
      All.push_back(T);
    std::shuffle(All.begin(), All.end(), Rng);
    Parties.assign(All.begin(), All.begin() + 2 + Pick(4));
    E.Parties = Parties.data();
    E.NumParties = Parties.size();
    break;
  }
  case 7:
    E.Kind = SyncEdgeKind::ThreadExit;
    break;
  case 8:
    E.Kind = SyncEdgeKind::ThreadBegin;
    break;
  default:
    E.Kind = SyncEdgeKind::Commit;
    break;
  }
  return E;
}

// Seeded random scripts over every edge kind: each shipped clock equals
// the replica's clock for its thread, apply's census equals the
// replica's, and a lane that installs the shipped clocks holds the
// replica's view of every thread after every edge.
TEST(SyncClockTable, ShippedClocksMatchHbStateReplica) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    std::mt19937_64 Rng(Seed);
    SyncClockTable Table;
    HbState Replica, Lane;
    std::vector<ThreadId> Parties;
    uint64_t Shipped = 0;
    for (int I = 0; I < 400; ++I) {
      SyncEdge E = randomEdge(Rng, Parties);
      Shipped += applyAndCheck(Table, Replica, Lane, E,
                               "seed " + std::to_string(Seed) + " edge " +
                                   std::to_string(I));
      if (HasFailure())
        return;
    }
    EXPECT_EQ(Table.clocksShipped(), Shipped) << "seed " << Seed;
  }
}

} // namespace
