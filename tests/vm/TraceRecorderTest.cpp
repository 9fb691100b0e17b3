//===- TraceRecorderTest.cpp - Per-thread projection of the event stream ----===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The Section 2 oracle (common/RecordedRun.h) reads the typed event
// stream through a TraceRecorder; these tests pin down that projection:
// which events become accesses, checks, acquires and releases, in what
// per-thread order, and that a ranged check names every element it
// covers.
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace bigfoot;
using namespace bigfoot::test;

namespace {

using Kind = ThreadStep::Kind;

/// Records \p Source placed by FastTrack, or by BigFoot when \p BigFoot.
RecordedRun recordPlaced(const char *Source, bool BigFoot = false) {
  auto Prog = parseProgramOrDie(Source);
  InstrumentedProgram IP =
      BigFoot ? instrumentBigFoot(*Prog) : instrumentFastTrack(*Prog);
  RecordedRun R = recordRun(*IP.Prog, IP.Tool);
  EXPECT_TRUE(R.Run.Ok) << R.Run.Error;
  return R;
}

std::vector<Kind> kindsOf(const std::vector<ThreadStep> &Steps) {
  std::vector<Kind> Out;
  for (const ThreadStep &S : Steps)
    Out.push_back(S.K);
  return Out;
}

} // namespace

TEST(TraceRecorder, RecordsAccessesChecksAndSync) {
  RecordedRun R = recordPlaced(R"(
class C { fields f; }
thread {
  o = new C;
  acq(o);
  o.f = 1;
  t = o.f;
  rel(o);
}
)");
  EXPECT_EQ(R.Trace.count(Kind::Access), 2u);
  EXPECT_EQ(R.Trace.count(Kind::Check), 2u);
  EXPECT_EQ(R.Trace.count(Kind::Acquire), 1u);
  EXPECT_EQ(R.Trace.count(Kind::Release), 1u);
  EXPECT_EQ(R.Trace.Accesses, R.Run.Counters.get("vm.accesses"));
}

TEST(TraceRecorder, ChecksPrecedeAccessesUnderFastTrack) {
  RecordedRun R = recordPlaced(R"(
class C { fields f; }
thread {
  o = new C;
  o.f = 7;
}
)");
  // Exactly one check immediately before the access, on its location.
  ASSERT_EQ(R.Trace.ByThread.size(), 1u);
  const std::vector<ThreadStep> &T = R.Trace.ByThread.at(0);
  EXPECT_EQ(kindsOf(T), (std::vector<Kind>{Kind::Check, Kind::Access}));
  ASSERT_EQ(T.size(), 2u);
  EXPECT_TRUE(T[1].locatedIn(T[0]));
  EXPECT_EQ(T[1].Access, AccessKind::Write);
}

TEST(TraceRecorder, LocationKeysAreConcrete) {
  RecordedRun R = recordPlaced(R"(
thread {
  a = new_array(4);
  a[2] = 9;
}
)");
  bool SawElem = false;
  for (const ThreadStep &S : R.Trace.ByThread.at(0)) {
    if (S.K == Kind::Access) {
      EXPECT_TRUE(S.OnArray);
      EXPECT_EQ(S.Range.begin(), 2);
      SawElem = locationKey(S, R.Symbols).find("[2]") != std::string::npos;
    }
  }
  EXPECT_TRUE(SawElem);
}

TEST(TraceRecorder, VolatileAccessesBecomeSyncEvents) {
  RecordedRun R = recordPlaced(R"(
class C {
  fields d;
  volatile fields v;
}
thread {
  o = new C;
  o.v = 1;
  t = o.v;
}
)");
  EXPECT_EQ(R.Trace.count(Kind::Release), 1u); // Volatile write.
  EXPECT_EQ(R.Trace.count(Kind::Acquire), 1u); // Volatile read.
  EXPECT_EQ(R.Trace.count(Kind::Access), 0u);
}

TEST(TraceRecorder, BarrierEmitsReleaseThenAcquirePerParty) {
  RecordedRun R = recordPlaced(R"(
class W {
  fields dummy;
  method run(b) {
    await b;
  }
}
thread {
  b = new_barrier(2);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(b);
  fork t2 = w2.run(b);
  join t1;
  join t2;
}
)",
                               /*BigFoot=*/true);
  // Releases: 2 forks (main) + 2 barrier arrivals. Acquires: 2 barrier
  // passes + 2 joins (main).
  EXPECT_EQ(R.Trace.count(Kind::Release), 4u);
  EXPECT_EQ(R.Trace.count(Kind::Acquire), 4u);
  // Each worker's whole trace is its barrier crossing, release first.
  for (ThreadId Worker : {1u, 2u}) {
    EXPECT_EQ(kindsOf(R.Trace.ByThread.at(Worker)),
              (std::vector<Kind>{Kind::Release, Kind::Acquire}))
        << "thread " << Worker;
  }
}

TEST(TraceRecorder, OneRangedCheckCoversEachElement) {
  RecordedRun R = recordPlaced(R"(
thread {
  n = 6;
  a = new_array(n);
  i = 0;
  while (i < n) {
    a[i] = i;
    i = i + 1;
  }
}
)",
                               /*BigFoot=*/true);
  // StaticBF coalesces the loop's six writes into one ranged check,
  // which the oracle matches against each access by membership.
  ASSERT_EQ(R.Trace.count(Kind::Check), 1u);
  EXPECT_EQ(R.Trace.count(Kind::Access), 6u);
  const std::vector<ThreadStep> &T = R.Trace.ByThread.at(0);
  const ThreadStep *Check = nullptr;
  for (const ThreadStep &S : T)
    if (S.K == Kind::Check)
      Check = &S;
  ASSERT_NE(Check, nullptr);
  EXPECT_TRUE(Check->OnArray);
  EXPECT_EQ(Check->Range.size(), 6);
  for (const ThreadStep &S : T) {
    if (S.K != Kind::Access)
      continue;
    EXPECT_TRUE(S.locatedIn(*Check)) << "element " << S.Range.begin();
  }
}
