//===- PrecisionTest.cpp - Trace/address precision oracle tests -------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Section 2's correctness criterion, checked dynamically: for every
// execution trace, the instrumented program has a check race iff the
// trace has a data race (trace precision), and the racy locations agree
// (address precision), down to the array element. The oracle is a
// per-access FastTrack detector run on the same trace inside the same VM
// run. Every instrumented program must also read no local that its source
// leaves unassigned (common/UnassignedReads.h).
//
//===----------------------------------------------------------------------===//

#include "instrument/Instrumenters.h"

#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "common/UnassignedReads.h"
#include "support/LocKey.h"
#include "support/Rng.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace bigfoot;
using namespace bigfoot::test;

namespace {

/// Maps ground-truth location keys through a tool's field-proxy table so
/// they compare against the tool's (proxy-granular) reports.
std::set<std::string>
mapThroughProxies(const std::set<std::string> &Keys,
                  const std::map<std::string, std::string> &Proxy) {
  std::set<std::string> Out;
  for (const std::string &Key : Keys) {
    size_t Dot = Key.rfind('.');
    if (Dot == std::string::npos || Key.rfind("obj#", 0) != 0) {
      Out.insert(Key);
      continue;
    }
    std::string Field = Key.substr(Dot + 1);
    auto It = Proxy.find(Field);
    Out.insert(It == Proxy.end() ? Key : Key.substr(0, Dot + 1) + It->second);
  }
  return Out;
}

/// Runs one instrumented program with the oracle attached and asserts the
/// precision criteria. Returns the tool's racy locations.
std::set<std::string> checkPrecision(const InstrumentedProgram &IP,
                                     uint64_t Seed,
                                     const std::string &Label) {
  VmOptions Opts;
  Opts.Seed = Seed;
  Opts.Quantum = 5;
  Opts.EnableGroundTruth = true;
  VmResult R = runProgram(*IP.Prog, IP.Tool, Opts);
  EXPECT_TRUE(R.Ok) << Label << ": " << R.Error << "\n"
                    << printProgram(*IP.Prog);
  std::set<std::string> Expected =
      mapThroughProxies(R.GroundTruthRacyLocations, IP.Tool.FieldProxy);
  std::set<std::string> Got = R.ToolRacyLocations;
  // Trace precision: a race exists iff the oracle saw one.
  EXPECT_EQ(Got.empty(), Expected.empty())
      << Label << " seed " << Seed << "\ntool: " << IP.Tool.Name
      << "\nprogram:\n"
      << printProgram(*IP.Prog);
  // No false alarms: every reported location is genuinely racy.
  for (const std::string &Key : Got)
    EXPECT_TRUE(Expected.count(Key))
        << Label << ": false alarm on " << Key << " (tool " << IP.Tool.Name
        << ", seed " << Seed << ")\n"
        << printProgram(*IP.Prog);
  // Address precision: every racy location is reported.
  for (const std::string &Key : Expected)
    EXPECT_TRUE(Got.count(Key))
        << Label << ": missed race on " << Key << " (tool " << IP.Tool.Name
        << ", seed " << Seed << ")\n"
        << printProgram(*IP.Prog);
  // The same per array element: each racy element the oracle saw lies in
  // a range the tool reports on that array, and each such range holds
  // one. An array's key alone cannot tell a check of b[0] from one of
  // b[1].
  auto OnArray = [](const ReportedRace &Race, ObjectId Arr) {
    return Race.OnArray && Race.Id == Arr;
  };
  for (const ReportedRace &Truth : R.GroundTruthRaces) {
    if (!Truth.OnArray)
      continue;
    for (int64_t I : Truth.Range.elements())
      EXPECT_TRUE(std::any_of(R.ToolRaces.begin(), R.ToolRaces.end(),
                              [&](const ReportedRace &Race) {
                                return OnArray(Race, Truth.Id) &&
                                       Race.Range.contains(I);
                              }))
          << Label << ": missed race on "
          << lockey::arrayRange(Truth.Id, StridedRange::singleton(I).str())
          << " (tool " << IP.Tool.Name << ", seed " << Seed << ")\n"
          << printProgram(*IP.Prog);
  }
  for (const ReportedRace &Race : R.ToolRaces) {
    if (!Race.OnArray)
      continue;
    EXPECT_TRUE(std::any_of(R.GroundTruthRaces.begin(),
                            R.GroundTruthRaces.end(),
                            [&](const ReportedRace &Truth) {
                              return OnArray(Truth, Race.Id) &&
                                     Truth.Range.intersects(Race.Range);
                            }))
        << Label << ": false alarm on "
        << lockey::arrayRange(Race.Id, Race.Range.str()) << " (tool "
        << IP.Tool.Name << ", seed " << Seed << ")\n"
        << printProgram(*IP.Prog);
  }
  return Got;
}

/// All six kToolNames configurations of \p Prog: the paper's five tools
/// and DJIT+. Each must read no local its source leaves unassigned.
std::vector<InstrumentedProgram> instrumentSix(const Program &Prog,
                                               const std::string &Label) {
  std::vector<InstrumentedProgram> Out;
  for (const char *Name : kToolNames) {
    Out.push_back(*instrumentNamed(Prog, Name));
    expectNoNewUnassignedReads(Prog, Out.back(), Label);
  }
  return Out;
}

void checkAllTools(const char *Source, const std::string &Label,
                   std::initializer_list<uint64_t> Seeds = {1, 13, 77}) {
  auto Prog = parseProgramOrDie(Source);
  std::vector<InstrumentedProgram> All = instrumentSix(*Prog, Label);
  for (uint64_t Seed : Seeds)
    for (const InstrumentedProgram &IP : All)
      checkPrecision(IP, Seed, Label);
}

} // namespace

//===----------------------------------------------------------------------===
// Hand-written scenarios.
//===----------------------------------------------------------------------===

TEST(Precision, UnprotectedFieldRace) {
  checkAllTools(R"(
class O { fields f; }
class W {
  fields dummy;
  method run(o) {
    o.f = 1;
    t = o.f;
  }
}
thread {
  o = new O;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(o);
  fork t2 = w2.run(o);
  join t1;
  join t2;
}
)",
                "unprotected field");
}

TEST(Precision, LockProtectedFieldIsClean) {
  checkAllTools(R"(
class O { fields f; }
class W {
  fields dummy;
  method run(o, lock) {
    acq(lock);
    v = o.f;
    o.f = v + 1;
    rel(lock);
  }
}
thread {
  o = new O;
  lock = new O;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(o, lock);
  fork t2 = w2.run(o, lock);
  join t1;
  join t2;
  total = o.f;
  assert total == 2;
}
)",
                "lock protected field");
}

TEST(Precision, DisjointArrayHalvesAreClean) {
  checkAllTools(R"(
class W {
  fields dummy;
  method run(a, lo, hi) {
    i = lo;
    while (i < hi) {
      a[i] = i;
      i = i + 1;
    }
  }
}
thread {
  a = new_array(64);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(a, 0, 32);
  fork t2 = w2.run(a, 32, 64);
  join t1;
  join t2;
}
)",
                "disjoint halves");
}

TEST(Precision, OverlappingArrayWritesRace) {
  checkAllTools(R"(
class W {
  fields dummy;
  method run(a, lo, hi) {
    i = lo;
    while (i < hi) {
      a[i] = i;
      i = i + 1;
    }
  }
}
thread {
  a = new_array(64);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(a, 0, 40);
  fork t2 = w2.run(a, 24, 64);
  join t1;
  join t2;
}
)",
                "overlapping ranges");
}

TEST(Precision, StridedInterleavedWritesAreClean) {
  checkAllTools(R"(
class W {
  fields dummy;
  method run(a, start, n) {
    i = start;
    while (i < n) {
      a[i] = i;
      i = i + 2;
    }
  }
}
thread {
  a = new_array(64);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(a, 0, 64);
  fork t2 = w2.run(a, 1, 64);
  join t1;
  join t2;
}
)",
                "strided disjoint");
}

TEST(Precision, BarrierPhasedAccessIsClean) {
  checkAllTools(R"(
class W {
  fields acc;
  method run(b, a, mine, other, n) {
    i = mine;
    while (i < n) {
      a[i] = i;
      i = i + 2;
    }
    await b;
    s = 0;
    j = other;
    while (j < n) {
      v = a[j];
      s = s + v;
      j = j + 2;
    }
    this.acc = s;
  }
}
thread {
  b = new_barrier(2);
  a = new_array(32);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(b, a, 0, 1, 32);
  fork t2 = w2.run(b, a, 1, 0, 32);
  join t1;
  join t2;
}
)",
                "barrier phased");
}

TEST(Precision, MissingBarrierRaces) {
  checkAllTools(R"(
class W {
  fields acc;
  method run(a, mine, other, n) {
    i = mine;
    while (i < n) {
      a[i] = i;
      i = i + 2;
    }
    s = 0;
    j = other;
    while (j < n) {
      v = a[j];
      s = s + v;
      j = j + 2;
    }
    this.acc = s;
  }
}
thread {
  a = new_array(32);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(a, 0, 1, 32);
  fork t2 = w2.run(a, 1, 0, 32);
  join t1;
  join t2;
}
)",
                "missing barrier");
}

TEST(Precision, ReadSharedDataIsClean) {
  checkAllTools(R"(
class W {
  fields sum;
  method run(a, n) {
    s = 0;
    i = 0;
    while (i < n) {
      v = a[i];
      s = s + v;
      i = i + 1;
    }
    this.sum = s;
  }
}
thread {
  n = 48;
  a = new_array(n);
  i = 0;
  while (i < n) {
    a[i] = i;
    i = i + 1;
  }
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(a, n);
  fork t2 = w2.run(a, n);
  join t1;
  join t2;
  x = w1.sum;
  y = w2.sum;
  assert x == y;
}
)",
                "read shared");
}

TEST(Precision, VolatilePublicationIsClean) {
  checkAllTools(R"(
class Box {
  fields data;
  volatile fields ready;
  method produce() {
    this.data = 42;
    this.ready = 1;
  }
  method consume() {
    r = 0;
    while (r == 0) {
      r = this.ready;
    }
    d = this.data;
    return d;
  }
}
thread {
  b = new Box;
  fork t1 = b.produce();
  fork t2 = b.consume();
  join t1;
  join t2;
}
)",
                "volatile publication");
}

TEST(Precision, BrokenPublicationRaces) {
  checkAllTools(R"(
class Box {
  fields data, ready;
  method produce() {
    this.data = 42;
    this.ready = 1;
  }
  method consume() {
    r = this.ready;
    d = this.data;
    k = r + d;
    return k;
  }
}
thread {
  b = new Box;
  fork t1 = b.produce();
  fork t2 = b.consume();
  join t1;
  join t2;
}
)",
                "broken publication");
}

TEST(Precision, PredicateGuardedLoopAccess) {
  // The paper's Section 1 footprinting example: statically uncoalescible
  // accesses guarded by a data-dependent predicate.
  checkAllTools(R"(
class W {
  fields dummy;
  method run(a, n, phase) {
    i = 0;
    while (i < n) {
      m = i % 2;
      if (m == phase) {
        a[i] = i;
      }
      i = i + 1;
    }
  }
}
thread {
  a = new_array(40);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(a, 40, 0);
  fork t2 = w2.run(a, 40, 1);
  join t1;
  join t2;
}
)",
                "predicate guarded");
}

TEST(Precision, ReassignedAssertVariableStillRaces) {
  // The assert records k < 5 in the history. Reassigning k must first
  // rename it, or k = 10 contradicts that fact, the history entails
  // everything and BigFoot drops the check of a[0].
  checkAllTools(R"(
class W {
  fields f;
  method run(a, k) {
    assert k < 5;
    x = a[0];
    k = 10;
  }
}
thread {
  a = new_array(4);
  w = new W;
  fork t = w.run(a, 1);
  a[0] = 7;
  join t;
}
)",
                "reassigned assert variable");
}

TEST(Precision, VolatileReadIntoIndexVariableRaces) {
  // x = b.flag changes x after a[x] was checked: the second read is of
  // a[1], not a[0], so RedCard's facts about the old x must go even though
  // the read is synchronization.
  checkAllTools(R"(
class Box { volatile fields flag; }
class W {
  fields f;
  method run(a, b) {
    x = 0;
    y = a[x];
    x = b.flag;
    z = a[x];
  }
}
thread {
  a = new_array(4);
  b = new Box;
  b.flag = 1;
  w = new W;
  fork t = w.run(a, b);
  a[1] = 5;
  join t;
}
)",
                "volatile read into index variable");
}

TEST(Precision, SelfReadingFieldReadStillRaces) {
  // n = n.next reads the old n: its access and alias facts are about that
  // value, so n needs a fresh name even though no earlier fact mentions
  // it. Otherwise the one check BigFoot places at the end of run covers
  // b.next, not the racy a.next.
  checkAllTools(R"(
class Node { fields next, val; }
class W {
  fields f;
  method run(n) {
    n = n.next;
    m = n.next;
  }
}
thread {
  a = new Node;
  b = new Node;
  c = new Node;
  a.next = b;
  b.next = c;
  w = new W;
  fork t = w.run(a);
  a.next = c;
  join t;
}
)",
                "self-reading field read");
}

TEST(Precision, RenamedIndexBeforeVolatileReadStillRaces) {
  // y = o.vf synchronizes, so BigFoot checks b[1] just before it, on the
  // fresh y' the rename pass copied y into. The rename clean-up then folds
  // y' := y into that check: unless the check's bound is renamed back to
  // y, nothing assigns the y' it reads, and it checks b[0].
  checkAllTools(R"(
class O { volatile fields vf; }
class W {
  fields pad;
  method run(o, b) {
    y = 1;
    b[y] = 1;
    y = o.vf;
    b[y] = 7;
  }
}
thread {
  o = new O;
  o.vf = 3;
  b = new_array(4);
  w = new W;
  fork t = w.run(o, b);
  b[1] = 9;
  join t;
}
)",
                "renamed index before volatile read");
}

TEST(Precision, RenamedIndexBeforeSynchronizedCallStillRaces) {
  // The same fold before a call whose callee acquires and releases a lock.
  checkAllTools(R"(
class Q {
  fields v;
  method get(l) {
    acq(l);
    r = this.v;
    rel(l);
    return r;
  }
}
class W {
  fields pad;
  method run(q, l, b) {
    y = 1;
    b[y] = 1;
    y = q.get(l);
    b[y] = 7;
  }
}
thread {
  q = new Q;
  q.v = 3;
  l = new Q;
  b = new_array(4);
  w = new W;
  fork t = w.run(q, l, b);
  b[1] = 9;
  join t;
}
)",
                "renamed index before synchronized call");
}

TEST(Precision, RenamedDesignatorBeforeVolatileReadStillRaces) {
  // The same fold into a field check: an orphaned designator x' holds no
  // reference, so the run failed instead of reporting the race on p.f.
  checkAllTools(R"(
class O { fields f; volatile fields vf; }
class W {
  fields pad;
  method run(o, p) {
    x = p;
    x.f = 1;
    x = o.vf;
  }
}
thread {
  o = new O;
  p = new O;
  o.vf = 3;
  w = new W;
  fork t = w.run(o, p);
  p.f = 9;
  join t;
}
)",
                "renamed designator before volatile read");
}

TEST(Precision, LengthBoundedLoopRaces) {
  // n = len(a) records n = a.$len and 0 <= n; the loop's checks must still
  // cover a[5], which the main thread writes unsynchronized.
  checkAllTools(R"(
class W {
  fields pad;
  method run(a) {
    n = len(a);
    i = 0;
    while (i < n) {
      v = a[i];
      a[i] = v + 1;
      i = i + 1;
    }
  }
}
thread {
  a = new_array(16);
  w = new W;
  fork t = w.run(a);
  a[5] = 9;
  join t;
}
)",
                "length-bounded loop");
}

TEST(Precision, LockWrapperMethodsAreClean) {
  // c.lock() only acquires and c.unlock() only releases: the calls keep
  // past checks and drop past accesses ([CALL] with an acquire-only
  // callee), and the guarded read-modify-write does not race.
  checkAllTools(R"(
class Counter {
  fields n;
  method lock() {
    acq(this);
  }
  method unlock() {
    rel(this);
  }
}
class W {
  fields pad;
  method run(c) {
    c.lock();
    v = c.n;
    c.n = v + 1;
    c.unlock();
  }
}
thread {
  c = new Counter;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(c);
  fork t2 = w2.run(c);
  join t1;
  join t2;
  total = c.n;
  assert total == 2;
}
)",
                "lock wrapper methods");
}

TEST(Precision, ReadOutsideLockWrapperMethodsRaces) {
  // The same, with a read of c.n after each worker's unlock: whichever
  // worker runs its critical section first reads c.n concurrently with
  // the other's write.
  checkAllTools(R"(
class Counter {
  fields n;
  method lock() {
    acq(this);
  }
  method unlock() {
    rel(this);
  }
}
class W {
  fields pad;
  method run(c) {
    c.lock();
    v = c.n;
    c.n = v + 1;
    c.unlock();
    u = c.n;
  }
}
thread {
  c = new Counter;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(c);
  fork t2 = w2.run(c);
  join t1;
  join t2;
}
)",
                "read outside lock wrapper methods");
}

//===----------------------------------------------------------------------===
// Randomized property sweep: generated programs, all tools, many seeds.
//===----------------------------------------------------------------------===

namespace {

/// Generates a random two-worker program over one shared object, two
/// shared arrays, a three-node list, and one lock. Each worker body is a
/// random mix of guarded/unguarded field and array accesses and loops,
/// plus four shapes whose variable bookkeeping once hid races: the
/// parameter n, which an assert at the top bounds, reassigned; a volatile
/// flag read into a variable an earlier read of the second array used as
/// its index; the same with writes, whose check the rename clean-up once
/// left reading an unassigned copy of the index; and, in half the
/// programs, l = l.next; m = l.next on the list's head, whose next the
/// main thread rewrites after forking.
std::string generateProgram(uint64_t Seed) {
  Rng R(Seed);
  std::ostringstream OS;
  OS << "class O { fields f0, f1, f2; volatile fields vf; }\n";
  OS << "class N { fields next; }\n";
  OS << "class W {\n  fields pad;\n  method run(o, a, b, lock, n, l) {\n";
  OS << "    assert n > 8;\n";
  int Stmts = 3 + static_cast<int>(R.nextBelow(5));
  // The list shape goes before statement ListAt (at the end when ListAt
  // is Stmts), unguarded; it is the only mention of l.
  int ListAt = static_cast<int>(R.nextBelow(2 * Stmts + 2));
  for (int S = 0; S <= Stmts; ++S) {
    if (S == ListAt)
      OS << "    l = l.next;\n    m = l.next;\n";
    if (S == Stmts)
      break;
    bool Guarded = R.chance(1, 2);
    if (Guarded)
      OS << "    acq(lock);\n";
    switch (R.nextBelow(8)) {
    case 0:
      OS << "    o.f" << R.nextBelow(3) << " = " << R.nextBelow(100)
         << ";\n";
      break;
    case 1:
      OS << "    v" << S << " = o.f" << R.nextBelow(3) << ";\n";
      break;
    case 2: {
      // Bounded loop over a prefix of the array.
      int64_t Step = R.chance(1, 3) ? 2 : 1;
      OS << "    i" << S << " = 0;\n";
      OS << "    while (i" << S << " < n) {\n";
      if (R.chance(1, 2))
        OS << "      a[i" << S << "] = i" << S << ";\n";
      else
        OS << "      w" << S << " = a[i" << S << "];\n";
      OS << "      i" << S << " = i" << S << " + " << Step << ";\n";
      OS << "    }\n";
      break;
    }
    case 3:
      OS << "    a[" << R.nextBelow(8) << "] = 5;\n";
      break;
    case 4:
      OS << "    u" << S << " = a[" << R.nextBelow(8) << "];\n";
      break;
    case 5:
      // Contradicts the assert unless n is renamed first; keeps later
      // loops inside the array.
      OS << "    n = 8;\n";
      break;
    case 6: {
      // The same read before and after the volatile read changes its
      // index to 3 (the thread sets o.vf before forking, then writes b[3]
      // unsynchronized).
      std::string X = "x" + std::to_string(S);
      OS << "    " << X << " = " << R.nextBelow(3) << ";\n";
      OS << "    r" << S << " = b[" << X << "];\n";
      OS << "    " << X << " = o.vf;\n";
      OS << "    s" << S << " = b[" << X << "];\n";
      break;
    }
    case 7: {
      // The same with writes, which race on b[c] unless the lock guards
      // them: BigFoot checks b[c] just before the volatile read
      // redefines the index.
      std::string Y = "y" + std::to_string(S);
      OS << "    " << Y << " = " << R.nextBelow(3) << ";\n";
      OS << "    b[" << Y << "] = 1;\n";
      OS << "    " << Y << " = o.vf;\n";
      OS << "    b[" << Y << "] = 7;\n";
      break;
    }
    }
    if (Guarded)
      OS << "    rel(lock);\n";
  }
  OS << "  }\n}\n";
  OS << "thread {\n"
     << "  o = new O;\n  o.vf = 3;\n  lock = new O;\n"
     << "  a = new_array(16);\n  b = new_array(4);\n"
     << "  l1 = new N;\n  l2 = new N;\n  l3 = new N;\n"
     << "  l1.next = l2;\n  l2.next = l3;\n"
     << "  w1 = new W;\n  w2 = new W;\n"
     << "  fork t1 = w1.run(o, a, b, lock, 16, l1);\n"
     << "  fork t2 = w2.run(o, a, b, lock, 16, l1);\n  b[3] = 9;\n"
     << "  l1.next = l3;\n"
     << "  join t1;\n  join t2;\n}\n";
  return OS.str();
}

} // namespace

class PrecisionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrecisionProperty, RandomProgramsAllToolsPrecise) {
  uint64_t Base = GetParam();
  for (uint64_t Inner = 0; Inner < 8; ++Inner) {
    uint64_t ProgSeed = Base * 1000 + Inner;
    std::string Source = generateProgram(ProgSeed);
    ParseResult PR = parseProgram(Source);
    ASSERT_TRUE(PR.ok()) << PR.Error << "\n" << Source;
    std::string Label = "random#" + std::to_string(ProgSeed);
    for (const InstrumentedProgram &IP : instrumentSix(*PR.Prog, Label))
      checkPrecision(IP, /*Seed=*/ProgSeed + 7, Label);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrecisionProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

//===----------------------------------------------------------------------===
// Differential: all six tools agree on racy-location sets per trace.
//===----------------------------------------------------------------------===

TEST(Precision, ToolsAgreeWithOracleOnRacyPrograms) {
  auto Prog = parseProgramOrDie(R"(
class O { fields f, g; }
class W {
  fields dummy;
  method run(o, a, n) {
    o.f = 1;
    i = 0;
    while (i < n) {
      a[i] = i;
      i = i + 1;
    }
    t = o.g;
  }
}
thread {
  o = new O;
  a = new_array(24);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(o, a, 24);
  fork t2 = w2.run(o, a, 24);
  join t1;
  join t2;
}
)");
  for (const InstrumentedProgram &IP : instrumentSix(*Prog, "agree")) {
    std::set<std::string> Racy = checkPrecision(IP, 42, "agree");
    EXPECT_FALSE(Racy.empty()) << IP.Tool.Name;
  }
}
