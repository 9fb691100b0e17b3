//===- VmTest.cpp - BFJ virtual machine tests --------------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "bfj/Parser.h"
#include "common/RecordedRun.h"
#include "instrument/Instrumenters.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace bigfoot;

namespace {

VmResult runSource(const char *Source, VmOptions Opts = VmOptions()) {
  auto Prog = parseProgramOrDie(Source);
  return runProgramBase(*Prog, Opts);
}

/// Renders the tool's check events of a run, in stream order: "R obj#2.f",
/// "W obj#2.f/g", "R arr#3[4,5):1".
class CheckEventLog final : public EventSink {
public:
  explicit CheckEventLog(const SymbolTable &Syms) : Syms(Syms) {}

  std::vector<std::string> Events;

  void consumeBatch(const Event *Batch, size_t N,
                    const uint32_t *Payload) override {
    for (const Event *E = Batch; E != Batch + N; ++E) {
      if (!(E->Target & kTargetTool))
        continue;
      std::string S = E->Access == AccessKind::Read ? "R " : "W ";
      if (E->Kind == EventKind::FieldCheck) {
        S += "obj#" + std::to_string(E->Obj);
        for (uint32_t I = 0; I < E->PayloadCount; ++I)
          S += (I ? "/" : ".") + Syms.name(Payload[E->PayloadIndex + I]);
      } else if (E->Kind == EventKind::ArrayCheck) {
        S += "arr#" + std::to_string(E->Obj) + "[" + std::to_string(E->Begin) +
             "," + std::to_string(E->End) + "):" + std::to_string(E->Stride);
      } else {
        continue;
      }
      Events.push_back(S);
    }
  }

private:
  const SymbolTable &Syms;
};

/// Runs \p Source, whose checks are written by hand, under FastTrack and
/// returns the check events it emitted.
std::vector<std::string> checkEventsOf(const char *Source, VmResult &Run) {
  auto Prog = parseProgramOrDie(Source);
  CheckEventLog Log(Prog->symbols());
  VmOptions Opts;
  Opts.RecordSink = &Log;
  Run = runProgram(*Prog, fastTrackConfig(), Opts);
  return Log.Events;
}

} // namespace

TEST(Vm, ArithmeticAndPrint) {
  VmResult R = runSource(R"(
thread {
  x = 2 + 3 * 4;
  print x;
  y = (x - 4) / 5;
  print y;
  print x % 5;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"14", "2", "4"}));
}

TEST(Vm, WhileLoopComputesSum) {
  VmResult R = runSource(R"(
thread {
  i = 0;
  sum = 0;
  while (i < 10) {
    sum = sum + i;
    i = i + 1;
  }
  print sum;
  assert sum == 45;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"45"}));
}

TEST(Vm, DoWhileRunsBodyOnce) {
  VmResult R = runSource(R"(
thread {
  i = 100;
  do {
    i = i + 1;
  } while (i < 10);
  print i;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"101"}));
}

TEST(Vm, ObjectsFieldsAndMethods) {
  VmResult R = runSource(R"(
class Point {
  fields x, y;
  method sum() {
    a = this.x;
    b = this.y;
    s = a + b;
    return s;
  }
}
thread {
  p = new Point;
  p.x = 3;
  p.y = 4;
  t = p.sum();
  print t;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"7"}));
}

TEST(Vm, ArraysAndLen) {
  VmResult R = runSource(R"(
thread {
  a = new_array(5);
  n = len(a);
  i = 0;
  while (i < n) {
    a[i] = i * i;
    i = i + 1;
  }
  v = a[4];
  print v;
  print n;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"16", "5"}));
  EXPECT_EQ(R.Counters.get("vm.accesses.array"), 6u);
}

TEST(Vm, RecursionWorks) {
  VmResult R = runSource(R"(
class Math {
  fields dummy;
  method fib(n) {
    if (n < 2) {
      r = n;
    } else {
      a = this.fib(n - 1);
      b = this.fib(n - 2);
      r = a + b;
    }
    return r;
  }
}
thread {
  m = new Math;
  f = m.fib(10);
  print f;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"55"}));
}

TEST(Vm, ForkJoinComputesInParallel) {
  VmResult R = runSource(R"(
class Worker {
  fields out;
  method run(k) {
    this.out = k * 10;
  }
}
thread {
  w1 = new Worker;
  w2 = new Worker;
  fork t1 = w1.run(1);
  fork t2 = w2.run(2);
  join t1;
  join t2;
  a = w1.out;
  b = w2.out;
  print a + b;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"30"}));
}

TEST(Vm, LocksAreMutuallyExclusive) {
  // Two threads increment a counter 100 times each under a lock; the
  // total must be exactly 200 under every schedule.
  const char *Source = R"(
class Counter {
  fields n;
  method bump(times) {
    i = 0;
    while (i < times) {
      acq(this);
      v = this.n;
      this.n = v + 1;
      rel(this);
      i = i + 1;
    }
  }
}
thread {
  c = new Counter;
  fork t1 = c.bump(100);
  fork t2 = c.bump(100);
  join t1;
  join t2;
  total = c.n;
  print total;
}
)";
  for (uint64_t Seed : {1u, 7u, 1234u}) {
    VmOptions Opts;
    Opts.Seed = Seed;
    Opts.Quantum = 3; // Aggressive interleaving.
    VmResult R = runSource(Source, Opts);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, (std::vector<std::string>{"200"})) << Seed;
  }
}

TEST(Vm, BarrierSynchronizesPhases) {
  VmResult R = runSource(R"(
class Worker {
  fields dummy;
  method run(b, a, idx, other) {
    a[idx] = idx + 1;
    await b;
    v = a[other];
    this.dummy = v;
  }
}
thread {
  b = new_barrier(2);
  a = new_array(2);
  w1 = new Worker;
  w2 = new Worker;
  fork t1 = w1.run(b, a, 0, 1);
  fork t2 = w2.run(b, a, 1, 0);
  join t1;
  join t2;
  x = w1.dummy;
  y = w2.dummy;
  print x + y;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"3"}));
}

TEST(Vm, VolatilePublication) {
  VmResult R = runSource(R"(
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
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Counters.get("vm.syncOps"), 0u);
}

TEST(Vm, DeadlockIsReported) {
  VmResult R = runSource(R"(
class L { fields f; }
class W {
  fields dummy;
  method grab(a, b) {
    acq(a);
    acq(b);
    rel(b);
    rel(a);
  }
}
thread {
  l1 = new L;
  l2 = new L;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.grab(l1, l2);
  fork t2 = w2.grab(l2, l1);
  join t1;
  join t2;
}
)", [] {
    VmOptions O;
    O.Seed = 3;
    O.Quantum = 1; // Force the interleaving that deadlocks.
    return O;
  }());
  // Either it deadlocks (reported) or a lucky schedule finishes; with
  // quantum 1 both threads grab their first lock in turn.
  if (!R.Ok) {
    EXPECT_NE(R.Error.find("deadlock"), std::string::npos) << R.Error;
  }
}

TEST(Vm, OutOfBoundsIsRuntimeError) {
  VmResult R = runSource(R"(
thread {
  a = new_array(3);
  a[5] = 1;
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(Vm, MinIntDividedByMinusOneIsRuntimeError) {
  // The quotient does not fit in int64 (the CPU traps on it): the run
  // fails like a division by zero instead of dying on SIGFPE.
  VmResult R = runSource(R"(
thread {
  x = 0 - 9223372036854775807 - 1;
  m = 0 - 1;
  y = x / m;
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division overflow"), std::string::npos) << R.Error;
}

TEST(Vm, MinIntModuloMinusOneIsZero) {
  // x % -1 is exactly 0 for every x, INT64_MIN included.
  VmResult R = runSource(R"(
thread {
  x = 0 - 9223372036854775807 - 1;
  m = 0 - 1;
  y = x % m;
  print y;
  z = 7 % m;
  print z;
  w = 7 / m;
  print w;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"0", "0", "-7"}));
}

TEST(Vm, IntegerOverflowIsRuntimeError) {
  // + - * and unary - fail the run when int64 cannot hold the result, as
  // division does, instead of wrapping. The statement that overflows
  // prints nothing.
  const std::pair<const char *, const char *> Cases[] = {
      {"x + 1", "addition overflow"},
      {"0 - x - 2", "subtraction overflow"},
      {"x * 2", "multiplication overflow"},
      {"-(0 - x - 1)", "negation overflow"},
  };
  for (const auto &[Expr, Error] : Cases) {
    std::string Source = "thread {\n  x = 9223372036854775807;\n  print x;\n"
                         "  y = " + std::string(Expr) + ";\n  print y;\n}\n";
    VmResult R = runSource(Source.c_str());
    EXPECT_FALSE(R.Ok) << Expr;
    EXPECT_NE(R.Error.find(Error), std::string::npos) << Expr << ": " << R.Error;
    EXPECT_EQ(R.Output, (std::vector<std::string>{"9223372036854775807"}))
        << Expr;
  }
}

TEST(Vm, ArithmeticReachesBothInt64Extremes) {
  VmResult R = runSource(R"(
thread {
  x = 9223372036854775807;
  m = 0 - x - 1;
  print m;
  s = m + x;
  print s;
  d = 0 - 1 - x;
  print d;
  n = -x;
  print n;
  p = (0 - 1) * x;
  print p;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{
                          "-9223372036854775808", "-1", "-9223372036854775808",
                          "-9223372036854775807", "-9223372036854775807"}));
}

TEST(Vm, CheckBoundOverflowIsRuntimeError) {
  // FastTrack checks a[i * 2^62] before the read. At i = 2 the check's
  // bound has no int64 value: the run fails naming the check range,
  // instead of wrapping to some other range.
  auto Prog = parseProgramOrDie(
      "thread { a = new_array(4); i = 2; x = a[i * 4611686018427387904]; }");
  InstrumentedProgram IP = instrumentFastTrack(*Prog);
  VmResult R = runProgram(*IP.Prog, IP.Tool, VmOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "check range a[4611686018427387904*i] overflows int64");
}

TEST(Vm, CheckRangeWiderThanInt64IsRuntimeError) {
  // Both bounds fit in int64 but the width hi - lo does not: the run fails
  // naming the range under every tool, instead of checking nothing.
  auto Prog = parseProgramOrDie(
      "thread { a = new_array(4); lo = 0 - 9223372036854775807; "
      "hi = 9223372036854775807; check(R a[lo..hi:2]); }");
  for (const char *Tool : kToolNames) {
    InstrumentedProgram IP = *instrumentNamed(*Prog, Tool);
    VmResult R = runProgram(*IP.Prog, IP.Tool, VmOptions());
    EXPECT_FALSE(R.Ok) << Tool;
    EXPECT_EQ(R.Error, "check range a[lo..hi:2] overflows int64") << Tool;
  }
  // At the widest int64 allows, hi - lo = INT64_MAX, the range is
  // checked: a[1] and a[3] lie in it.
  auto Widest = parseProgramOrDie(
      "thread { a = new_array(4); lo = 0 - 9223372036854775803; "
      "hi = 4; check(R a[lo..hi:2]); }");
  VmResult R = runProgram(*Widest, fastTrackConfig(), VmOptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counters.get("tool.shadowOps"), 2u);
}

TEST(Vm, CheckOnNonReferenceDesignatorIsRuntimeError) {
  // FastTrack checks a[0] before the read, so the check fails first,
  // naming its designator; the base run fails on the access itself.
  auto Prog = parseProgramOrDie("thread { a = 5; x = a[0]; }");
  InstrumentedProgram IP = instrumentFastTrack(*Prog);
  VmResult R = runProgram(*IP.Prog, IP.Tool, VmOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "check designator 'a' is not a reference");
  EXPECT_EQ(runProgramBase(*Prog).Error,
            "'a' does not hold an array reference");
}

TEST(Vm, CheckOnNonIntegerBoundIsRuntimeError) {
  // The check before x = a[i] evaluates its bound i, which holds null.
  auto Prog =
      parseProgramOrDie("thread { a = new_array(4); i = null; x = a[i]; }");
  InstrumentedProgram IP = instrumentFastTrack(*Prog);
  VmResult R = runProgram(*IP.Prog, IP.Tool, VmOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "check range bounds are not integers");
  EXPECT_EQ(runProgramBase(*Prog).Error, "array index out of bounds: null");
}

TEST(Vm, EachCheckPathEmitsItsEvent) {
  // Each path of a check is one opcode (CheckFields, CheckElem or
  // CheckRange, Compiler.FusedCheckOpcodesPerPathShape) writing one event:
  // object 2 is o and array 3 is a (id 1 is the global object). A range
  // that is empty at run time emits nothing.
  VmResult Run;
  std::vector<std::string> Events = checkEventsOf(R"(
class C { fields f, g; }
thread {
  o = new C;
  a = new_array(8);
  i = 4;
  lo = 1;
  hi = 6;
  e = 1;
  check(R o.f);
  check(W o.f/g);
  check(R a[i]);
  check(W a[i - 1]);
  check(R a[lo..hi]);
  check(W a[lo..hi:2]);
  check(R a[hi..e]);
  check(W o.g, R a[i + 1]);
  print i;
}
)",
                                                  Run);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Events, (std::vector<std::string>{
                        "R obj#2.f", "W obj#2.f/g", "R arr#3[4,5):1",
                        "W arr#3[3,4):1", "R arr#3[1,6):1", "W arr#3[1,6):2",
                        "W obj#2.g", "R arr#3[5,6):1"}));
  // Each check is one step, however many paths it has.
  EXPECT_EQ(Run.StatementsExecuted, 16u);
  EXPECT_EQ(Run.Output, (std::vector<std::string>{"4"}));
}

TEST(Vm, FailingCheckPathStopsTheCheck) {
  // The first path's event goes out; the second path's designator is null,
  // so the run fails in that step and nothing after it runs.
  VmResult Run;
  std::vector<std::string> Events = checkEventsOf(R"(
class C { fields f; }
thread {
  o = new C;
  n = null;
  check(W o.f, R n.f, R o.f);
  print 1;
}
)",
                                                  Run);
  EXPECT_FALSE(Run.Ok);
  EXPECT_EQ(Run.Error, "check designator 'n' is not a reference");
  EXPECT_EQ(Events, (std::vector<std::string>{"W obj#2.f"}));
  EXPECT_EQ(Run.StatementsExecuted, 3u);
  EXPECT_TRUE(Run.Output.empty());
}

TEST(Vm, AssertFailureIsRuntimeError) {
  VmResult R = runSource("thread { x = 1; assert x == 2; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("assertion"), std::string::npos);
}

TEST(Vm, GlobalObjectIsShared) {
  VmResult R = runSource(R"(
class W {
  fields dummy;
  method run() {
    $g.counter = 41;
  }
}
thread {
  w = new W;
  fork t = w.run();
  join t;
  v = $g.counter;
  print v + 1;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"42"}));
}

TEST(Vm, DeterministicAcrossRunsSameSeed) {
  const char *Source = R"(
class W {
  fields n;
  method run(reps) {
    i = 0;
    while (i < reps) {
      acq(this);
      v = this.n;
      this.n = v + 1;
      rel(this);
      i = i + 1;
    }
  }
}
thread {
  w = new W;
  fork t1 = w.run(10);
  fork t2 = w.run(10);
  join t1;
  join t2;
}
)";
  auto Prog = parseProgramOrDie(Source);
  VmOptions Opts;
  Opts.Seed = 99;
  VmResult A = runProgramBase(*Prog, Opts);
  VmResult B = runProgramBase(*Prog, Opts);
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(A.Counters.get("vm.accesses"), B.Counters.get("vm.accesses"));
  EXPECT_EQ(A.Counters.get("vm.syncOps"), B.Counters.get("vm.syncOps"));
}

TEST(Vm, GroundTruthSeesRace) {
  VmOptions Opts;
  Opts.EnableGroundTruth = true;
  auto Prog = parseProgramOrDie(R"(
class W {
  fields dummy;
  method run(o) {
    o.f = 1;
  }
}
class O { fields f; }
thread {
  o = new O;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(o);
  fork t2 = w2.run(o);
  join t1;
  join t2;
}
)");
  VmResult R = runProgramBase(*Prog, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.GroundTruthRaces.empty());
}

TEST(Vm, GroundTruthCleanOnSynchronizedProgram) {
  VmOptions Opts;
  Opts.EnableGroundTruth = true;
  auto Prog = parseProgramOrDie(R"(
class W {
  fields dummy;
  method run(o) {
    acq(o);
    o.f = 1;
    rel(o);
  }
}
class O { fields f; }
thread {
  o = new O;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(o);
  fork t2 = w2.run(o);
  join t1;
  join t2;
}
)");
  VmResult R = runProgramBase(*Prog, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.GroundTruthRaces.empty());
}

TEST(Vm, StepBudgetCatchesNonTermination) {
  auto Prog = parseProgramOrDie(R"(
thread {
  i = 1;
  while (i > 0) {
    i = i + 1;
  }
}
)");
  VmOptions Opts;
  Opts.MaxSteps = 10000;
  VmResult R = runProgramBase(*Prog, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step budget"), std::string::npos) << R.Error;
}

TEST(Vm, StepBudgetAllowsExactlyMaxSteps) {
  // Two threads, a call and a loop: the budget's last step falls in a
  // different place for each quantum. MaxSteps is the number of steps a
  // run may take, so a program of exactly N steps runs at N and fails at
  // N - 1, after its last step.
  auto Prog = parseProgramOrDie(R"(
class W {
  fields n;
  method run(k) {
    i = 0;
    while (i < k) {
      acq(this);
      v = this.n;
      this.n = v + 1;
      rel(this);
      i = i + 1;
    }
  }
}
thread {
  w = new W;
  fork t = w.run(5);
  w.run(3);
  join t;
  v = w.n;
  print v;
}
)");
  const uint64_t N = 67;
  for (unsigned Quantum : {1u, 4u, 24u}) {
    SCOPED_TRACE("quantum " + std::to_string(Quantum));
    VmOptions Opts;
    Opts.Quantum = Quantum;
    Opts.MaxSteps = N;
    VmResult Exact = runProgramBase(*Prog, Opts);
    ASSERT_TRUE(Exact.Ok) << Exact.Error;
    EXPECT_EQ(Exact.StatementsExecuted, N);
    EXPECT_EQ(Exact.Output, (std::vector<std::string>{"8"}));
    Opts.MaxSteps = N - 1;
    VmResult Short = runProgramBase(*Prog, Opts);
    EXPECT_FALSE(Short.Ok);
    EXPECT_EQ(Short.Error, "step budget exhausted (non-terminating program?)");
    EXPECT_EQ(Short.StatementsExecuted, N);
  }
}

TEST(Vm, CommitIntervalStreamsArePinned) {
  // No golden runs a commit interval. Pin the BigFoot stream (oracle on,
  // so every access is in it) of two suite programs for three intervals
  // and two quanta: a Commit event lands after every Nth step of each
  // thread, wherever the quantum ends.
  struct Pin {
    const char *Workload;
    uint64_t Interval;
    unsigned Quantum;
    uint64_t Steps;
    uint64_t Digest;
  };
  const Pin Pins[] = {
      {"moldyn", 1, 1, 4199, 0xbd15c0d91a662b50ull},
      {"moldyn", 1, 4, 4199, 0xf0695b1774f5e368ull},
      {"moldyn", 3, 1, 4199, 0xcf3fbaef74b9dc00ull},
      {"moldyn", 3, 4, 4199, 0x60d2df60b4bdca2aull},
      {"moldyn", 7, 1, 4199, 0x96744296f7ab60ffull},
      {"moldyn", 7, 4, 4199, 0xf3e2d48842345c1full},
      {"tomcat", 1, 1, 797, 0x8991488c03452a9eull},
      {"tomcat", 1, 4, 797, 0x50ff83dc91258f1cull},
      {"tomcat", 3, 1, 797, 0x6e53b092177890a0ull},
      {"tomcat", 3, 4, 797, 0x1c0075cdd0249118ull},
      {"tomcat", 7, 1, 797, 0x1cc7b35c96013100ull},
      {"tomcat", 7, 4, 797, 0xfd67d042391d19d6ull},
  };
  for (const Pin &P : Pins) {
    SCOPED_TRACE(std::string(P.Workload) + " interval " +
                 std::to_string(P.Interval) + " quantum " +
                 std::to_string(P.Quantum));
    auto Prog =
        parseProgramOrDie(workloadByName(P.Workload, SuiteScale::Test).Source);
    InstrumentedProgram IP = instrumentBigFoot(*Prog);
    VmOptions Opts;
    Opts.Seed = 5;
    Opts.Quantum = P.Quantum;
    Opts.CommitIntervalSteps = P.Interval;
    Opts.EnableGroundTruth = true;
    VmResult R;
    uint64_t Digest =
        test::streamDigest(test::encodedRun(*IP.Prog, &IP.Tool, Opts, R));
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.StatementsExecuted, P.Steps);
    EXPECT_EQ(Digest, P.Digest);
  }
}

TEST(Vm, JoinOnInvalidHandleIsError) {
  VmResult R = runSource("thread { t = 99; join t; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid thread handle"), std::string::npos);
}

TEST(Vm, ReleaseWithoutHoldIsError) {
  VmResult R = runSource(R"(
class C { fields f; }
thread {
  o = new C;
  rel(o);
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("does not hold"), std::string::npos);
}

TEST(Vm, ReentrantLockingWorks) {
  VmResult R = runSource(R"(
class C { fields f; }
thread {
  o = new C;
  acq(o);
  acq(o);
  o.f = 1;
  rel(o);
  rel(o);
  v = o.f;
  print v;
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"1"}));
}

TEST(Vm, ZeroQuantumFailsCleanly) {
  // Each quantum is drawn as 1 + nextBelow(Quantum), which has no value
  // for 0 (an assertion in Debug, a division by zero in Release). The C++
  // API must refuse such a run with an error, detectors attached or not.
  auto Prog = parseProgramOrDie("thread { x = 1; print x; }");
  VmOptions Opts;
  Opts.Quantum = 0;
  VmResult Base = runProgramBase(*Prog, Opts);
  EXPECT_FALSE(Base.Ok);
  EXPECT_EQ(Base.Error, "quantum must be at least 1");
  EXPECT_TRUE(Base.Output.empty());
  EXPECT_EQ(Base.StatementsExecuted, 0u);
  Opts.EnableGroundTruth = true;
  Opts.DetectShards = 2;
  VmResult Tool = runProgram(*Prog, fastTrackConfig(), Opts);
  EXPECT_FALSE(Tool.Ok);
  EXPECT_EQ(Tool.Error, Base.Error);
  Opts.Quantum = 1; // The smallest legal quantum runs normally.
  EXPECT_TRUE(runProgram(*Prog, fastTrackConfig(), Opts).Ok);
}

TEST(Vm, HugeArrayFailsCleanly) {
  // An array longer than kMaxArrayLength fails the run before anything is
  // allocated for it — in the VM or in an attached detector's shadow
  // state — instead of aborting the process.
  for (uint64_t Len : {kMaxArrayLength + 1, uint64_t(100000000000000)}) {
    std::string Size = std::to_string(Len);
    auto Prog = parseProgramOrDie("thread { a = new_array(" + Size +
                                  "); print 1; }");
    VmOptions Opts;
    Opts.EnableGroundTruth = true;
    VmResult R = runProgram(*Prog, fastTrackConfig(), Opts);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, "array size " + Size + " exceeds the limit of " +
                           std::to_string(kMaxArrayLength) + " elements");
    EXPECT_TRUE(R.Output.empty());
  }
}

TEST(Vm, OneProgramRunsOnFourThreadsAtOnce) {
  // A run only reads its program, so four threads may run one
  // instrumented program at once, and each run equals the serial one.
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  auto Moldyn =
      std::find_if(Suite.begin(), Suite.end(),
                   [](const Workload &W) { return W.Name == "moldyn"; });
  ASSERT_NE(Moldyn, Suite.end());
  auto Prog = parseProgramOrDie(Moldyn->Source);
  for (const char *Tool : {"bigfoot", "fasttrack"}) {
    InstrumentedProgram IP = *instrumentNamed(*Prog, Tool);
    VmResult Serial = runProgram(*IP.Prog, IP.Tool);
    ASSERT_TRUE(Serial.Ok) << Tool << ": " << Serial.Error;
    for (int Round = 0; Round < 3; ++Round) {
      std::vector<VmResult> Runs(4);
      std::vector<std::thread> Threads;
      for (VmResult &Run : Runs)
        Threads.emplace_back(
            [&IP, &Run] { Run = runProgram(*IP.Prog, IP.Tool); });
      for (std::thread &T : Threads)
        T.join();
      for (const VmResult &Run : Runs) {
        EXPECT_EQ(Run.Ok, Serial.Ok) << Tool << " round " << Round;
        EXPECT_EQ(Run.Error, Serial.Error) << Tool << " round " << Round;
        EXPECT_EQ(Run.Output, Serial.Output) << Tool << " round " << Round;
        EXPECT_EQ(Run.ToolRacyLocations, Serial.ToolRacyLocations)
            << Tool << " round " << Round;
        EXPECT_EQ(Run.Counters.all(), Serial.Counters.all())
            << Tool << " round " << Round;
      }
    }
  }
}
