//===- InstrumentersTest.cpp - Placement-strategy unit tests -----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "instrument/Instrumenters.h"

#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "common/UnassignedReads.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace bigfoot;
using namespace bigfoot::test;

namespace {

size_t checkCount(const Program &P) {
  size_t N = 0;
  P.forEachStmt([&N](const Stmt *S) {
    if (const auto *C = dyn_cast<CheckStmt>(S))
      N += C->paths().size();
  });
  return N;
}

size_t accessCount(const Program &P) {
  size_t N = 0;
  P.forEachStmt([&N](const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::FieldRead:
    case StmtKind::FieldWrite:
    case StmtKind::ArrayRead:
    case StmtKind::ArrayWrite:
      ++N;
      break;
    default:
      break;
    }
  });
  return N;
}

} // namespace

TEST(FastTrackPlacement, OneCheckPerAccess) {
  auto Prog = parseProgramOrDie(R"(
class C { fields f, g; }
thread {
  o = new C;
  a = new_array(4);
  o.f = 1;
  t = o.g;
  a[0] = 2;
  u = a[1];
}
)");
  InstrumentedProgram Ft = instrumentFastTrack(*Prog);
  EXPECT_EQ(checkCount(*Ft.Prog), accessCount(*Ft.Prog));
  EXPECT_EQ(checkCount(*Ft.Prog), 4u);
}

TEST(FastTrackPlacement, VolatileAccessesNotChecked) {
  auto Prog = parseProgramOrDie(R"(
class C {
  fields d;
  volatile fields v;
}
thread {
  o = new C;
  o.v = 1;
  o.d = 2;
}
)");
  InstrumentedProgram Ft = instrumentFastTrack(*Prog);
  EXPECT_EQ(checkCount(*Ft.Prog), 1u) << printProgram(*Ft.Prog);
}

TEST(RedCardPlacement, EliminatesRereadInSpan) {
  // Second read of the same location within a release-free span is
  // redundant (the paper's core RedCard observation).
  auto Prog = parseProgramOrDie(R"(
class C { fields f; }
thread {
  o = new C;
  t = o.f;
  u = o.f;
}
)");
  InstrumentedProgram Rc = instrumentRedCard(*Prog);
  EXPECT_EQ(checkCount(*Rc.Prog), 1u) << printProgram(*Rc.Prog);
}

TEST(RedCardPlacement, WriteAfterReadStillChecked) {
  // A read check does not cover a later write.
  auto Prog = parseProgramOrDie(R"(
class C { fields f; }
thread {
  o = new C;
  t = o.f;
  o.f = t + 1;
  u = o.f;
}
)");
  InstrumentedProgram Rc = instrumentRedCard(*Prog);
  // Read check + write check; the final read is covered by the write
  // check.
  EXPECT_EQ(checkCount(*Rc.Prog), 2u) << printProgram(*Rc.Prog);
}

TEST(RedCardPlacement, ReleaseEndsTheSpan) {
  auto Prog = parseProgramOrDie(R"(
class C { fields f; }
thread {
  o = new C;
  lock = new C;
  t = o.f;
  acq(lock);
  rel(lock);
  u = o.f;
}
)");
  InstrumentedProgram Rc = instrumentRedCard(*Prog);
  EXPECT_EQ(checkCount(*Rc.Prog), 2u) << printProgram(*Rc.Prog);
}

TEST(RedCardPlacement, AcquireAloneDoesNotEndCoverage) {
  // A check covers later accesses until a RELEASE; an acquire between
  // them is fine ("check precedes the access with no intervening
  // release").
  auto Prog = parseProgramOrDie(R"(
class C { fields f; }
thread {
  o = new C;
  lock = new C;
  t = o.f;
  acq(lock);
  u = o.f;
  rel(lock);
}
)");
  InstrumentedProgram Rc = instrumentRedCard(*Prog);
  EXPECT_EQ(checkCount(*Rc.Prog), 1u) << printProgram(*Rc.Prog);
}

TEST(RedCardPlacement, RedundancyAcrossLoopIterations) {
  // The loop-invariant re-read of o.f is checked once before/inside the
  // first iteration and recognized as covered on later ones.
  auto Prog = parseProgramOrDie(R"(
class C { fields f; }
thread {
  o = new C;
  i = 0;
  s = 0;
  while (i < 10) {
    t = o.f;
    s = s + t;
    i = i + 1;
  }
}
)");
  InstrumentedProgram Rc = instrumentRedCard(*Prog);
  EXPECT_EQ(checkCount(*Rc.Prog), 1u) << printProgram(*Rc.Prog);
}

TEST(RedCardPlacement, AliasedRereadEliminated) {
  auto Prog = parseProgramOrDie(R"(
class C { fields f, g; }
thread {
  a = new C;
  x = a.f;
  s = x.g;
  y = a.f;
  t = y.g;
}
)");
  InstrumentedProgram Rc = instrumentRedCard(*Prog);
  // Checks: a.f once, x.g once; y.g covered through x = y.
  EXPECT_EQ(checkCount(*Rc.Prog), 2u) << printProgram(*Rc.Prog);
}

TEST(RedCardPlacement, SourceRenameMovesTheCoverageToItsTarget) {
  // RedCard shares StaticBF's transfer, whose [RENAME] x := y moves the
  // facts about y onto x and keeps none about y. A program may still read
  // through y after a source-level x := y: the read through x is covered
  // by the check through y, and the read through y is checked again.
  // Both are sound.
  auto Prog = parseProgramOrDie(R"(
thread {
  a = new_array(4);
  y = 1;
  v = a[y];
  x := y;
  w = a[x];
  u = a[y];
}
)");
  InstrumentedProgram Rc = instrumentRedCard(*Prog);
  std::string Printed = printProgram(*Rc.Prog);
  EXPECT_EQ(checkCount(*Rc.Prog), 2u) << Printed;
  EXPECT_NE(Printed.find("  check(R a[y]);\n  v = a[y];\n  x := y;\n"
                         "  w = a[x];\n  check(R a[y]);\n  u = a[y];\n"),
            std::string::npos)
      << Printed;
}

TEST(Placement, ToolConfigsMatchStrategies) {
  auto Prog = parseProgramOrDie(R"(
class C { fields f; }
thread { o = new C; o.f = 1; }
)");
  EXPECT_FALSE(instrumentFastTrack(*Prog).Tool.DeferArrayChecks);
  EXPECT_FALSE(instrumentFastTrack(*Prog).Tool.AdaptiveArrayShadow);
  EXPECT_TRUE(instrumentSlimState(*Prog).Tool.DeferArrayChecks);
  EXPECT_TRUE(instrumentSlimCard(*Prog).Tool.AdaptiveArrayShadow);
  EXPECT_TRUE(instrumentBigFoot(*Prog).Tool.DeferArrayChecks);
  EXPECT_EQ(instrumentRedCard(*Prog).Tool.Name, "redcard");
  // Each kToolNames entry instruments to the config of that name, DJIT+
  // on FastTrack's placement; any other name is refused.
  for (const char *Name : kToolNames)
    EXPECT_EQ(instrumentNamed(*Prog, Name)->Tool.Name, Name);
  std::optional<InstrumentedProgram> Djit = instrumentNamed(*Prog, "djit");
  EXPECT_TRUE(Djit->Tool.VectorClocksOnly);
  EXPECT_EQ(printProgram(*Djit->Prog),
            printProgram(*instrumentFastTrack(*Prog).Prog));
  EXPECT_FALSE(instrumentNamed(*Prog, "none"));
  EXPECT_FALSE(instrumentNamed(*Prog, "BigFoot"));
}

TEST(Placement, BigFootNeverChecksMoreThanRedCard) {
  // On every suite-shaped body BigFoot's path count is at most
  // RedCard's (it eliminates strictly more and coalesces).
  const char *Source = R"(
class C { fields f, g; }
thread {
  o = new C;
  n = 16;
  a = new_array(n);
  i = 0;
  while (i < n) {
    a[i] = i;
    t = o.f;
    o.g = t;
    i = i + 1;
  }
}
)";
  auto Prog = parseProgramOrDie(Source);
  size_t Rc = checkCount(*instrumentRedCard(*Prog).Prog);
  size_t Bf = checkCount(*instrumentBigFoot(*Prog).Prog);
  EXPECT_LE(Bf, Rc);
}

TEST(UnassignedReads, JoinsBranchesAndLoopIterations) {
  // u and v are each assigned on some path, and q by an earlier
  // iteration; nothing assigns r, y or z.
  auto Prog = parseProgramOrDie(R"(
class W {
  fields pad;
  method run(c) {
    if (c < 1) {
      u = 1;
    } else {
      v = 2;
    }
    w = u + v + z;
    loop {
      p = q;
      exit_if (c < 2);
      q = 1;
    }
    s = p + q;
    return r;
  }
}
thread {
  x = y;
}
)");
  std::map<std::string, std::set<std::string>> Unassigned =
      unassignedReads(*Prog);
  EXPECT_EQ(Unassigned["W.run"], (std::set<std::string>{"r", "z"}));
  EXPECT_EQ(Unassigned["thread#0"], std::set<std::string>{"y"});
}

TEST(UnassignedReads, FlagsACheckOfAFoldedRename) {
  // What the rename clean-up once made of y' := y; check(W b[y']): the
  // copy gone, the check still reading it.
  const char *Source = R"(
class O { volatile fields vf; }
class W {
  fields pad;
  method run(o, b) {
    y = 1;
    b[y] = 1;
    y = o.vf;
  }
}
thread {
  skip;
}
)";
  std::string Broken = Source;
  Broken.replace(Broken.find("    y = o.vf;"), 0, "    check(W b[y']);\n");
  auto Prog = parseProgramOrDie(Source);
  EXPECT_EQ(newUnassignedReads(*Prog, *parseProgramOrDie(Broken)),
            std::vector<std::string>{"W.run: y'"});
  EXPECT_EQ(newUnassignedReads(*Prog, *Prog), std::vector<std::string>{});
}

TEST(Placement, NoToolReadsAnUnassignedLocal) {
  // Every suite workload at both scales and every example program, under
  // all six tools.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (SuiteScale Scale : {SuiteScale::Test, SuiteScale::Bench})
    for (Workload &W : standardSuite(Scale))
      Programs.emplace_back(
          W.Name + (Scale == SuiteScale::Test ? " (test)" : " (bench)"),
          std::move(W.Source));
  size_t Examples = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(BIGFOOT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".bfj")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Source;
    Source << In.rdbuf();
    Programs.emplace_back(Entry.path().filename().string(), Source.str());
    ++Examples;
  }
  EXPECT_GE(Examples, 4u);
  for (const auto &[Label, Source] : Programs) {
    auto Prog = parseProgramOrDie(Source);
    for (const char *Tool : kToolNames)
      expectNoNewUnassignedReads(*Prog, *instrumentNamed(*Prog, Tool), Label);
  }
}

TEST(Placement, PlacedProgramsPrintAndParseBack) {
  // A placed program holds names no source wrote (renamed copies such as
  // i'2), coalesced field paths (x.f/g) and ranged checks (a[0..n:2]).
  // Each of the five tools' placements of every suite workload at both
  // scales and of every racy variant must print, parse back and print to
  // the same text.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (SuiteScale Scale : {SuiteScale::Test, SuiteScale::Bench})
    for (Workload &W : standardSuite(Scale))
      Programs.emplace_back(
          W.Name + (Scale == SuiteScale::Test ? " (test)" : " (bench)"),
          std::move(W.Source));
  for (Workload &W : racyVariants())
    Programs.emplace_back(W.Name, std::move(W.Source));
  for (const auto &[Label, Source] : Programs) {
    auto Prog = parseProgramOrDie(Source);
    for (const InstrumentedProgram &IP : instrumentAll(*Prog)) {
      std::string Printed = printProgram(*IP.Prog);
      ParseResult Again = parseProgram(Printed);
      ASSERT_TRUE(Again.ok()) << Label << " (tool " << IP.Tool.Name
                              << "): " << Again.Error << "\n"
                              << Printed;
      EXPECT_EQ(printProgram(*Again.Prog), Printed)
          << Label << " (tool " << IP.Tool.Name << ")";
    }
  }
}

TEST(ConcurrentPlacement, FourThreadsPlaceWhatOneThreadPlaces) {
  // Every parse and every placement shares one process-wide table of
  // interned variable names. Four threads parse and place the Test-scale
  // suite at once, each starting at a different program so that they
  // intern the same names together, and every printed program must match
  // a serial placement's.
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  auto PlaceAll = [&Suite](size_t First, std::vector<std::string> &Out) {
    Out.assign(Suite.size() * 2, "");
    for (size_t K = 0; K < Suite.size(); ++K) {
      size_t I = (First + K) % Suite.size();
      ParseResult PR = parseProgram(Suite[I].Source);
      if (!PR.ok())
        continue; // Reported by the serial pass.
      Out[2 * I] = printProgram(*instrumentBigFoot(*PR.Prog).Prog);
      Out[2 * I + 1] = printProgram(*instrumentRedCard(*PR.Prog).Prog);
    }
  };
  std::vector<std::string> Serial;
  PlaceAll(0, Serial);
  for (size_t I = 0; I < Suite.size(); ++I)
    ASSERT_FALSE(Serial[2 * I].empty()) << Suite[I].Name;

  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> Placed(kThreads);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < kThreads; ++T)
    Threads.emplace_back(PlaceAll, T * Suite.size() / kThreads,
                         std::ref(Placed[T]));
  for (std::thread &T : Threads)
    T.join();
  for (size_t T = 0; T < kThreads; ++T)
    for (size_t I = 0; I < Serial.size(); ++I)
      EXPECT_EQ(Placed[T][I], Serial[I])
          << "thread " << T << ", " << Suite[I / 2].Name
          << (I % 2 ? " (RedCard)" : " (BigFoot)");
}
