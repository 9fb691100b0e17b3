//===- RecordedRun.h - Test views of a run's event stream -------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// Two test-only consumers of the typed event stream, both attached through
// VmOptions::RecordSink so the run under test is the run every detector,
// trace and replay sees:
//
//  * TraceRecorder projects the stream per thread into Section 2's
//    vocabulary — accesses, checks, acquires and releases — and
//    preciseCheckReport() checks the paper's precise-checks property on
//    it: every access covered by a check, every check legitimate for an
//    access. This is the "additional dynamic analysis" the paper used to
//    confirm its placement (Section 5).
//  * encodedRun() captures the whole stream plus the run summary as BFT1
//    bytes, and streamDigest() reduces them to the 64-bit digest the
//    goldens pin, so a run can be checked event for event.
//
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_TESTS_COMMON_RECORDEDRUN_H
#define BIGFOOT_TESTS_COMMON_RECORDEDRUN_H

#include "events/TraceCodec.h"
#include "support/LocKey.h"
#include "support/StridedRange.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

namespace bigfoot::test {

/// One step of a thread's projected trace. Accesses come from the
/// oracle-targeted events (one field or one element each); checks from
/// the tool-targeted ones (one step per field of a coalesced group, one
/// step per array range).
struct ThreadStep {
  enum class Kind { Access, Check, Acquire, Release };
  Kind K = Kind::Access;
  AccessKind Access = AccessKind::Read; ///< Accesses and checks.
  bool OnArray = false;
  ObjectId Obj = 0;
  FieldId Field = kNoSym;     ///< Field locations.
  StridedRange Range;         ///< Array locations; one element for accesses.

  bool isLocation() const { return K == Kind::Access || K == Kind::Check; }

  /// Whether the check \p C names this access's location (membership in
  /// the check's range for arrays).
  bool locatedIn(const ThreadStep &C) const {
    if (OnArray != C.OnArray || Obj != C.Obj)
      return false;
    return OnArray ? C.Range.contains(Range.begin()) : Field == C.Field;
  }
};

/// An EventSink that projects the stream per thread:
///  * Release, VolatileWrite and Fork are releases of the acting thread;
///  * Acquire, VolatileRead and Join are acquires;
///  * a Barrier is a release, then an acquire, for each party;
///  * allocation, lifecycle markers and commits carry no Section 2 step.
class TraceRecorder final : public EventSink {
public:
  std::map<ThreadId, std::vector<ThreadStep>> ByThread;
  uint64_t Accesses = 0;

  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override {
    for (size_t I = 0; I < N; ++I)
      project(Events[I], Payload + Events[I].PayloadIndex);
  }

  /// Every step of every thread with kind \p K.
  size_t count(ThreadStep::Kind K) const {
    size_t Out = 0;
    for (const auto &[Tid, Steps] : ByThread)
      for (const ThreadStep &S : Steps)
        Out += S.K == K;
    return Out;
  }

private:
  void sync(ThreadId Tid, ThreadStep::Kind K) {
    ThreadStep S;
    S.K = K;
    ByThread[Tid].push_back(S);
  }

  void project(const Event &E, const uint32_t *Words) {
    using K = ThreadStep::Kind;
    const bool Oracle = E.Target == kTargetOracle;
    switch (E.Kind) {
    case EventKind::FieldCheck:
      for (uint32_t I = 0; I < E.PayloadCount; ++I) {
        ThreadStep S;
        S.K = Oracle ? K::Access : K::Check;
        S.Access = E.Access;
        S.Obj = E.Obj;
        S.Field = Words[I];
        ByThread[E.Tid].push_back(S);
        Accesses += Oracle;
      }
      return;
    case EventKind::ArrayCheck: {
      ThreadStep S;
      S.K = Oracle ? K::Access : K::Check;
      S.Access = E.Access;
      S.OnArray = true;
      S.Obj = E.Obj;
      S.Range = StridedRange(E.Begin, E.End, E.Stride);
      ByThread[E.Tid].push_back(S);
      Accesses += Oracle;
      return;
    }
    case EventKind::Release:
    case EventKind::VolatileWrite:
    case EventKind::Fork:
      sync(E.Tid, K::Release);
      return;
    case EventKind::Acquire:
    case EventKind::VolatileRead:
    case EventKind::Join:
      sync(E.Tid, K::Acquire);
      return;
    case EventKind::Barrier:
      for (uint32_t I = 0; I < E.PayloadCount; ++I) {
        sync(Words[I], K::Release);
        sync(Words[I], K::Acquire);
      }
      return;
    default:
      return;
    }
  }
};

/// A finished run together with its per-thread projection.
struct RecordedRun {
  VmResult Run;
  TraceRecorder Trace;
  SymbolTable Symbols; ///< The program's, for rendering locations.
};

/// Runs \p Prog under \p Tool with a TraceRecorder on the stream and the
/// ground-truth oracle on, so every heap access reaches the recorder.
inline RecordedRun recordRun(const Program &Prog, const DetectorConfig &Tool,
                             VmOptions Opts = VmOptions()) {
  RecordedRun R;
  Opts.EnableGroundTruth = true;
  Opts.RecordSink = &R.Trace;
  R.Run = runProgram(Prog, Tool, Opts);
  R.Symbols = Prog.symbols();
  return R;
}

/// "obj#4.f", "arr#7[3]" or "arr#7[0..6]" for a step's location.
inline std::string locationKey(const ThreadStep &S, const SymbolTable &Syms) {
  return S.OnArray ? lockey::arrayRange(S.Obj, S.Range.str())
                   : lockey::objField(S.Obj, Syms.name(S.Field));
}

/// What Section 2's oracle found wrong with a recorded run.
struct PrecisionReport {
  std::vector<std::string> Uncovered;    ///< "write of obj#3.f by thread 1"
  std::vector<std::string> Illegitimate; ///< "write check of arr#2[5] by ..."
  /// Set when the recorder saw no access of a run that made some: the
  /// oracle events never reached it, so there was nothing to check.
  std::string CaptureError;

  bool ok() const {
    return Uncovered.empty() && Illegitimate.empty() && CaptureError.empty();
  }
};

namespace detail {

/// A write check covers reads and writes; a read check only reads.
inline bool covers(AccessKind Check, AccessKind Access) {
  return Check == AccessKind::Write || Access == AccessKind::Read;
}

/// A read check is legitimate for both; a write check only for writes.
inline bool legitimateFor(AccessKind Check, AccessKind Access) {
  return Check == AccessKind::Read || Access == AccessKind::Write;
}

inline const char *kindName(AccessKind K) {
  return K == AccessKind::Read ? "read" : "write";
}

/// Calls \p F on every location step of \p T that may pair with the
/// step at \p I: earlier ones back to the nearest release, later ones up
/// to the nearest acquire. Both Section 2 relations use this window — a
/// check covers an access it precedes with no release between or
/// succeeds with no acquire between, and is legitimate for an access it
/// precedes with no acquire between or succeeds with no release between.
template <typename Fn>
void forEachInWindow(const std::vector<ThreadStep> &T, size_t I, Fn &&F) {
  for (size_t J = I; J-- > 0 && T[J].K != ThreadStep::Kind::Release;)
    if (T[J].isLocation())
      F(T[J]);
  for (size_t J = I + 1; J < T.size() && T[J].K != ThreadStep::Kind::Acquire;
       ++J)
    if (T[J].isLocation())
      F(T[J]);
}

} // namespace detail

/// Section 2's precise-checks property, literally, per thread:
///  * an access is COVERED by a check of its location that precedes it
///    with no intervening release, or succeeds it with no intervening
///    acquire (write checks cover reads and writes, read checks reads);
///  * a check is LEGITIMATE when every location it names is accessed
///    after it with no intervening acquire, or before it with no
///    intervening release (read checks are legitimate for both kinds,
///    write checks only for writes).
inline PrecisionReport preciseCheckReport(const RecordedRun &R) {
  using K = ThreadStep::Kind;
  PrecisionReport Out;
  uint64_t VmAccesses = R.Run.Counters.get("vm.accesses");
  if (R.Trace.Accesses == 0 && VmAccesses > 0)
    Out.CaptureError = "the run made " + std::to_string(VmAccesses) +
                       " accesses but the recorder saw none";
  for (const auto &[Tid, T] : R.Trace.ByThread) {
    std::string By = " by thread " + std::to_string(Tid);
    for (size_t I = 0; I < T.size(); ++I) {
      const ThreadStep &S = T[I];
      if (S.K == K::Access) {
        bool Covered = false;
        detail::forEachInWindow(T, I, [&](const ThreadStep &C) {
          Covered |= C.K == K::Check && S.locatedIn(C) &&
                     detail::covers(C.Access, S.Access);
        });
        if (!Covered)
          Out.Uncovered.push_back(std::string(detail::kindName(S.Access)) +
                                  " of " + locationKey(S, R.Symbols) + By);
      } else if (S.K == K::Check) {
        // Elements (or the one field) of the check some access justifies.
        std::unordered_set<int64_t> Justified;
        detail::forEachInWindow(T, I, [&](const ThreadStep &A) {
          if (A.K == K::Access && A.locatedIn(S) &&
              detail::legitimateFor(S.Access, A.Access))
            Justified.insert(A.Range.begin());
        });
        bool Legitimate = S.OnArray
                              ? static_cast<int64_t>(Justified.size()) ==
                                    S.Range.size()
                              : !Justified.empty();
        if (!Legitimate)
          Out.Illegitimate.push_back(std::string(detail::kindName(S.Access)) +
                                     " check of " +
                                     locationKey(S, R.Symbols) + By);
      }
    }
  }
  return Out;
}

/// gtest adapter: success iff preciseCheckReport() finds nothing; the
/// failure message lists the first violations.
inline ::testing::AssertionResult hasPreciseChecks(const RecordedRun &R) {
  PrecisionReport P = preciseCheckReport(R);
  if (P.ok())
    return ::testing::AssertionSuccess();
  ::testing::AssertionResult Fail = ::testing::AssertionFailure();
  if (!P.CaptureError.empty())
    Fail << P.CaptureError << "\n";
  size_t Shown = 0;
  for (const std::string &U : P.Uncovered)
    if (Shown++ < 10)
      Fail << "uncovered " << U << "\n";
  for (const std::string &C : P.Illegitimate)
    if (Shown++ < 10)
      Fail << "illegitimate " << C << "\n";
  if (Shown > 10)
    Fail << "... " << (Shown - 10) << " more\n";
  return Fail;
}

/// Runs \p Prog (under \p Tool, or as a base run when null) with a
/// TraceWriter on the stream and returns the finished BFT1 bytes: every
/// event in order, then the run's status, output, step count and vm.*
/// counters. Two runs agree on all of that iff their bytes are equal.
inline std::vector<uint8_t> encodedRun(const Program &Prog,
                                       const DetectorConfig *Tool,
                                       VmOptions Opts, VmResult &Run) {
  TraceWriter Writer(Prog.symbols(), Tool ? *Tool : DetectorConfig());
  Opts.RecordSink = &Writer;
  Run = Tool ? runProgram(Prog, *Tool, Opts) : runProgramBase(Prog, Opts);
  Writer.finish(summaryOf(Run));
  return Writer.buffer();
}

/// 64-bit FNV-1a digest of an encoded stream, as the goldens record it.
inline uint64_t streamDigest(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace bigfoot::test

#endif // BIGFOOT_TESTS_COMMON_RECORDEDRUN_H
