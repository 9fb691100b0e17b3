//===- CheckPlacement.h - The StaticBF check placement analysis -*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core BigFoot contribution: the static analysis of Section 3 that
/// places precise race checks. Following the StaticBF implementation
/// notes (Section 5), placement runs as separate passes per method body:
///
///   0. rename insertion (freshness, [RENAME]),
///   1. forward history pass — boolean facts, alias expressions, past
///      accesses; loop invariants via Cartesian predicate abstraction
///      over induction variables,
///   2. backward anticipated pass,
///   3. forward check pass — computes every Checks(...) set of Figure 7,
///      coalesces it (Section 4), and inserts check(C) statements before
///      synchronization operations, at branch merges, at loop edges, and
///      at the ends of methods and threads.
///
/// The result is an instrumented program whose checks are precise: every
/// access is covered by a legitimate check (Section 2), which the test
/// suite verifies with a dynamic oracle.
///
/// Pass 1's statement transfer and loop invariant are also RedCard's
/// (instrument/Instrumenters.h): one forward history analysis serves both.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_ANALYSIS_CHECKPLACEMENT_H
#define BIGFOOT_ANALYSIS_CHECKPLACEMENT_H

#include "analysis/HistoryContext.h"
#include "analysis/KillSets.h"
#include "bfj/Program.h"
#include "entail/ConstraintSystem.h"

#include <functional>
#include <map>
#include <optional>
#include <string>

namespace bigfoot {

/// Tuning knobs; the defaults are full BigFoot. Turning features off
/// yields the ablation configurations benchmarked in bench_ablations.
struct PlacementOptions {
  /// Reason about anticipated accesses (off: every forgotten access is
  /// checked immediately; loop-carried field checks stay inside loops).
  bool UseAnticipation = true;
  /// Run the Section 4 coalescing step on each inserted check.
  bool CoalesceChecks = true;
  /// Infer loop invariants so array checks hoist out of loops.
  bool HoistLoopChecks = true;
  /// Record per-statement contexts (drives the analysis-explorer example).
  bool TraceContexts = false;
  /// Synchronization model flags (Section 5's static-field handling).
  SyncModel Sync;
};

/// Result metadata for one placement run.
struct PlacementStats {
  unsigned MethodsProcessed = 0;
  unsigned RenamesInserted = 0;
  unsigned ChecksInserted = 0; ///< check(C) statements materialized.
  unsigned PathsInserted = 0;  ///< total paths across all checks.
  /// Entailment work: H ⊢ h queries asked, constraint systems prepared
  /// for them, Fourier-Motzkin refutations run.
  EntailmentCounts Entailment;
  double AnalysisSeconds = 0;  ///< wall-clock analysis time, all bodies.
  /// When TraceContexts: statement id -> "H • A" context *after* that
  /// statement (as in Figures 3 and 6).
  std::map<unsigned, std::string> ContextAfter;
};

/// Runs the full BigFoot placement over every method and thread body of
/// \p P, inserting renames and check statements in place, then numbers
/// its statements and rebuilds its symbol table, so \p P is ready to run.
/// \p P should be a clone of the original program.
PlacementStats placeBigFootChecks(Program &P,
                                  const PlacementOptions &Opts =
                                      PlacementOptions());

/// The history after the simple (non-control) statement \p S runs in \p In:
/// the synchronization rules ([ACQ], [REL], [CALL] by \p Kills' effect of
/// S), then S's facts — an assignment's affine value, a [RENAME], a heap
/// read's or length's alias, an assert's condition, a check's paths — and
/// its access. A fact that would describe S's target by the target's own
/// old value is not recorded: no x = e when e reads x, and no alias when x
/// is also S's object, array or index. On bodies the rename pass prepared
/// no such statement remains; on bodies it never saw, the caller first
/// drops the facts about the old value of the variable S assigns.
History stepHistory(const History &In, const Stmt *S, const KillSets &Kills);

/// Carries a history forward through one block of a loop.
using LoopBlockPass = std::function<History(Stmt *, History)>;

/// A loop's head invariant, and what the round run with it computed.
struct LoopInvariant {
  History Head;
  /// The history after the pre-body in the round that carried Head around
  /// the loop, which is the last round when refinement converged. Empty
  /// when the round cap ended refinement, since no round ran with Head.
  std::optional<History> AtExitTest;
};

/// The invariant at the head of \p Loop, entered with history \p In: the
/// facts of \p Candidates (In's own, plus any guesses) that In and the
/// back-edge history both entail, refined until no fact drops out or six
/// rounds have run. Each round carries the candidates once around the loop
/// with \p Pass; the refined histories share \p Table.
LoopInvariant loopInvariant(const LoopStmt *Loop, const History &In,
                            History Candidates, EntailmentTable &Table,
                            const LoopBlockPass &Pass);

} // namespace bigfoot

#endif // BIGFOOT_ANALYSIS_CHECKPLACEMENT_H
