//===- KillSets.h - Interprocedural synchronization effects -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KillSetHistory(m) / KillSetAnticipated(m) from the [CALL] rule: which
/// context properties a method call may kill through the synchronization
/// it (transitively) performs. Computed by a whole-program fixpoint over a
/// name-based call graph — the stand-in for the paper's 0-CFA-derived
/// call graph (BFJ method names resolve dynamically by receiver class; the
/// conservative union over same-named methods matches what 0-CFA yields
/// before refinement).
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_ANALYSIS_KILLSETS_H
#define BIGFOOT_ANALYSIS_KILLSETS_H

#include "bfj/Program.h"

#include <map>
#include <string>

namespace bigfoot {

/// Per-method synchronization summary.
struct SyncEffect {
  /// May (transitively) perform an acquire-like operation: acq, volatile
  /// read, join, await.
  bool Acquires = false;
  /// May (transitively) perform a release-like operation: rel, volatile
  /// write, fork, await.
  bool Releases = false;

  bool any() const { return Acquires || Releases; }
};

/// Options mirroring the StaticBF command-line flags (Section 5).
struct SyncModel {
  /// Treat accesses to fields of the global object ($g) as potential
  /// synchronization (the static-initializer flag of Section 5).
  bool GlobalFieldsSynchronize = false;
};

/// Computed summaries for every method name in the program.
class KillSets {
public:
  /// Analyzes \p P and builds summaries.
  KillSets(const Program &P, const SyncModel &Model = SyncModel());

  /// Summary for calls to \p MethodName (union over all classes defining
  /// it). Unknown methods conservatively acquire and release.
  SyncEffect effectOf(const std::string &MethodName) const;

  /// The effect a single statement has directly (not through calls).
  SyncEffect directEffect(const Stmt *S) const;

  /// The effect of executing \p S: the summary of the method a call
  /// invokes, else S's direct effect.
  SyncEffect effectOf(const Stmt *S) const;

  const SyncModel &model() const { return Model; }

private:
  std::map<std::string, SyncEffect> Effects;
  SyncModel Model;
  const Program &Prog;
};

} // namespace bigfoot

#endif // BIGFOOT_ANALYSIS_KILLSETS_H
