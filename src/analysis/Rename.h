//===- Rename.h - Freshness pass ([RENAME] insertion) -----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The check-placement rules require every assignment target to be
/// "fresh" — not mentioned in the current history (Section 3.3), nor read
/// by the facts the assignment itself records (x = x.f). Source programs
/// reuse variables (i = i + 1), so this pass inserts renaming statements
/// x' := x on demand before such assignments and rewrites the
/// assignment's own uses of x to x', exactly as in Figure 6(b). Fresh
/// names avoid every name the body uses. Extra renames are harmless (a
/// local copy); missing ones would invalidate history facts, so the pass
/// overapproximates "mentioned".
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_ANALYSIS_RENAME_H
#define BIGFOOT_ANALYSIS_RENAME_H

#include "bfj/Program.h"

namespace bigfoot {

/// Inserts renames into one method/thread body. Returns the number of
/// renames inserted.
unsigned insertRenames(StmtPtr &Body);

/// Runs insertRenames over every body in \p P.
unsigned insertRenames(Program &P);

/// Makes \p Body, and every If branch and Loop body inside it, a
/// BlockStmt (wrapping any other statement in one), so later passes can
/// insert renames and checks by appending.
void normalizeBody(StmtPtr &Body);

/// Post-placement cleanup, mirroring the Soot optimizer pass of Section
/// 5: a rename t := s whose target is used only by the immediately
/// following simple statement is folded away by substituting s back in
/// with renameUses; that statement may be a check. Returns the number of
/// renames removed.
unsigned cleanupRenames(StmtPtr &Body);

} // namespace bigfoot

#endif // BIGFOOT_ANALYSIS_RENAME_H
