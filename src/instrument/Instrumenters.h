//===- Instrumenters.h - Check placement for all five tools -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Produces the instrumented program each detector runs (Figure 2's
/// placement column):
///
///   FastTrack  — a check immediately before every heap access,
///   RedCard    — per-access checks minus statically redundant ones: a
///                check before each access that StaticBF's forward history
///                (stepHistory, loopInvariant in analysis/CheckPlacement.h)
///                does not already entail, with no anticipation, motion or
///                coalescing; plus static field proxies,
///   SlimState  — FastTrack placement (its compression is dynamic),
///   SlimCard   — RedCard placement + SlimState runtime,
///   BigFoot    — the full Section 3 check motion and coalescing,
///   DJIT+      — FastTrack placement, vector clocks everywhere (an extra
///                baseline beyond the paper's five).
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_INSTRUMENT_INSTRUMENTERS_H
#define BIGFOOT_INSTRUMENT_INSTRUMENTERS_H

#include "analysis/CheckPlacement.h"
#include "bfj/Program.h"
#include "runtime/Detector.h"

#include <array>
#include <memory>
#include <optional>
#include <string_view>

namespace bigfoot {

/// An instrumented program plus the detector configuration that matches
/// its placement.
struct InstrumentedProgram {
  std::unique_ptr<Program> Prog;
  DetectorConfig Tool;
  PlacementStats Placement; ///< Meaningful for BigFoot; partial otherwise.
};

InstrumentedProgram instrumentFastTrack(const Program &P);
InstrumentedProgram instrumentRedCard(const Program &P);
InstrumentedProgram instrumentSlimState(const Program &P);
InstrumentedProgram instrumentSlimCard(const Program &P);
InstrumentedProgram
instrumentBigFoot(const Program &P,
                  const PlacementOptions &Opts = PlacementOptions());

/// The six detector configurations by name, in the order of every table,
/// harness result and test grid: the paper's five tools, then DJIT+
/// (vector clocks everywhere, on FastTrack's placement) as an extra
/// baseline.
inline constexpr std::array<const char *, 6> kToolNames = {
    "fasttrack", "redcard", "slimstate", "slimcard", "bigfoot", "djit"};

/// Instruments \p P for the kToolNames entry \p Name; nullopt for any
/// other name.
std::optional<InstrumentedProgram> instrumentNamed(const Program &P,
                                                   std::string_view Name);

/// The paper's five tools: every kToolNames entry but DJIT+, in order.
std::vector<InstrumentedProgram> instrumentAll(const Program &P);

} // namespace bigfoot

#endif // BIGFOOT_INSTRUMENT_INSTRUMENTERS_H
