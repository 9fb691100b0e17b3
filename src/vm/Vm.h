//===- Vm.h - The BFJ virtual machine ---------------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic multithreaded interpreter for (instrumented) BFJ
/// programs — the stand-in for RoadRunner + the JVM. Threads are
/// interleaved by a seeded round-robin scheduler with randomized quanta;
/// the same seed always yields the same schedule, which the differential
/// and oracle tests rely on.
///
/// Execution is decoupled from detection by a typed event stream
/// (src/events): every detector-visible action becomes a POD Event
/// appended to a ring buffer and dispatched in batches to the run's
/// DetectionPipeline, which attaches two consumers:
///  * the attached RaceDetector (optional) receives synchronization events
///    and the check(C) statements the instrumenter placed — this models a
///    detector seeing only its own instrumentation;
///  * an optional ground-truth detector receives *every* heap access,
///    providing the oracle that precision tests compare against.
/// A VmOptions::RecordSink (e.g. a TraceWriter) taps the same stream for
/// record/replay; detectors never feed back into execution, so a replayed
/// stream is behaviorally identical to the online run.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_VM_VM_H
#define BIGFOOT_VM_VM_H

#include "bfj/Program.h"
#include "events/DetectionPipeline.h"
#include "support/Rng.h"

#include <memory>
#include <string>
#include <vector>

namespace bigfoot {

/// Scheduler and feature knobs for one run.
struct VmOptions {
  uint64_t Seed = 1;
  /// Maximum statements per scheduling quantum (actual quantum is
  /// 1 + seeded-random % Quantum). Must be at least 1: a run with 0 fails
  /// (Ok = false) before it schedules anything.
  unsigned Quantum = 24;
  /// Attach the per-access ground-truth FastTrack oracle.
  bool EnableGroundTruth = false;
  /// Abort runaway programs.
  uint64_t MaxSteps = 200u * 1000 * 1000;
  /// Commit each thread's deferred footprints every N statements
  /// (0 = only at synchronization). The Section 3.3 extension for loops
  /// that might not terminate.
  uint64_t CommitIntervalSteps = 0;
  /// Events per batch flushed from the VM's ring to its consumers
  /// (1 = per-event dispatch, the differential reference mode).
  size_t EventBatch = kDefaultEventBatch;
  /// Extra event-stream consumer (e.g. a TraceWriter) receiving the same
  /// batches as the attached detectors. With a sink but no detector the
  /// VM still executes placed checks (evaluating their bounds) so that a
  /// recording run is behaviorally identical to a detector-attached run.
  EventSink *RecordSink = nullptr;
  /// Threads that apply the tool detector (DetectionOptions::Lanes):
  /// 0 = inline on the VM thread; N >= 1 = N detector threads reading one
  /// bounded batch ring, each owning a partition of the objects and
  /// applying every sync edge (DESIGN.md Sec. 10 and 12).
  /// Reports and counters are byte-identical for every count.
  size_t DetectShards = 0;
  /// Another spelling of DetectShards = 1, used only when DetectShards
  /// is 0. Kept for detbench, whose async leg sets it.
  bool AsyncDetect = false;
  /// Lane ring depth in batches (clamped to >= 2). The tests set it
  /// to 2 or 4 so that lane rings fill and backpressure fires at Test
  /// scale.
  size_t AsyncRingBatches = kDefaultAsyncRingBatches;
};

/// Everything a run produces: the detection result every run shares,
/// plus what only live execution has.
struct VmResult : RunResult {
  /// Wall-clock seconds for execution (always set): with lanes the
  /// producer's time — setup through drain start — including any
  /// backpressure stalls; inline, execution and detection combined.
  double VmSeconds = 0.0;
};

/// Runs \p Prog to completion under \p Opts, with \p Tool attached (may be
/// a null config name "none" via runProgramBase).
VmResult runProgram(const Program &Prog, const DetectorConfig &Tool,
                    const VmOptions &Opts = VmOptions());

/// Runs without any detector attached (the "base time" configuration).
VmResult runProgramBase(const Program &Prog,
                        const VmOptions &Opts = VmOptions());

} // namespace bigfoot

#endif // BIGFOOT_VM_VM_H
