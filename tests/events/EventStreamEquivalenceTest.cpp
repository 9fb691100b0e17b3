//===- EventStreamEquivalenceTest.cpp - Dispatch-mode differential -----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Golden differential for the execution/detection decoupling: every way a
// detector can consume the event stream — per-event dispatch (ring
// capacity 1), batched dispatch (the default ring), one detector lane,
// N location-partitioned lanes, and offline replay of a recorded trace —
// must produce byte-identical results. Coverage grid matches the
// interning golden test: every workload (standard suite at Test scale
// plus the racy variants) × all six detector configurations × three
// scheduler seeds, with the ground-truth oracle attached so
// oracle-targeted events are exercised too.
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "events/EventSink.h"
#include "events/Replay.h"
#include "events/TraceCodec.h"
#include "instrument/Instrumenters.h"
#include "runtime/Detector.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace bigfoot;

namespace {

/// The six configurations the paper's Figure 2 table evaluates, mirroring
/// harness/Experiment.cpp.
std::vector<InstrumentedProgram> allSixConfigs(const Program &P) {
  std::vector<InstrumentedProgram> All;
  All.push_back(instrumentFastTrack(P));
  All.push_back(instrumentRedCard(P));
  All.push_back(instrumentSlimState(P));
  All.push_back(instrumentSlimCard(P));
  All.push_back(instrumentBigFoot(P));
  InstrumentedProgram Djit = instrumentFastTrack(P);
  Djit.Tool = djitConfig();
  All.push_back(std::move(Djit));
  return All;
}

void expectSameRun(const std::string &Tag, const VmResult &A,
                   const VmResult &B) {
  EXPECT_EQ(A.Ok, B.Ok) << Tag;
  EXPECT_EQ(A.Error, B.Error) << Tag;
  EXPECT_EQ(A.Output, B.Output) << Tag;
  EXPECT_EQ(A.StatementsExecuted, B.StatementsExecuted) << Tag;
  EXPECT_EQ(A.Counters.all(), B.Counters.all()) << Tag;
  EXPECT_EQ(A.ToolRacyLocations, B.ToolRacyLocations) << Tag;
  EXPECT_EQ(A.GroundTruthRacyLocations, B.GroundTruthRacyLocations) << Tag;
  ASSERT_EQ(A.ToolRaces.size(), B.ToolRaces.size()) << Tag;
  for (size_t I = 0; I < A.ToolRaces.size(); ++I)
    EXPECT_EQ(A.ToolRaces[I].str(), B.ToolRaces[I].str())
        << Tag << " race " << I;
  ASSERT_EQ(A.GroundTruthRaces.size(), B.GroundTruthRaces.size()) << Tag;
  for (size_t I = 0; I < A.GroundTruthRaces.size(); ++I)
    EXPECT_EQ(A.GroundTruthRaces[I].str(), B.GroundTruthRaces[I].str())
        << Tag << " oracle race " << I;
}

/// Counts the events a run sends to its tool detector.
struct ToolEventCounter final : EventSink {
  uint64_t Events = 0;
  void consumeBatch(const Event *Batch, size_t N, const uint32_t *) override {
    for (size_t I = 0; I < N; ++I)
      Events += (Batch[I].Target & kTargetTool) != 0;
  }
};

void expectReplayMatches(const std::string &Tag, const VmResult &Run,
                         const ReplayResult &Rep) {
  EXPECT_EQ(Run.Ok, Rep.Ok) << Tag;
  EXPECT_EQ(Run.Error, Rep.Error) << Tag;
  EXPECT_EQ(Run.Output, Rep.Output) << Tag;
  EXPECT_EQ(Run.StatementsExecuted, Rep.StatementsExecuted) << Tag;
  EXPECT_EQ(Run.Counters.all(), Rep.Counters.all()) << Tag;
  EXPECT_EQ(Run.ToolRacyLocations, Rep.ToolRacyLocations) << Tag;
  EXPECT_EQ(Run.GroundTruthRacyLocations, Rep.GroundTruthRacyLocations)
      << Tag;
  ASSERT_EQ(Run.ToolRaces.size(), Rep.ToolRaces.size()) << Tag;
  for (size_t I = 0; I < Run.ToolRaces.size(); ++I)
    EXPECT_EQ(Run.ToolRaces[I].str(), Rep.ToolRaces[I].str())
        << Tag << " race " << I;
  ASSERT_EQ(Run.GroundTruthRaces.size(), Rep.GroundTruthRaces.size()) << Tag;
  for (size_t I = 0; I < Run.GroundTruthRaces.size(); ++I)
    EXPECT_EQ(Run.GroundTruthRaces[I].str(), Rep.GroundTruthRaces[I].str())
        << Tag << " oracle race " << I;
}

TEST(EventStreamEquivalence, DispatchModesAgreeEverywhere) {
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  for (Workload &W : racyVariants())
    Suite.push_back(std::move(W));
  for (const Workload &W : Suite) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    PR.Prog->internSymbols(); // The trace header needs the symbol table.
    std::vector<InstrumentedProgram> Configs = allSixConfigs(*PR.Prog);
    for (const InstrumentedProgram &IP : Configs) {
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        std::string Tag =
            W.Name + "/" + IP.Tool.Name + "/seed" + std::to_string(Seed);

        VmOptions Opts;
        Opts.Seed = Seed;
        Opts.EnableGroundTruth = true;

        // Reference: per-event dispatch — ring capacity 1 flushes every
        // event straight through, the moral equivalent of the old direct
        // virtual call per event.
        Opts.EventBatch = 1;
        VmResult Inline = runProgram(*IP.Prog, IP.Tool, Opts);

        // Batched dispatch (the default), with a trace writer teeing off
        // the same stream the detectors consume.
        IP.Prog->internSymbols();
        TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
        Opts.EventBatch = kDefaultEventBatch;
        Opts.RecordSink = &Writer;
        VmResult Batched = runProgram(*IP.Prog, IP.Tool, Opts);
        Writer.finish(summaryOf(Batched));

        expectSameRun(Tag + " inline-vs-batched", Inline, Batched);

        // One lane: the same stream applied on a dedicated detector
        // thread behind the batch ring. Small batches and a shallow ring
        // so backpressure actually fires at Test scale.
        VmOptions OneLaneOpts;
        OneLaneOpts.Seed = Seed;
        OneLaneOpts.EnableGroundTruth = true;
        OneLaneOpts.DetectShards = 1;
        OneLaneOpts.EventBatch = 64;
        OneLaneOpts.AsyncRingBatches = 4;
        VmResult OneLane = runProgram(*IP.Prog, IP.Tool, OneLaneOpts);
        expectSameRun(Tag + " inline-vs-lanes1", Inline, OneLane);

        // Sharded detection (DESIGN.md Sec. 12): the same stream fanned
        // out to location-partitioned detector workers, merged back.
        // Two shards at Test scale exercises routing, sync markers, and
        // the merge on every cell of the grid.
        VmOptions ShardOpts;
        ShardOpts.Seed = Seed;
        ShardOpts.EnableGroundTruth = true;
        ShardOpts.DetectShards = 2;
        ShardOpts.EventBatch = 64;
        ShardOpts.AsyncRingBatches = 4;
        VmResult Sharded = runProgram(*IP.Prog, IP.Tool, ShardOpts);
        expectSameRun(Tag + " inline-vs-sharded2", Inline, Sharded);
        EXPECT_EQ(Sharded.ShardOrderViolations, 0u) << Tag;
        // Sync edges apply once to the shared SyncClockTable (DESIGN.md
        // Sec. 13): each lane sees one horizon marker per sync edge.
        EXPECT_EQ(Sharded.ShardHorizonAdvances,
                  Sharded.ShardBroadcastEvents * 2)
            << Tag;

        // Offline replay of the recorded trace, batched...
        ReplayOptions RO;
        RO.EnableGroundTruth = true;
        TraceReader Reader;
        ASSERT_TRUE(
            Reader.open(Writer.buffer().data(), Writer.buffer().size()))
            << Tag << ": " << Reader.error();
        ReplayResult Rep = replayTrace(Reader, Reader.config(), RO);
        expectReplayMatches(Tag + " batched-vs-replay", Batched, Rep);

        // ...and per-event, which must agree with the batched replay.
        TraceReader PerEvent;
        ASSERT_TRUE(
            PerEvent.open(Writer.buffer().data(), Writer.buffer().size()))
            << Tag << ": " << PerEvent.error();
        RO.Batch = 1;
        ReplayResult Rep1 = replayTrace(PerEvent, PerEvent.config(), RO);
        EXPECT_EQ(Rep.Counters.all(), Rep1.Counters.all()) << Tag;
        EXPECT_EQ(Rep.ToolRacyLocations, Rep1.ToolRacyLocations) << Tag;
        EXPECT_EQ(Rep.EventsReplayed, Rep1.EventsReplayed) << Tag;

        // Sharded replay: the shard count is a replay knob, and any
        // count must replay the trace byte-identically.
        TraceReader ShardReader;
        ASSERT_TRUE(ShardReader.open(Writer.buffer().data(),
                                     Writer.buffer().size()))
            << Tag << ": " << ShardReader.error();
        ReplayOptions ShardRO;
        ShardRO.EnableGroundTruth = true;
        ShardRO.DetectShards = 3;
        ReplayResult RepSharded =
            replayTrace(ShardReader, ShardReader.config(), ShardRO);
        expectReplayMatches(Tag + " batched-vs-sharded-replay", Batched,
                            RepSharded);
        EXPECT_EQ(RepSharded.ShardOrderViolations, 0u) << Tag;
      }
    }
  }
}

// Deterministic race-report merging: seeded racy workloads put races on
// locations that hash to different shards, and every lane count —
// including repeated runs of the same count — must produce reports and
// counters byte-identical to the inline path. The deferred-array
// configs matter most here: their races surface while one sync edge's
// markers commit footprints in several shards at once, which is exactly
// the cross-shard ordering the RaceOrder merge keys exist for. One lane
// is the plain detector on one thread: no routing, markers or sync
// table.
TEST(EventStreamEquivalence, ShardedMergeDeterministicAcrossShardCounts) {
  const size_t ShardCounts[] = {1, 2, 4, 8};
  for (const Workload &W : racyVariants()) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    PR.Prog->internSymbols();
    for (const InstrumentedProgram &IP : allSixConfigs(*PR.Prog)) {
      std::string Tag = W.Name + "/" + IP.Tool.Name + "/sharded-merge";

      VmOptions Opts;
      Opts.Seed = 2;
      Opts.EnableGroundTruth = true;
      ToolEventCounter ToolEvents;
      Opts.RecordSink = &ToolEvents;
      VmResult Sync = runProgram(*IP.Prog, IP.Tool, Opts); // Shards = 0.
      Opts.RecordSink = nullptr;

      for (size_t Shards : ShardCounts) {
        VmOptions SO = Opts;
        SO.DetectShards = Shards;
        SO.EventBatch = 32;   // Small batches: publication churn.
        SO.AsyncRingBatches = 2; // Shallow rings: backpressure fires.
        VmResult A = runProgram(*IP.Prog, IP.Tool, SO);
        expectSameRun(Tag + " inline-vs-shards" + std::to_string(Shards),
                      Sync, A);
        EXPECT_EQ(A.ShardOrderViolations, 0u) << Tag;
        ASSERT_EQ(A.ShardLanes.size(), Shards) << Tag;
        if (Shards == 1) {
          // The one lane applies every tool event itself and ships no
          // clocks.
          EXPECT_EQ(A.ShardLanes[0].Events, ToolEvents.Events) << Tag;
          EXPECT_EQ(A.ShardSyncPublishes, 0u) << Tag;
          EXPECT_EQ(A.ShardSyncTableBytes, 0u) << Tag;
        } else {
          // One horizon marker per lane per sync edge, and lane event
          // tallies are exactly the routed partition.
          EXPECT_EQ(A.ShardHorizonAdvances, A.ShardBroadcastEvents * Shards)
              << Tag;
          EXPECT_EQ(A.ShardRoutedEvents + A.ShardBroadcastEvents,
                    ToolEvents.Events)
              << Tag;
          uint64_t LaneEvents = 0, LaneMarkers = 0;
          for (const ShardLaneStats &L : A.ShardLanes) {
            LaneEvents += L.Events;
            LaneMarkers += L.Markers;
          }
          EXPECT_EQ(LaneEvents, A.ShardRoutedEvents) << Tag;
          EXPECT_EQ(LaneMarkers, A.ShardHorizonAdvances) << Tag;
        }

        // Run-to-run determinism at the same count: the merge may not
        // depend on worker scheduling.
        VmResult B = runProgram(*IP.Prog, IP.Tool, SO);
        expectSameRun(Tag + " rerun-shards" + std::to_string(Shards), A, B);
      }
    }
  }
}

// Lock-heavy leg of the differential grid: a synthetic lock-churn
// program where sync edges outnumber checks by design — three workers
// ping-ponging over two locks and a volatile flag between barrier
// phases. This is the workload shape the shared sync-clock table exists
// for, so every dispatch mode must agree byte-for-byte, and the marker
// path must carry essentially all of the traffic.
TEST(EventStreamEquivalence, LockChurnAgreesAcrossModesAndSyncState) {
  const char *Source = R"(
class Shared {
  fields a, b;
  volatile fields turn;
}
class Churn {
  fields sum;
  method spin(sh, la, lb, bar, rounds, id) {
    total = 0;
    r = 0;
    while (r < rounds) {
      acq(la);
      x = sh.a;
      sh.a = x + id;
      rel(la);
      acq(lb);
      y = sh.b;
      sh.b = y + x;
      rel(lb);
      sh.turn = r * 3 + id;
      t = sh.turn;
      total = total + t;
      await bar;
      r = r + 1;
    }
    this.sum = total;
  }
}
thread {
  sh = new Shared;
  la = new Shared;
  lb = new Shared;
  bar = new_barrier(3);
  c1 = new Churn;
  c2 = new Churn;
  c3 = new Churn;
  rounds = 12;
  fork t1 = c1.spin(sh, la, lb, bar, rounds, 1);
  fork t2 = c2.spin(sh, la, lb, bar, rounds, 2);
  fork t3 = c3.spin(sh, la, lb, bar, rounds, 3);
  join t1;
  join t2;
  join t3;
  s = c1.sum;
  assert s > 0;
}
)";
  ParseResult PR = parseProgram(Source);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  PR.Prog->internSymbols();
  for (const InstrumentedProgram &IP : allSixConfigs(*PR.Prog)) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      std::string Tag =
          "lock_churn/" + IP.Tool.Name + "/seed" + std::to_string(Seed);

      VmOptions Opts;
      Opts.Seed = Seed;
      Opts.EnableGroundTruth = true;
      Opts.EventBatch = 1;
      VmResult Inline = runProgram(*IP.Prog, IP.Tool, Opts);

      VmOptions OneLaneOpts;
      OneLaneOpts.Seed = Seed;
      OneLaneOpts.EnableGroundTruth = true;
      OneLaneOpts.DetectShards = 1;
      OneLaneOpts.EventBatch = 32;
      OneLaneOpts.AsyncRingBatches = 4;
      VmResult OneLane = runProgram(*IP.Prog, IP.Tool, OneLaneOpts);
      expectSameRun(Tag + " inline-vs-lanes1", Inline, OneLane);

      for (size_t Shards : {size_t(2), size_t(4)}) {
        VmOptions SO;
        SO.Seed = Seed;
        SO.EnableGroundTruth = true;
        SO.DetectShards = Shards;
        SO.EventBatch = 32;
        SO.AsyncRingBatches = 2;
        VmResult Sharded = runProgram(*IP.Prog, IP.Tool, SO);
        std::string STag = Tag + "/shards" + std::to_string(Shards);
        expectSameRun(STag + " inline-vs-sharded", Inline, Sharded);
        EXPECT_EQ(Sharded.ShardOrderViolations, 0u) << STag;
        EXPECT_EQ(Sharded.ShardHorizonAdvances,
                  Sharded.ShardBroadcastEvents * Shards)
            << STag;
        // Lock churn means the stream is mostly sync edges: the marker
        // path must actually be exercised, heavily.
        EXPECT_GT(Sharded.ShardBroadcastEvents, Sharded.ShardRoutedEvents / 4)
            << STag;
        EXPECT_GT(Sharded.ShardSyncPublishes, 0u) << STag;
        EXPECT_GT(Sharded.ShardSyncTableBytes, 0u) << STag;
      }
    }
  }
}

// A base run (no tool) with the oracle attached under a lane count. Lanes
// run the tool and the oracle is always inline, so with no tool there is
// no lane at all; the oracle's reports and the run's counters must equal
// the plain inline oracle run's on every racy variant and seed.
TEST(EventStreamEquivalence, OracleOnlyBaseRunAgreesAcrossModes) {
  for (const Workload &W : racyVariants()) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      std::string Tag = W.Name + "/oracle-only/seed" + std::to_string(Seed);
      VmOptions Opts;
      Opts.Seed = Seed;
      Opts.EnableGroundTruth = true;
      VmResult Inline = runProgramBase(*PR.Prog, Opts);
      ASSERT_TRUE(Inline.Ok) << Tag << ": " << Inline.Error;
      EXPECT_FALSE(Inline.GroundTruthRaces.empty()) << Tag;

      VmOptions OneLaneOpts = Opts;
      OneLaneOpts.DetectShards = 1;
      OneLaneOpts.EventBatch = 32;
      OneLaneOpts.AsyncRingBatches = 2;
      VmOptions LaneOpts = Opts;
      LaneOpts.DetectShards = 2;
      LaneOpts.EventBatch = 32;
      for (const VmOptions &O : {OneLaneOpts, LaneOpts}) {
        std::string MTag = Tag + " lanes" + std::to_string(O.DetectShards);
        VmResult Run = runProgramBase(*PR.Prog, O);
        EXPECT_EQ(Run.Ok, Inline.Ok) << MTag;
        EXPECT_EQ(Run.Counters.all(), Inline.Counters.all()) << MTag;
        EXPECT_EQ(Run.GroundTruthRacyLocations,
                  Inline.GroundTruthRacyLocations)
            << MTag;
        ASSERT_EQ(Run.GroundTruthRaces.size(), Inline.GroundTruthRaces.size())
            << MTag;
        for (size_t I = 0; I < Run.GroundTruthRaces.size(); ++I)
          EXPECT_EQ(Run.GroundTruthRaces[I].str(),
                    Inline.GroundTruthRaces[I].str())
              << MTag << " oracle race " << I;
        EXPECT_TRUE(Run.ShardLanes.empty()) << MTag;
      }
    }
  }
}

// VmOptions::AsyncDetect is another spelling of DetectShards = 1 (detbench
// sets it): the same one lane and the same run. A lane count, when set,
// wins.
TEST(EventStreamEquivalence, AsyncDetectIsOneLane) {
  for (const Workload &W : racyVariants()) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    InstrumentedProgram IP = instrumentBigFoot(*PR.Prog);
    std::string Tag = W.Name + "/async-alias";
    VmOptions OneLane;
    OneLane.EnableGroundTruth = true;
    OneLane.DetectShards = 1;
    VmOptions Alias;
    Alias.EnableGroundTruth = true;
    Alias.AsyncDetect = true;
    VmResult A = runProgram(*IP.Prog, IP.Tool, OneLane);
    VmResult B = runProgram(*IP.Prog, IP.Tool, Alias);
    expectSameRun(Tag, A, B);
    ASSERT_EQ(A.ShardLanes.size(), 1u) << Tag;
    ASSERT_EQ(B.ShardLanes.size(), 1u) << Tag;
    EXPECT_EQ(B.ShardLanes[0].Events, A.ShardLanes[0].Events) << Tag;
    EXPECT_EQ(B.ShardSyncPublishes, 0u) << Tag;
    Alias.DetectShards = 2;
    EXPECT_EQ(runProgram(*IP.Prog, IP.Tool, Alias).ShardLanes.size(), 2u)
        << Tag;
  }
}

// A recording run with no detector attached (how the harness records: the
// placement's checks still execute, only consumption is deferred) must
// produce a trace whose replay matches the detector-attached execution.
TEST(EventStreamEquivalence, DetectorFreeRecordingReplaysIdentically) {
  std::vector<Workload> Suite = standardSuite(SuiteScale::Test);
  for (Workload &W : racyVariants())
    Suite.push_back(std::move(W));
  for (const Workload &W : Suite) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    PR.Prog->internSymbols();
    InstrumentedProgram IP = instrumentBigFoot(*PR.Prog);
    std::string Tag = W.Name + "/bigfoot-record-only";

    VmOptions Opts;
    Opts.Seed = 1;
    VmResult Online = runProgram(*IP.Prog, IP.Tool, Opts);

    IP.Prog->internSymbols();
    TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
    Opts.RecordSink = &Writer;
    VmResult Recorded = runProgramBase(*IP.Prog, Opts);
    Writer.finish(summaryOf(Recorded));

    // The recording run executes the same placed checks, so everything
    // except the detector-owned counters already matches.
    EXPECT_EQ(Online.Ok, Recorded.Ok) << Tag;
    EXPECT_EQ(Online.Output, Recorded.Output) << Tag;
    EXPECT_EQ(Online.StatementsExecuted, Recorded.StatementsExecuted) << Tag;

    ReplayResult Rep = replayTraceFile("/nonexistent");
    EXPECT_FALSE(Rep.Ok); // Sanity: bad path surfaces as a failed result.

    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Writer.buffer().data(), Writer.buffer().size()))
        << Tag << ": " << Reader.error();
    ReplayResult Replayed = replayTrace(Reader, Reader.config());
    EXPECT_EQ(Online.Ok, Replayed.Ok) << Tag;
    EXPECT_EQ(Online.Output, Replayed.Output) << Tag;
    EXPECT_EQ(Online.StatementsExecuted, Replayed.StatementsExecuted) << Tag;
    EXPECT_EQ(Online.Counters.all(), Replayed.Counters.all()) << Tag;
    EXPECT_EQ(Online.ToolRacyLocations, Replayed.ToolRacyLocations) << Tag;
    ASSERT_EQ(Online.ToolRaces.size(), Replayed.ToolRaces.size()) << Tag;
    for (size_t I = 0; I < Online.ToolRaces.size(); ++I)
      EXPECT_EQ(Online.ToolRaces[I].str(), Replayed.ToolRaces[I].str())
          << Tag << " race " << I;
  }
}

} // namespace
