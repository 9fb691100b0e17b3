//===- EventStreamEquivalenceTest.cpp - Dispatch-mode differential -----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Golden differential for the execution/detection decoupling: every way a
// detector can consume the event stream — per-event dispatch (ring
// capacity 1), batched dispatch (the default ring), one detector lane,
// N lanes that each own a partition of the objects, and offline replay
// of a recorded trace, also under another config that shares the
// recording's placement — must produce byte-identical results. Coverage grid matches the
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

#include <map>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

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

/// Counts what each lane applies when a run's tool detector runs on N
/// lanes, for each lane count asked for: every tool sync and lifecycle
/// event, plus the tool's checks and allocations on the objects laneOf
/// gives the lane.
struct LaneEventCounter final : EventSink {
  std::map<size_t, std::vector<uint64_t>> PerLane; ///< By lane count.
  uint64_t Sync = 0;    ///< Tool sync and lifecycle events.
  uint64_t Located = 0; ///< Tool checks and allocations.

  explicit LaneEventCounter(std::initializer_list<size_t> LaneCounts) {
    for (size_t N : LaneCounts)
      PerLane[N].assign(N, 0);
  }

  void consumeBatch(const Event *Batch, size_t N, const uint32_t *) override {
    for (size_t I = 0; I < N; ++I) {
      const Event &E = Batch[I];
      if (!(E.Target & kTargetTool))
        continue;
      bool IsLocated = E.Kind == EventKind::FieldCheck ||
                       E.Kind == EventKind::ArrayCheck ||
                       E.Kind == EventKind::ArrayAlloc;
      ++(IsLocated ? Located : Sync);
      for (auto &[Lanes, Counts] : PerLane) {
        if (IsLocated)
          ++Counts[laneOf(E.Obj, Lanes)];
        else
          for (uint64_t &C : Counts)
            ++C;
      }
    }
  }
};

/// Each lane of \p R applied exactly the events \p Want names.
void expectLaneEvents(const std::string &Tag, const RunResult &R,
                      const std::vector<uint64_t> &Want) {
  ASSERT_EQ(R.ShardLanes.size(), Want.size()) << Tag;
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(R.ShardLanes[I].Events, Want[I]) << Tag << " lane " << I;
}

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
  // Configs that share the placement of an earlier kToolNames entry, and
  // that entry.
  const std::map<std::string, std::string> SharesPlacementOf = {
      {"slimstate", "fasttrack"}, {"slimcard", "redcard"},
      {"djit", "fasttrack"}};
  for (const Workload &W : Suite) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    std::map<std::string, std::vector<uint8_t>> Traces; // Each run's, by Tag.
    for (const char *Name : kToolNames) {
      InstrumentedProgram IP = *instrumentNamed(*PR.Prog, Name);
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        std::string Seeded = "/seed" + std::to_string(Seed);
        std::string Tag = W.Name + "/" + Name + Seeded;

        VmOptions Opts;
        Opts.Seed = Seed;
        Opts.EnableGroundTruth = true;

        // Reference: per-event dispatch — ring capacity 1 flushes every
        // event straight through, the moral equivalent of the old direct
        // virtual call per event.
        Opts.EventBatch = 1;
        VmResult Inline = runProgram(*IP.Prog, IP.Tool, Opts);

        // Batched dispatch (the default), with a trace writer teeing off
        // the same stream the detectors consume, and the lane tallies
        // the lane runs below must reproduce.
        TraceWriter Writer(IP.Prog->symbols(), IP.Tool);
        LaneEventCounter LaneEvents({1, 2, 3});
        TeeSink Record;
        Record.add(&Writer);
        Record.add(&LaneEvents);
        Opts.EventBatch = kDefaultEventBatch;
        Opts.RecordSink = &Record;
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
        expectLaneEvents(Tag + " lanes1", OneLane, LaneEvents.PerLane[1]);

        // Two lanes (DESIGN.md Sec. 12): each applies every sync edge and
        // its own partition's checks, and the merge restores the inline
        // result. Two lanes at Test scale exercise the partition, the
        // first-touch rule and the merge on every cell of the grid.
        VmOptions ShardOpts;
        ShardOpts.Seed = Seed;
        ShardOpts.EnableGroundTruth = true;
        ShardOpts.DetectShards = 2;
        ShardOpts.EventBatch = 64;
        ShardOpts.AsyncRingBatches = 4;
        VmResult Sharded = runProgram(*IP.Prog, IP.Tool, ShardOpts);
        expectSameRun(Tag + " inline-vs-sharded2", Inline, Sharded);
        expectLaneEvents(Tag + " lanes2", Sharded, LaneEvents.PerLane[2]);

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

        // Replay on lanes: the lane count is a replay knob, and any
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
        expectLaneEvents(Tag + " replay-lanes3", RepSharded,
                         LaneEvents.PerLane[3]);

        // Cross-config replay: the trace of the config whose placement
        // this one shares, replayed under this config, must reproduce
        // this config's own run.
        Traces[Tag] = Writer.buffer();
        auto Shared = SharesPlacementOf.find(Name);
        if (Shared == SharesPlacementOf.end())
          continue;
        const std::vector<uint8_t> &Trace =
            Traces.at(W.Name + "/" + Shared->second + Seeded);
        TraceReader CrossReader;
        ASSERT_TRUE(CrossReader.open(Trace.data(), Trace.size()))
            << Tag << ": " << CrossReader.error();
        ReplayOptions CrossRO;
        CrossRO.EnableGroundTruth = true;
        expectReplayMatches(Tag + " batched-vs-replay-of-" + Shared->second,
                            Batched,
                            replayTrace(CrossReader, IP.Tool, CrossRO));
      }
    }
  }
}

// Deterministic race-report merging: seeded racy workloads put races on
// locations that hash to different lanes, and every lane count —
// including repeated runs of the same count — must produce reports and
// counters byte-identical to the inline path. The deferred-array
// configs matter most here: their races surface while one sync edge
// commits footprints in several lanes at once, which is exactly the
// cross-lane ordering the RaceOrder merge keys exist for. One lane is
// the plain detector on one thread and owns every object.
TEST(EventStreamEquivalence, ShardedMergeDeterministicAcrossShardCounts) {
  const size_t ShardCounts[] = {1, 2, 4, 8};
  for (const Workload &W : racyVariants()) {
    ParseResult PR = parseProgram(W.Source);
    ASSERT_TRUE(PR.ok()) << W.Name << ": " << PR.Error;
    for (const char *Name : kToolNames) {
      InstrumentedProgram IP = *instrumentNamed(*PR.Prog, Name);
      std::string Tag = W.Name + "/" + Name + "/sharded-merge";

      VmOptions Opts;
      Opts.Seed = 2;
      Opts.EnableGroundTruth = true;
      LaneEventCounter LaneEvents({1, 2, 4, 8});
      Opts.RecordSink = &LaneEvents;
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
        // One lane applies every tool event; each of N >= 2 applies every
        // sync and lifecycle event plus its own partition's checks and
        // allocations.
        expectLaneEvents(Tag + " lanes" + std::to_string(Shards), A,
                         LaneEvents.PerLane[Shards]);

        // Run-to-run determinism at the same count: the merge may not
        // depend on worker scheduling.
        VmResult B = runProgram(*IP.Prog, IP.Tool, SO);
        expectSameRun(Tag + " rerun-shards" + std::to_string(Shards), A, B);
      }
    }
  }
}

// Lock-heavy leg of the differential grid: a synthetic lock-churn
// program where sync edges rival checks by design — three workers
// ping-ponging over two locks and a volatile flag between barrier
// phases. Every lane applies every one of those edges, so every dispatch
// mode must agree byte-for-byte with each lane's tally exactly the sync
// edges plus its own partition.
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
  for (const char *Name : kToolNames) {
    InstrumentedProgram IP = *instrumentNamed(*PR.Prog, Name);
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      std::string Tag =
          "lock_churn/" + std::string(Name) + "/seed" + std::to_string(Seed);

      VmOptions Opts;
      Opts.Seed = Seed;
      Opts.EnableGroundTruth = true;
      Opts.EventBatch = 1;
      LaneEventCounter LaneEvents({2, 4});
      Opts.RecordSink = &LaneEvents;
      VmResult Inline = runProgram(*IP.Prog, IP.Tool, Opts);
      // Lock churn means the stream is mostly sync edges: the lanes'
      // shared part must actually be exercised, heavily.
      EXPECT_GT(LaneEvents.Sync, LaneEvents.Located / 4) << Tag;

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
        expectLaneEvents(STag, Sharded, LaneEvents.PerLane[Shards]);
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
    InstrumentedProgram IP = instrumentBigFoot(*PR.Prog);
    std::string Tag = W.Name + "/bigfoot-record-only";

    VmOptions Opts;
    Opts.Seed = 1;
    VmResult Online = runProgram(*IP.Prog, IP.Tool, Opts);

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
