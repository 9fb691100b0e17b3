//===- DetectionPipeline.cpp - Detectors on the event stream --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/DetectionPipeline.h"

#include "events/AsyncSink.h"

#include <algorithm>

using namespace bigfoot;

DetectionPipeline::DetectionPipeline(const DetectorConfig *ToolCfg,
                                     const SymbolTable *Symbols,
                                     const DetectionOptions &O,
                                     EventSink *Record) {
  size_t RingBatches = std::max<size_t>(2, O.RingBatches);
  if (ToolCfg) {
    if (O.Lanes >= 2) {
      // The lanes own their detector replicas.
      Lanes = std::make_unique<ShardedSink>(*ToolCfg, Symbols, O.Lanes,
                                            RingBatches);
      Tee.add(Lanes.get());
    } else {
      Tool = std::make_unique<RaceDetector>(*ToolCfg, ToolCounters, Symbols);
      if (O.Lanes == 1) {
        LaneTool.bind(Tool.get(), nullptr);
        OneLane = std::make_unique<AsyncSink>(LaneTool, RingBatches);
        Tee.add(OneLane.get());
      }
    }
  }
  if (O.Oracle)
    Oracle = std::make_unique<RaceDetector>(fastTrackConfig(),
                                            OracleCounters, Symbols);
  Inline.bind(OneLane ? nullptr : Tool.get(), Oracle.get());
  if (!Inline.empty())
    Tee.add(&Inline);
  Tee.add(Record); // add() ignores null.
  if (Tee.size())
    Head = Tee.sole() ? Tee.sole() : &Tee;
}

DetectionPipeline::~DetectionPipeline() = default;

void DetectionPipeline::finish(RunResult &R) {
  if (Lanes) {
    Lanes->drain();
    Lanes->finish(R);
  }
  if (OneLane) {
    OneLane->drain();
    ShardLaneStats L;
    L.Events = LaneTool.toolEvents();
    L.Batches = OneLane->batchesConsumed();
    L.Stalls = OneLane->producerStalls();
    L.BusyNs = OneLane->busyNs();
    R.ShardLanes.push_back(L);
    R.DetectorSeconds = L.BusyNs * 1e-9;
    R.AsyncBatches = L.Batches;
    R.AsyncStalls = L.Stalls;
  }
  if (Tool) {
    Tool->sampleMemoryNow();
    R.ToolRaces = Tool->races();
    R.ToolRacyLocations = Tool->racyLocationKeys();
    // Final values only, so gauges merge exactly too.
    for (const auto &[Name, Value] : ToolCounters.all())
      R.Counters.bump(Name, Value);
  }
  if (Oracle) {
    R.GroundTruthRaces = Oracle->races();
    R.GroundTruthRacyLocations = Oracle->racyLocationKeys();
  }
}
