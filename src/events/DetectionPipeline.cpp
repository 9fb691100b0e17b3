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
  DetectorConfig OracleCfg = fastTrackConfig();
  OracleCfg.CheckFilter = O.CheckFilter;
  if (ToolCfg && O.Lanes > 0) {
    // The lanes own their detector replicas and the oracle lane.
    DetectorConfig Cfg = *ToolCfg;
    Cfg.CheckFilter = O.CheckFilter;
    Lanes = std::make_unique<ShardedSink>(
        Cfg, O.Oracle ? &OracleCfg : nullptr, Symbols, O.Lanes, RingBatches);
    Tee.add(Lanes.get());
  } else {
    if (ToolCfg) {
      DetectorConfig Cfg = *ToolCfg;
      Cfg.CheckFilter = O.CheckFilter;
      Tool = std::make_unique<RaceDetector>(Cfg, ToolCounters, Symbols);
    }
    if (O.Oracle)
      Oracle = std::make_unique<RaceDetector>(OracleCfg, OracleCounters,
                                              Symbols);
    Detectors.bind(Tool.get(), Oracle.get());
    if (!Detectors.empty()) {
      if (O.Async) {
        Async = std::make_unique<AsyncSink>(Detectors, RingBatches);
        Tee.add(Async.get());
      } else {
        Tee.add(&Detectors);
      }
    }
  }
  Tee.add(Record); // add() ignores null.
  if (Tee.size())
    Head = Tee.sole() ? Tee.sole() : &Tee;
}

DetectionPipeline::~DetectionPipeline() = default;

void DetectionPipeline::finish(RunResult &R) {
  if (Lanes) {
    Lanes->drain();
    Lanes->finish(R);
    return;
  }
  if (Async) {
    Async->drain();
    R.DetectorSeconds = Async->detectorSeconds();
    R.AsyncBatches = Async->batchesConsumed();
    R.AsyncStalls = Async->producerStalls();
  }
  if (Tool) {
    Tool->sampleMemoryNow();
    R.ToolRaces = Tool->races();
    R.ToolRacyLocations = Tool->racyLocationKeys();
    R.FilterEnabled = Tool->filterEnabled();
    R.Filter = Tool->filterStats();
    R.FilterTableBytes = Tool->filterTableBytes();
    // Final values only, so gauges merge exactly too.
    for (const auto &[Name, Value] : ToolCounters.all())
      R.Counters.bump(Name, Value);
  }
  if (Oracle) {
    R.GroundTruthRaces = Oracle->races();
    R.GroundTruthRacyLocations = Oracle->racyLocationKeys();
  }
}
