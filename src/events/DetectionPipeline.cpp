//===- DetectionPipeline.cpp - Detectors on the event stream --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/DetectionPipeline.h"

#include "events/AsyncSink.h"
#include "support/ParseNumber.h"

#include <algorithm>

using namespace bigfoot;

std::optional<size_t> bigfoot::parseLaneCount(std::string_view Text) {
  size_t Lanes = 0;
  if (!parseNumber(Text, Lanes) || Lanes > kMaxLanes)
    return std::nullopt;
  return Lanes;
}

DetectionPipeline::Lane::Lane(const DetectorConfig &Tool,
                              const SymbolTable *Symbols, size_t Index,
                              size_t Lanes)
    : Detector(Tool, Counters, Symbols), Sink(&Detector, nullptr) {
  Detector.ownPartition(Index, Lanes);
  // The merge rebuilds the peak gauges from the lockstep sample logs, so
  // the lane's Stats stay summable.
  Detector.setMemorySampleLog(&Samples);
}

DetectionPipeline::DetectionPipeline(const DetectorConfig *ToolCfg,
                                     const SymbolTable *Symbols,
                                     const DetectionOptions &O,
                                     EventSink *Record) {
  if (ToolCfg) {
    if (O.Lanes == 0)
      Tool = std::make_unique<RaceDetector>(*ToolCfg, ToolCounters, Symbols);
    std::vector<EventSink *> Sinks;
    for (size_t I = 0; I < O.Lanes; ++I) {
      Lanes.push_back(std::make_unique<Lane>(*ToolCfg, Symbols, I, O.Lanes));
      Sinks.push_back(&Lanes.back()->Sink);
    }
    if (!Sinks.empty()) {
      LaneThreads = std::make_unique<AsyncSink>(Sinks, O.RingBatches);
      Tee.add(LaneThreads.get());
    }
  }
  if (O.Oracle)
    Oracle = std::make_unique<RaceDetector>(fastTrackConfig(),
                                            OracleCounters, Symbols);
  Inline.bind(Tool.get(), Oracle.get());
  if (!Inline.empty())
    Tee.add(&Inline);
  Tee.add(Record); // add() ignores null.
  if (Tee.size())
    Head = Tee.sole() ? Tee.sole() : &Tee;
}

DetectionPipeline::~DetectionPipeline() = default;

void DetectionPipeline::mergeLanes(RunResult &R) {
  // The run-end sample, in lockstep across lanes: after the drain every
  // lane has applied the whole stream.
  LaneThreads->drain();
  for (auto &L : Lanes)
    L->Detector.sampleMemoryNow();

  // Partitioned counters: every tool.* name is bumped in exactly one lane
  // per contributing event, so summing final values reproduces the inline
  // detector's map (0-valued names never appear, matching a detector that
  // never bumped them). The names are disjoint from the producer's vm.*
  // ones already in R.Counters.
  for (auto &L : Lanes)
    for (const auto &[Name, Value] : L->Counters.all())
      R.Counters.bump(Name, Value);

  // Peak gauges: recombine sample k across lanes — HB bytes are the same
  // in every lane (max is defensive), shadow bytes and locations are
  // partitioned sums — then take the max over k, exactly what one
  // detector's gaugeMax over the undivided census computes.
  size_t MaxSamples = 0;
  for (auto &L : Lanes)
    MaxSamples = std::max(MaxSamples, L->Samples.size());
  for (size_t K = 0; K < MaxSamples; ++K) {
    size_t Hb = 0, Partial = 0, Locs = 0;
    for (auto &L : Lanes) {
      if (K >= L->Samples.size())
        continue;
      const RaceDetector::MemorySample &S = L->Samples[K];
      Hb = std::max(Hb, S.HbBytes);
      Partial += S.PartialBytes;
      Locs += S.Locations;
    }
    R.Counters.gaugeMax("tool.peakShadowBytes", Hb + Partial);
    R.Counters.gaugeMax("tool.peakShadowLocations", Locs);
  }

  // Races: a stable sort on the RaceOrder keys reproduces the inline
  // report order (see RaceDetector::RaceOrder for why the sub-event
  // components break ties between lanes exactly).
  struct Tagged {
    RaceDetector::RaceOrder Key;
    size_t Lane;
    size_t Idx;
  };
  std::vector<Tagged> All;
  for (size_t I = 0; I < Lanes.size(); ++I) {
    const auto &Keys = Lanes[I]->Detector.raceOrder();
    for (size_t J = 0; J < Keys.size(); ++J)
      All.push_back({Keys[J], I, J});
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const Tagged &A, const Tagged &B) {
                     if (A.Key.EventSeq != B.Key.EventSeq)
                       return A.Key.EventSeq < B.Key.EventSeq;
                     if (A.Key.Party != B.Key.Party)
                       return A.Key.Party < B.Key.Party;
                     return A.Key.EntrySeq < B.Key.EntrySeq;
                   });
  for (const Tagged &T : All)
    R.ToolRaces.push_back(Lanes[T.Lane]->Detector.races()[T.Idx]);
  for (auto &L : Lanes) {
    std::set<std::string> Keys = L->Detector.racyLocationKeys();
    R.ToolRacyLocations.insert(Keys.begin(), Keys.end());
  }

  for (size_t I = 0; I < Lanes.size(); ++I) {
    ShardLaneStats LS;
    LS.Events = Lanes[I]->Sink.toolEvents();
    LS.Batches = LaneThreads->batchesConsumed();
    LS.Stalls = LaneThreads->producerStallsOn(I);
    LS.BusyNs = LaneThreads->busyNs(I);
    R.ShardLanes.push_back(LS);
    R.DetectorSeconds = std::max(R.DetectorSeconds, LS.BusyNs * 1e-9);
  }
  R.AsyncBatches = LaneThreads->batchesConsumed();
  R.AsyncStalls = LaneThreads->producerStalls();
}

void DetectionPipeline::finish(RunResult &R) {
  if (!Lanes.empty())
    mergeLanes(R);
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
