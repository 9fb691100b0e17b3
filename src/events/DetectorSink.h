//===- DetectorSink.h - Applying event batches to detectors -----*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis end of the event stream: drains batches into one or two
/// RaceDetectors (the attached tool and the optional per-access
/// ground-truth oracle) with one RaceDetector::applyBatch call each, so
/// the event tag dispatch runs once per event inside one call per batch
/// and detector caches (per-thread slot caches, the HB epoch cache) stay
/// hot across the whole batch instead of being interleaved with
/// interpreter state. The two detectors share no state, so draining the
/// batch into one and then the other reports what interleaving them did.
/// A lane's tool detector of two or more (RaceDetector::partitioned())
/// takes the batch through applyOwned instead.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_DETECTORSINK_H
#define BIGFOOT_EVENTS_DETECTORSINK_H

#include "events/EventSink.h"
#include "runtime/Detector.h"

namespace bigfoot {

/// Batch consumer feeding the tool and/or oracle detector. Either pointer
/// may be null; events are routed by their target mask.
class DetectorSink final : public EventSink {
public:
  DetectorSink() = default;
  DetectorSink(RaceDetector *Tool, RaceDetector *Oracle)
      : Tool(Tool), Oracle(Oracle) {}

  void bind(RaceDetector *T, RaceDetector *O) {
    Tool = T;
    Oracle = O;
  }

  bool empty() const { return !Tool && !Oracle; }

  /// Events applied to the tool detector so far (on a partitioned lane,
  /// the sync and lifecycle events plus its own checks and allocations).
  uint64_t toolEvents() const { return ToolEvents; }

  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override {
    if (Tool)
      ToolEvents += Tool->partitioned()
                        ? Tool->applyOwned(Events, N, Payload)
                        : Tool->applyBatch(Events, N, Payload, kTargetTool);
    if (Oracle)
      Oracle->applyBatch(Events, N, Payload, kTargetOracle);
  }

private:
  RaceDetector *Tool = nullptr;
  RaceDetector *Oracle = nullptr;
  uint64_t ToolEvents = 0;
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_DETECTORSINK_H
