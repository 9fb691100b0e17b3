//===- TraceCodec.h - Binary event-trace record format ----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact binary codec for recorded event streams, so one execution
/// can be re-analyzed offline by any detector sharing its placement
/// (record once, replay many).
///
/// Layout (all integers LEB128 varints; signed values zigzag-encoded):
///
///   magic "BFT1"
///   0x01 SYMBOLS   count, then len+bytes per interned name — the
///                  recording program's symbol table, so replayed
///                  detectors resolve the same field ids and render
///                  byte-identical race reports.
///   0x02 CONFIG    the record-time DetectorConfig: name, feature flags,
///                  and the field → proxy-representative map (needed to
///                  rebuild sibling configs that share the placement).
///   0x03 EVENTS    the stream. Each event leads with one byte packing
///                  kind (low 6 bits) and target mask (high 2); fields
///                  follow per kind, with object ids and range begins
///                  delta-encoded against the previous event's. 0xFF
///                  terminates the section.
///   0x04 SUMMARY   the recording run's outcome: ok/error, print output,
///                  scheduler step count, and every non-detector counter
///                  (vm.*) — what replay needs to reconstitute a full
///                  result without re-executing.
///   0xFE END
///
/// The writer is an EventSink, so recording is just one more consumer on
/// the stream; the reader decodes events in batches sized for the same
/// dispatch loop the online path uses.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_EVENTS_TRACECODEC_H
#define BIGFOOT_EVENTS_TRACECODEC_H

#include "events/EventSink.h"
#include "runtime/Detector.h"
#include "support/Symbol.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bigfoot {

/// The recording run's outcome, stored in the trace's SUMMARY section.
struct TraceSummary {
  bool Ok = false;
  std::string Error;
  std::vector<std::string> Output;   ///< print statements, in order.
  uint64_t StatementsExecuted = 0;
  /// Every counter of the recording run that is not detector-owned (no
  /// "tool." prefix): vm.* access/sync/heap counters. Replay seeds its
  /// result with these, then the replayed detector adds its own tool.*.
  std::map<std::string, uint64_t> Counters;
};

struct RunResult;

/// What a recording run stores in its trace's SUMMARY section.
TraceSummary summaryOf(const RunResult &Run);

/// Encodes an event stream (plus header and summary) into a byte buffer.
/// Construct with the recording program's symbol table and the placement
/// config, attach as a sink (directly or via TeeSink), then call
/// finish() once the run completes.
class TraceWriter final : public EventSink {
public:
  TraceWriter(const SymbolTable &Symbols, const DetectorConfig &Config);

  void consumeBatch(const Event *Events, size_t N,
                    const uint32_t *Payload) override;

  /// Writes the summary section and the end marker. Call exactly once;
  /// no events may follow.
  void finish(const TraceSummary &Summary);

  /// The encoded trace (valid once finish() has run).
  const std::vector<uint8_t> &buffer() const { return Buf; }

  /// Writes buffer() to \p Path; returns false on I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  std::vector<uint8_t> Buf;
  bool Finished = false;
  // Delta state (mirrored by the reader).
  uint64_t LastObj = 0;
  int64_t LastBegin = 0;

  void putByte(uint8_t B) { Buf.push_back(B); }
  void putVar(uint64_t V);
  void putSVar(int64_t V);
  void putStr(const std::string &S);
  void putEvent(const Event &E, const uint32_t *Payload);
};

/// Decodes a trace produced by TraceWriter. open() parses the header
/// sections; nextBatch() then yields events until the stream ends, after
/// which the summary is available. All decode errors (truncation,
/// corruption, unknown tags) surface as ok() == false with a message —
/// never as a crash or an out-of-bounds read.
class TraceReader {
public:
  /// Parses the header from \p Data (not owned; must outlive the
  /// reader). Returns false — with error() set — on malformed input.
  bool open(const uint8_t *Data, size_t Size);

  /// Convenience: reads \p Path into an internal buffer and opens it.
  bool openFile(const std::string &Path);

  const SymbolTable &symbols() const { return Syms; }
  const DetectorConfig &config() const { return Config; }

  /// Decodes up to \p Max events into \p Out, with payload words
  /// appended to \p Payload (cleared first; indices are batch-relative).
  /// Returns 0 at end of stream or on error — check ok().
  size_t nextBatch(Event *Out, size_t Max, std::vector<uint32_t> &Payload);

  /// True once nextBatch has consumed the stream's terminator and the
  /// summary section parsed cleanly.
  bool summaryReady() const { return HaveSummary; }
  const TraceSummary &summary() const { return Summary; }

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  /// Total events decoded so far (diagnostics / `trace info`).
  uint64_t eventsDecoded() const { return NumEvents; }

private:
  std::vector<uint8_t> FileBuf; ///< Backing store for openFile.
  const uint8_t *Data = nullptr;
  size_t Size = 0;
  size_t Pos = 0;
  bool EventsDone = false;
  bool HaveSummary = false;
  uint64_t NumEvents = 0;

  SymbolTable Syms;
  DetectorConfig Config;
  TraceSummary Summary;
  std::string Err;
  // Delta state (mirrors the writer).
  uint64_t LastObj = 0;
  int64_t LastBegin = 0;

  bool fail(const std::string &Message);
  bool getByte(uint8_t &B);
  bool getVar(uint64_t &V);
  bool getSVar(int64_t &V);
  bool getStr(std::string &S);
  bool parseSections();
  bool parseSummarySection();
  /// Decodes one event; returns false on end-of-stream (terminator) or
  /// error (distinguish via ok()).
  bool getEvent(Event &E, std::vector<uint32_t> &Payload);
};

} // namespace bigfoot

#endif // BIGFOOT_EVENTS_TRACECODEC_H
