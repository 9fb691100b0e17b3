//===- TraceCodecTest.cpp - Round-trip fuzz for the trace codec --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Seeded-RNG round-trip fuzz: generate random event streams exercising
// every kind, maximum-width thread ids, field ids at the kLocFieldBits
// ceiling, full-range int64 array bounds (stride >= 1, as StridedRange
// requires), array lengths up to kMaxArrayLength, and random batch splits
// — then decode and demand exact field-for-field equality. Separately,
// every truncation prefix of a valid trace and a set of targeted
// corruptions must surface as decode errors, never as crashes, hangs, or
// out-of-bounds reads.
//
//===----------------------------------------------------------------------===//

#include "events/TraceCodec.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {

/// One generated event plus the payload words it owns (self-contained so
/// the expected stream survives re-batching on decode).
struct FuzzEvent {
  Event E;
  std::vector<uint32_t> Words;
};

using Rng = std::mt19937_64;

uint64_t pick(Rng &R, uint64_t Lo, uint64_t Hi) {
  return std::uniform_int_distribution<uint64_t>(Lo, Hi)(R);
}

FuzzEvent randomEvent(Rng &R, uint32_t NumSyms) {
  FuzzEvent F;
  Event &E = F.E;
  E.Kind = static_cast<EventKind>(pick(R, 0, kNumEventKinds - 1));
  E.Target = static_cast<uint8_t>(pick(R, 1, 3));
  E.Access = pick(R, 0, 1) ? AccessKind::Write : AccessKind::Read;
  // Max-width tids: the scheduler never exceeds 2^16-1 threads.
  E.Tid = static_cast<ThreadId>(pick(R, 0, 0xFFFF));
  // Object ids stay below the locKey ceiling (64 - kLocFieldBits bits);
  // only the kinds whose encoding carries one get a nonzero id, matching
  // what the VM's emission populates.
  auto randomObj = [&] {
    E.Obj = pick(R, 0, (uint64_t(1) << (64 - kLocFieldBits)) - 1);
  };

  switch (E.Kind) {
  case EventKind::FieldCheck: {
    randomObj();
    uint32_t N = static_cast<uint32_t>(pick(R, 1, 12));
    for (uint32_t I = 0; I < N; ++I)
      F.Words.push_back(static_cast<uint32_t>(pick(R, 0, NumSyms - 1)));
    break;
  }
  case EventKind::ArrayCheck: {
    randomObj();
    // Full-range bounds; deltas between consecutive events span the whole
    // signed domain, which is exactly what zigzag must survive.
    E.Begin = static_cast<int64_t>(pick(R, 0, UINT64_MAX) >> 2) *
              (pick(R, 0, 1) ? 1 : -1);
    E.End = E.Begin + static_cast<int64_t>(pick(R, 0, 1u << 20));
    E.Stride = static_cast<int64_t>(pick(R, 1, 1u << 16));
    break;
  }
  case EventKind::ArrayAlloc:
    randomObj();
    E.Tid = 0; // The codec does not record an allocating thread.
    E.Aux = pick(R, 0, kMaxArrayLength); // Longer ones fail to decode.
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    randomObj();
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    randomObj();
    // Field ids at the kLocFieldBits ceiling.
    E.Field = static_cast<FieldId>(pick(R, 0, kLocFieldMask));
    break;
  case EventKind::Fork:
  case EventKind::Join:
    E.Aux = pick(R, 0, 0xFFFF);
    break;
  case EventKind::Barrier: {
    E.Tid = 0; // Barriers are collective; no single acting thread.
    uint32_t N = static_cast<uint32_t>(pick(R, 0, 8));
    for (uint32_t I = 0; I < N; ++I)
      F.Words.push_back(static_cast<uint32_t>(pick(R, 0, 0xFFFF)));
    break;
  }
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    break;
  }
  return F;
}

/// Encodes \p Stream into a finished trace using random batch splits.
std::vector<uint8_t> encode(const std::vector<FuzzEvent> &Stream,
                            const SymbolTable &Syms,
                            const DetectorConfig &Cfg,
                            const TraceSummary &Summary, Rng &R) {
  TraceWriter Writer(Syms, Cfg);
  size_t I = 0;
  while (I < Stream.size()) {
    size_t N = std::min<size_t>(Stream.size() - I, pick(R, 1, 17));
    std::vector<Event> Batch;
    std::vector<uint32_t> Payload;
    for (size_t J = 0; J < N; ++J) {
      Event E = Stream[I + J].E;
      E.PayloadIndex = static_cast<uint32_t>(Payload.size());
      E.PayloadCount = static_cast<uint32_t>(Stream[I + J].Words.size());
      Payload.insert(Payload.end(), Stream[I + J].Words.begin(),
                     Stream[I + J].Words.end());
      Batch.push_back(E);
    }
    Writer.consumeBatch(Batch.data(), Batch.size(),
                        Payload.empty() ? nullptr : Payload.data());
    I += N;
  }
  Writer.finish(Summary);
  return Writer.buffer();
}

void expectEventEq(const Event &Got, const std::vector<uint32_t> &GotWords,
                   const FuzzEvent &Want, size_t Index) {
  std::string Tag = "event " + std::to_string(Index);
  ASSERT_EQ(Got.Kind, Want.E.Kind) << Tag;
  EXPECT_EQ(Got.Target, Want.E.Target) << Tag;
  EXPECT_EQ(Got.Tid, Want.E.Tid) << Tag;
  EXPECT_EQ(Got.Obj, Want.E.Obj) << Tag;
  switch (Want.E.Kind) {
  case EventKind::FieldCheck:
    EXPECT_EQ(Got.Access, Want.E.Access) << Tag;
    EXPECT_EQ(GotWords, Want.Words) << Tag;
    break;
  case EventKind::ArrayCheck:
    EXPECT_EQ(Got.Access, Want.E.Access) << Tag;
    EXPECT_EQ(Got.Begin, Want.E.Begin) << Tag;
    EXPECT_EQ(Got.End, Want.E.End) << Tag;
    EXPECT_EQ(Got.Stride, Want.E.Stride) << Tag;
    break;
  case EventKind::ArrayAlloc:
  case EventKind::Fork:
  case EventKind::Join:
    EXPECT_EQ(Got.Aux, Want.E.Aux) << Tag;
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    EXPECT_EQ(Got.Field, Want.E.Field) << Tag;
    break;
  case EventKind::Barrier:
    EXPECT_EQ(GotWords, Want.Words) << Tag;
    break;
  case EventKind::Acquire:
  case EventKind::Release:
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    break;
  }
}

SymbolTable fuzzSymbols(uint32_t N) {
  SymbolTable Syms;
  for (uint32_t I = 0; I < N; ++I)
    Syms.intern("field_" + std::to_string(I));
  return Syms;
}

DetectorConfig fuzzConfig() {
  DetectorConfig Cfg;
  Cfg.Name = "fuzz";
  Cfg.DeferArrayChecks = true;
  Cfg.AdaptiveArrayShadow = false;
  Cfg.VectorClocksOnly = true;
  Cfg.FieldProxy = {{"field_1", "field_0"}, {"field_2", "field_0"}};
  return Cfg;
}

TraceSummary fuzzSummary() {
  TraceSummary S;
  S.Ok = true;
  S.StatementsExecuted = 123456789;
  S.Output = {"hello", "", "line with spaces"};
  S.Counters = {{"vm.accesses", 42}, {"vm.steps", UINT64_MAX}};
  return S;
}

TEST(TraceCodec, RoundTripFuzz) {
  constexpr uint32_t kNumSyms = 64;
  SymbolTable Syms = fuzzSymbols(kNumSyms);
  DetectorConfig Cfg = fuzzConfig();
  TraceSummary Summary = fuzzSummary();

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    size_t Len = static_cast<size_t>(pick(R, 0, 400));
    std::vector<FuzzEvent> Stream;
    for (size_t I = 0; I < Len; ++I)
      Stream.push_back(randomEvent(R, kNumSyms));

    std::vector<uint8_t> Buf = encode(Stream, Syms, Cfg, Summary, R);

    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Buf.data(), Buf.size()))
        << "seed " << Seed << ": " << Reader.error();

    // Header round-trip.
    ASSERT_EQ(Reader.symbols().size(), Syms.size()) << "seed " << Seed;
    for (SymId Id = 0; Id < Syms.size(); ++Id)
      EXPECT_EQ(Reader.symbols().name(Id), Syms.name(Id));
    EXPECT_EQ(Reader.config().Name, Cfg.Name);
    EXPECT_EQ(Reader.config().DeferArrayChecks, Cfg.DeferArrayChecks);
    EXPECT_EQ(Reader.config().AdaptiveArrayShadow, Cfg.AdaptiveArrayShadow);
    EXPECT_EQ(Reader.config().VectorClocksOnly, Cfg.VectorClocksOnly);
    EXPECT_EQ(Reader.config().FieldProxy, Cfg.FieldProxy);

    // Event round-trip under a decode batch size unrelated to the encode
    // splits.
    size_t BatchSize = static_cast<size_t>(pick(R, 1, 33));
    std::vector<Event> Batch(BatchSize);
    std::vector<uint32_t> Payload;
    size_t Next = 0, N;
    while ((N = Reader.nextBatch(Batch.data(), BatchSize, Payload)) > 0) {
      for (size_t I = 0; I < N; ++I) {
        ASSERT_LT(Next, Stream.size()) << "seed " << Seed << ": extra events";
        std::vector<uint32_t> Words(
            Payload.begin() + Batch[I].PayloadIndex,
            Payload.begin() + Batch[I].PayloadIndex + Batch[I].PayloadCount);
        expectEventEq(Batch[I], Words, Stream[Next], Next);
        ++Next;
      }
    }
    ASSERT_TRUE(Reader.ok()) << "seed " << Seed << ": " << Reader.error();
    EXPECT_EQ(Next, Stream.size()) << "seed " << Seed;
    EXPECT_EQ(Reader.eventsDecoded(), Stream.size()) << "seed " << Seed;

    // Summary round-trip.
    ASSERT_TRUE(Reader.summaryReady()) << "seed " << Seed;
    EXPECT_EQ(Reader.summary().Ok, Summary.Ok);
    EXPECT_EQ(Reader.summary().Error, Summary.Error);
    EXPECT_EQ(Reader.summary().Output, Summary.Output);
    EXPECT_EQ(Reader.summary().StatementsExecuted,
              Summary.StatementsExecuted);
    EXPECT_EQ(Reader.summary().Counters, Summary.Counters);
  }
}

TEST(TraceCodec, BeginsRoundTripAcrossTheWholeInt64Range) {
  // Consecutive begins further apart than INT64_MAX: the begin delta
  // wraps like the object id's, so each begin decodes exactly.
  std::vector<FuzzEvent> Stream;
  for (int64_t Begin : {INT64_MIN, INT64_MAX - 1, INT64_MIN, int64_t(0)}) {
    FuzzEvent F;
    F.E.Kind = EventKind::ArrayCheck;
    F.E.Target = kTargetTool;
    F.E.Obj = 1;
    F.E.Begin = Begin;
    F.E.End = Begin + 1;
    F.E.Stride = 1;
    Stream.push_back(F);
  }
  Rng R(3);
  SymbolTable Syms = fuzzSymbols(2);
  std::vector<uint8_t> Buf =
      encode(Stream, Syms, fuzzConfig(), fuzzSummary(), R);
  TraceReader Reader;
  ASSERT_TRUE(Reader.open(Buf.data(), Buf.size())) << Reader.error();
  Event Batch[8];
  std::vector<uint32_t> Payload;
  ASSERT_EQ(Reader.nextBatch(Batch, 8, Payload), Stream.size())
      << Reader.error();
  for (size_t I = 0; I < Stream.size(); ++I)
    expectEventEq(Batch[I], {}, Stream[I], I);
}

/// Drains a reader until it stops; returns true iff the stream decoded
/// cleanly end to end (summary included).
bool drainsCleanly(TraceReader &Reader) {
  Event Batch[32];
  std::vector<uint32_t> Payload;
  while (Reader.nextBatch(Batch, 32, Payload) > 0)
    ;
  return Reader.ok() && Reader.summaryReady();
}

TEST(TraceCodec, EveryTruncationFailsCleanly) {
  Rng R(7);
  SymbolTable Syms = fuzzSymbols(8);
  std::vector<FuzzEvent> Stream;
  for (size_t I = 0; I < 40; ++I)
    Stream.push_back(randomEvent(R, 8));
  std::vector<uint8_t> Buf =
      encode(Stream, Syms, fuzzConfig(), fuzzSummary(), R);

  for (size_t Cut = 0; Cut < Buf.size(); ++Cut) {
    TraceReader Reader;
    if (!Reader.open(Buf.data(), Cut)) {
      EXPECT_FALSE(Reader.error().empty()) << "cut " << Cut;
      continue; // Header truncation: rejected at open().
    }
    // Header survived the cut; the event stream or summary must not
    // decode to a complete, clean result.
    EXPECT_FALSE(drainsCleanly(Reader)) << "cut " << Cut;
    EXPECT_FALSE(Reader.ok()) << "cut " << Cut;
    EXPECT_FALSE(Reader.error().empty()) << "cut " << Cut;
  }

  // The untruncated buffer still decodes, so the loop above was not
  // passing vacuously.
  TraceReader Full;
  ASSERT_TRUE(Full.open(Buf.data(), Buf.size())) << Full.error();
  EXPECT_TRUE(drainsCleanly(Full)) << Full.error();
}

TEST(TraceCodec, TargetedCorruptionsFailCleanly) {
  Rng R(11);
  SymbolTable Syms = fuzzSymbols(4);
  std::vector<FuzzEvent> Stream;
  for (size_t I = 0; I < 10; ++I)
    Stream.push_back(randomEvent(R, 4));
  std::vector<uint8_t> Good =
      encode(Stream, Syms, fuzzConfig(), fuzzSummary(), R);

  // Bad magic.
  {
    std::vector<uint8_t> Bad = Good;
    Bad[0] = 'X';
    TraceReader Reader;
    EXPECT_FALSE(Reader.open(Bad.data(), Bad.size()));
    EXPECT_NE(Reader.error().find("magic"), std::string::npos);
  }
  // Empty input.
  {
    TraceReader Reader;
    EXPECT_FALSE(Reader.open(nullptr, 0));
  }
  // Unknown section tag where SYMBOLS should start.
  {
    std::vector<uint8_t> Bad = Good;
    Bad[4] = 0x77;
    TraceReader Reader;
    EXPECT_FALSE(Reader.open(Bad.data(), Bad.size()));
  }
  // A zero stride in an ArrayCheck must be rejected (StridedRange asserts
  // on it, so the reader has to catch it first). Build a minimal trace by
  // hand-encoding one bad event: kind=ArrayCheck, target=tool.
  {
    TraceWriter Writer(Syms, fuzzConfig());
    std::vector<uint8_t> Bad = Writer.buffer(); // magic + header + EVENTS tag
    Bad.push_back(static_cast<uint8_t>(
        static_cast<unsigned>(EventKind::ArrayCheck) | (1u << 6)));
    Bad.push_back(0); // tid
    Bad.push_back(0); // obj delta
    Bad.push_back(0); // access
    Bad.push_back(0); // begin delta
    Bad.push_back(2); // end - begin = 1
    Bad.push_back(0); // stride 0 — invalid
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Bad.data(), Bad.size())) << Reader.error();
    Event Batch[4];
    std::vector<uint32_t> Payload;
    EXPECT_EQ(Reader.nextBatch(Batch, 4, Payload), 0u);
    EXPECT_FALSE(Reader.ok());
    EXPECT_NE(Reader.error().find("stride"), std::string::npos);
  }
  // An ArrayAlloc longer than kMaxArrayLength (here 2^46 elements) must
  // be rejected: a replay would size the array's shadow state up front.
  {
    TraceWriter Writer(Syms, fuzzConfig());
    std::vector<uint8_t> Bad = Writer.buffer(); // magic + header + EVENTS tag
    Bad.push_back(static_cast<uint8_t>(
        static_cast<unsigned>(EventKind::ArrayAlloc) | (3u << 6)));
    Bad.push_back(2); // obj delta +1
    uint64_t Len = uint64_t(1) << 46; // length, as a varint
    for (; Len >= 0x80; Len >>= 7)
      Bad.push_back(static_cast<uint8_t>(Len) | 0x80);
    Bad.push_back(static_cast<uint8_t>(Len));
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Bad.data(), Bad.size())) << Reader.error();
    Event Batch[4];
    std::vector<uint32_t> Payload;
    EXPECT_EQ(Reader.nextBatch(Batch, 4, Payload), 0u);
    EXPECT_FALSE(Reader.ok());
    EXPECT_NE(Reader.error().find("array length"), std::string::npos)
        << Reader.error();
  }
  // An ArrayCheck whose end int64 cannot hold (begin INT64_MAX, width 1)
  // must be rejected: no range has it, and StridedRange requires its width
  // to fit.
  {
    TraceWriter Writer(Syms, fuzzConfig());
    std::vector<uint8_t> Bad = Writer.buffer(); // magic + header + EVENTS tag
    Bad.push_back(static_cast<uint8_t>(
        static_cast<unsigned>(EventKind::ArrayCheck) | (1u << 6)));
    Bad.push_back(0); // tid
    Bad.push_back(0); // obj delta
    Bad.push_back(0); // access
    uint64_t Begin = uint64_t(INT64_MAX) << 1; // zigzag(INT64_MAX), a varint
    for (; Begin >= 0x80; Begin >>= 7)
      Bad.push_back(static_cast<uint8_t>(Begin) | 0x80);
    Bad.push_back(static_cast<uint8_t>(Begin));
    Bad.push_back(2); // end - begin = 1
    Bad.push_back(2); // stride 1
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Bad.data(), Bad.size())) << Reader.error();
    Event Batch[4];
    std::vector<uint32_t> Payload;
    EXPECT_EQ(Reader.nextBatch(Batch, 4, Payload), 0u);
    EXPECT_FALSE(Reader.ok());
    EXPECT_NE(Reader.error().find("range end overflows"), std::string::npos)
        << Reader.error();
  }
  // Nonexistent file path.
  {
    TraceReader Reader;
    EXPECT_FALSE(Reader.openFile("/nonexistent/trace.bft"));
    EXPECT_FALSE(Reader.error().empty());
  }
}

} // namespace
