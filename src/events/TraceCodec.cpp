//===- TraceCodec.cpp - Binary event-trace record format ------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "events/TraceCodec.h"

#include "events/DetectionPipeline.h"

#include <cassert>
#include <cstdio>
#include <cstring>

using namespace bigfoot;

namespace {

constexpr uint8_t kMagic[4] = {'B', 'F', 'T', '1'};
constexpr uint8_t kSecSymbols = 0x01;
constexpr uint8_t kSecConfig = 0x02;
constexpr uint8_t kSecEvents = 0x03;
constexpr uint8_t kSecSummary = 0x04;
constexpr uint8_t kSecEnd = 0xFE;
/// Terminates the EVENTS section; its low 6 bits are not a valid kind.
constexpr uint8_t kEventsEnd = 0xFF;

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>((V >> 1) ^ (~(V & 1) + 1));
}

} // namespace

//===--- TraceWriter ----------------------------------------------------------

TraceWriter::TraceWriter(const SymbolTable &Symbols,
                         const DetectorConfig &Config) {
  Buf.assign(kMagic, kMagic + 4);

  putByte(kSecSymbols);
  putVar(Symbols.size());
  for (SymId Id = 0; Id < Symbols.size(); ++Id)
    putStr(Symbols.name(Id));

  putByte(kSecConfig);
  putStr(Config.Name);
  uint8_t Flags = (Config.DeferArrayChecks ? 1u : 0u) |
                  (Config.AdaptiveArrayShadow ? 2u : 0u) |
                  (Config.VectorClocksOnly ? 4u : 0u);
  putByte(Flags);
  putVar(Config.FieldProxy.size());
  for (const auto &[Field, Rep] : Config.FieldProxy) {
    putStr(Field);
    putStr(Rep);
  }

  putByte(kSecEvents);
}

void TraceWriter::putVar(uint64_t V) {
  while (V >= 0x80) {
    putByte(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  putByte(static_cast<uint8_t>(V));
}

void TraceWriter::putSVar(int64_t V) { putVar(zigzag(V)); }

void TraceWriter::putStr(const std::string &S) {
  putVar(S.size());
  Buf.insert(Buf.end(), S.begin(), S.end());
}

void TraceWriter::putEvent(const Event &E, const uint32_t *Payload) {
  assert(static_cast<unsigned>(E.Kind) < kNumEventKinds && "unknown kind");
  assert(E.Target >= 1 && E.Target <= 3 && "target is a 2-bit mask");
  putByte(static_cast<uint8_t>(static_cast<unsigned>(E.Kind) |
                               (static_cast<unsigned>(E.Target) << 6)));
  switch (E.Kind) {
  case EventKind::FieldCheck:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putByte(static_cast<uint8_t>(E.Access));
    putVar(E.PayloadCount);
    for (uint32_t I = 0; I < E.PayloadCount; ++I)
      putVar(Payload[E.PayloadIndex + I]);
    break;
  case EventKind::ArrayCheck:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putByte(static_cast<uint8_t>(E.Access));
    // The begin is a wrapping delta, like the object id, so any two int64
    // begins have one.
    putSVar(static_cast<int64_t>(static_cast<uint64_t>(E.Begin) -
                                 static_cast<uint64_t>(LastBegin)));
    LastBegin = E.Begin;
    putSVar(E.End - E.Begin);
    putSVar(E.Stride);
    break;
  case EventKind::ArrayAlloc:
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putVar(E.Aux);
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    putVar(E.Tid);
    putSVar(static_cast<int64_t>(E.Obj - LastObj));
    LastObj = E.Obj;
    putVar(E.Field);
    break;
  case EventKind::Fork:
  case EventKind::Join:
    putVar(E.Tid);
    putVar(E.Aux);
    break;
  case EventKind::Barrier:
    putVar(E.PayloadCount);
    for (uint32_t I = 0; I < E.PayloadCount; ++I)
      putVar(Payload[E.PayloadIndex + I]);
    break;
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    putVar(E.Tid);
    break;
  }
}

void TraceWriter::consumeBatch(const Event *Events, size_t N,
                               const uint32_t *Payload) {
  assert(!Finished && "no events after finish()");
  for (size_t I = 0; I < N; ++I)
    putEvent(Events[I], Payload);
}

void TraceWriter::finish(const TraceSummary &Summary) {
  assert(!Finished && "finish() called twice");
  Finished = true;
  putByte(kEventsEnd);

  putByte(kSecSummary);
  putByte(Summary.Ok ? 1 : 0);
  putStr(Summary.Error);
  putVar(Summary.StatementsExecuted);
  putVar(Summary.Output.size());
  for (const std::string &Line : Summary.Output)
    putStr(Line);
  putVar(Summary.Counters.size());
  for (const auto &[Name, Value] : Summary.Counters) {
    putStr(Name);
    putVar(Value);
  }

  putByte(kSecEnd);
}

bool TraceWriter::writeFile(const std::string &Path) const {
  assert(Finished && "write the summary before the file");
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = Buf.empty() ? 0 : std::fwrite(Buf.data(), 1, Buf.size(), F);
  bool Ok = Written == Buf.size() && std::fclose(F) == 0;
  if (!Ok && Written != Buf.size())
    std::fclose(F);
  return Ok;
}

//===--- TraceReader ----------------------------------------------------------

bool TraceReader::fail(const std::string &Message) {
  if (Err.empty())
    Err = Message;
  return false;
}

bool TraceReader::getByte(uint8_t &B) {
  if (Pos >= Size)
    return fail("truncated trace: unexpected end of data");
  B = Data[Pos++];
  return true;
}

bool TraceReader::getVar(uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    uint8_t B;
    if (!getByte(B))
      return false;
    V |= static_cast<uint64_t>(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return true;
  }
  return fail("malformed trace: varint longer than 64 bits");
}

bool TraceReader::getSVar(int64_t &V) {
  uint64_t U;
  if (!getVar(U))
    return false;
  V = unzigzag(U);
  return true;
}

bool TraceReader::getStr(std::string &S) {
  uint64_t Len;
  if (!getVar(Len))
    return false;
  if (Len > Size - Pos)
    return fail("truncated trace: string runs past end of data");
  S.assign(reinterpret_cast<const char *>(Data + Pos),
           static_cast<size_t>(Len));
  Pos += static_cast<size_t>(Len);
  return true;
}

bool TraceReader::open(const uint8_t *D, size_t N) {
  Data = D;
  Size = N;
  Pos = 0;
  Err.clear();
  EventsDone = false;
  HaveSummary = false;
  NumEvents = 0;
  LastObj = 0;
  LastBegin = 0;
  Syms = SymbolTable();
  Config = DetectorConfig();
  Summary = TraceSummary();

  if (Size < 4 || std::memcmp(Data, kMagic, 4) != 0)
    return fail("not a BigFoot trace (bad magic)");
  Pos = 4;
  return parseSections();
}

bool TraceReader::openFile(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail("cannot open trace file: " + Path);
  FileBuf.clear();
  uint8_t Chunk[1 << 16];
  size_t Got;
  while ((Got = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    FileBuf.insert(FileBuf.end(), Chunk, Chunk + Got);
  bool ReadOk = !std::ferror(F);
  std::fclose(F);
  if (!ReadOk)
    return fail("read error on trace file: " + Path);
  return open(FileBuf.data(), FileBuf.size());
}

/// Parses the header sections up to (and including) the EVENTS tag, after
/// which nextBatch() takes over.
bool TraceReader::parseSections() {
  for (;;) {
    uint8_t Tag;
    if (!getByte(Tag))
      return false;
    switch (Tag) {
    case kSecSymbols: {
      uint64_t Count;
      if (!getVar(Count))
        return false;
      if (Count > Size) // More symbols than bytes: corrupt, not just big.
        return fail("malformed trace: symbol count exceeds file size");
      std::string Name;
      for (uint64_t I = 0; I < Count; ++I) {
        if (!getStr(Name))
          return false;
        // Interning in recorded order reproduces the recorded ids.
        Syms.intern(Name);
      }
      break;
    }
    case kSecConfig: {
      if (!getStr(Config.Name))
        return false;
      uint8_t Flags;
      if (!getByte(Flags))
        return false;
      Config.DeferArrayChecks = Flags & 1;
      Config.AdaptiveArrayShadow = Flags & 2;
      Config.VectorClocksOnly = Flags & 4;
      uint64_t NumProxies;
      if (!getVar(NumProxies))
        return false;
      if (NumProxies > Size)
        return fail("malformed trace: proxy count exceeds file size");
      std::string Field, Rep;
      for (uint64_t I = 0; I < NumProxies; ++I) {
        if (!getStr(Field) || !getStr(Rep))
          return false;
        Config.FieldProxy[Field] = Rep;
      }
      break;
    }
    case kSecEvents:
      return true; // Header done; the stream starts here.
    default:
      return fail("malformed trace: unknown section tag before events");
    }
  }
}

bool TraceReader::getEvent(Event &E, std::vector<uint32_t> &Payload) {
  uint8_t Head;
  if (!getByte(Head))
    return false;
  if (Head == kEventsEnd) {
    EventsDone = true;
    return false;
  }
  unsigned KindBits = Head & 0x3F;
  unsigned Target = Head >> 6;
  if (KindBits >= kNumEventKinds)
    return fail("malformed trace: unknown event kind");
  if (Target < 1 || Target > 3)
    return fail("malformed trace: bad event target mask");
  E = Event();
  E.Kind = static_cast<EventKind>(KindBits);
  E.Target = static_cast<uint8_t>(Target);

  uint64_t U;
  int64_t S;
  switch (E.Kind) {
  case EventKind::FieldCheck: {
    if (!getVar(U))
      return false;
    E.Tid = static_cast<ThreadId>(U);
    if (!getSVar(S))
      return false;
    E.Obj = LastObj + static_cast<uint64_t>(S);
    LastObj = E.Obj;
    uint8_t Access;
    if (!getByte(Access))
      return false;
    E.Access = static_cast<AccessKind>(Access);
    if (!getVar(U))
      return false;
    if (U > Size - Pos) // Each payload word is at least one byte.
      return fail("truncated trace: field list runs past end of data");
    E.PayloadIndex = static_cast<uint32_t>(Payload.size());
    E.PayloadCount = static_cast<uint32_t>(U);
    for (uint32_t I = 0; I < E.PayloadCount; ++I) {
      if (!getVar(U))
        return false;
      Payload.push_back(static_cast<uint32_t>(U));
    }
    break;
  }
  case EventKind::ArrayCheck: {
    if (!getVar(U))
      return false;
    E.Tid = static_cast<ThreadId>(U);
    if (!getSVar(S))
      return false;
    E.Obj = LastObj + static_cast<uint64_t>(S);
    LastObj = E.Obj;
    uint8_t Access;
    if (!getByte(Access))
      return false;
    E.Access = static_cast<AccessKind>(Access);
    if (!getSVar(S))
      return false;
    E.Begin = static_cast<int64_t>(static_cast<uint64_t>(LastBegin) +
                                   static_cast<uint64_t>(S));
    LastBegin = E.Begin;
    if (!getSVar(S))
      return false;
    // The width is End - Begin itself, so an end int64 can hold is also a
    // width it can hold (StridedRange requires both).
    if (__builtin_add_overflow(E.Begin, S, &E.End))
      return fail("malformed trace: range end overflows int64");
    if (!getSVar(E.Stride))
      return false;
    if (E.Stride < 1) // StridedRange requires a positive stride.
      return fail("malformed trace: non-positive range stride");
    break;
  }
  case EventKind::ArrayAlloc:
    if (!getSVar(S))
      return false;
    E.Obj = LastObj + static_cast<uint64_t>(S);
    LastObj = E.Obj;
    if (!getVar(E.Aux))
      return false;
    if (E.Aux > kMaxArrayLength)
      return fail("malformed trace: array length exceeds " +
                  std::to_string(kMaxArrayLength) + " elements");
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    if (!getVar(U))
      return false;
    E.Tid = static_cast<ThreadId>(U);
    if (!getSVar(S))
      return false;
    E.Obj = LastObj + static_cast<uint64_t>(S);
    LastObj = E.Obj;
    break;
  case EventKind::VolatileRead:
  case EventKind::VolatileWrite:
    if (!getVar(U))
      return false;
    E.Tid = static_cast<ThreadId>(U);
    if (!getSVar(S))
      return false;
    E.Obj = LastObj + static_cast<uint64_t>(S);
    LastObj = E.Obj;
    if (!getVar(U))
      return false;
    E.Field = static_cast<FieldId>(U);
    break;
  case EventKind::Fork:
  case EventKind::Join:
    if (!getVar(U))
      return false;
    E.Tid = static_cast<ThreadId>(U);
    if (!getVar(E.Aux))
      return false;
    break;
  case EventKind::Barrier: {
    if (!getVar(U))
      return false;
    if (U > Size - Pos)
      return fail("truncated trace: barrier party list runs past end");
    E.PayloadIndex = static_cast<uint32_t>(Payload.size());
    E.PayloadCount = static_cast<uint32_t>(U);
    for (uint32_t I = 0; I < E.PayloadCount; ++I) {
      if (!getVar(U))
        return false;
      Payload.push_back(static_cast<uint32_t>(U));
    }
    break;
  }
  case EventKind::ThreadBegin:
  case EventKind::ThreadExit:
  case EventKind::Commit:
    if (!getVar(U))
      return false;
    E.Tid = static_cast<ThreadId>(U);
    break;
  }
  ++NumEvents;
  return true;
}

size_t TraceReader::nextBatch(Event *Out, size_t Max,
                              std::vector<uint32_t> &Payload) {
  Payload.clear();
  if (!ok() || EventsDone)
    return 0;
  size_t N = 0;
  while (N < Max) {
    if (!getEvent(Out[N], Payload))
      break;
    ++N;
  }
  if (EventsDone && ok())
    parseSummarySection();
  return ok() ? N : 0;
}

bool TraceReader::parseSummarySection() {
  uint8_t Tag;
  if (!getByte(Tag))
    return false;
  if (Tag != kSecSummary)
    return fail("malformed trace: expected summary after events");
  uint8_t Ok;
  if (!getByte(Ok))
    return false;
  Summary.Ok = Ok != 0;
  if (!getStr(Summary.Error))
    return false;
  if (!getVar(Summary.StatementsExecuted))
    return false;
  uint64_t NumLines;
  if (!getVar(NumLines))
    return false;
  if (NumLines > Size - Pos)
    return fail("truncated trace: output line count exceeds data");
  Summary.Output.resize(static_cast<size_t>(NumLines));
  for (std::string &Line : Summary.Output)
    if (!getStr(Line))
      return false;
  uint64_t NumCounters;
  if (!getVar(NumCounters))
    return false;
  if (NumCounters > Size - Pos)
    return fail("truncated trace: counter count exceeds data");
  std::string Name;
  for (uint64_t I = 0; I < NumCounters; ++I) {
    uint64_t Value;
    if (!getStr(Name) || !getVar(Value))
      return false;
    Summary.Counters[Name] = Value;
  }
  if (!getByte(Tag))
    return false;
  if (Tag != kSecEnd)
    return fail("malformed trace: missing end marker");
  HaveSummary = true;
  return true;
}

TraceSummary bigfoot::summaryOf(const RunResult &Run) {
  TraceSummary S;
  S.Ok = Run.Ok;
  S.Error = Run.Error;
  S.Output = Run.Output;
  S.StatementsExecuted = Run.StatementsExecuted;
  for (const auto &[Name, Value] : Run.Counters.all())
    if (Name.rfind("tool.", 0) != 0)
      S.Counters[Name] = Value;
  return S;
}
