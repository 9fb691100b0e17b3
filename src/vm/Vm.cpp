//===- Vm.cpp - The BFJ virtual machine -------------------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// The interpreter works on symbol ids throughout: frame locals are a flat
// vector indexed by SymId, object fields a flat vector indexed by FieldId,
// and every operand was resolved once, when the compiler looked its name
// up in the program's symbol table. The interpreter only reads its
// Program — the table, the thread list and the methods a call resolves —
// so any number of runs may share one program, on any threads. Strings
// are touched only off the hot path: method resolution, error messages
// and print output.
//
// Every method and thread body is compiled to flat register bytecode
// (Compiler.h) and run by a dense switch-on-opcode loop. The scheduler
// hands each thread a quantum counted in steps, and one step is one
// statement: each simple statement retires exactly one Step-flagged
// instruction, an If spends its step on the branch that tests its
// condition, and a Loop spends one on its exit test each time around,
// while block entry, loop entry and back-edges are free (Compiler.cpp).
// The step count is therefore a property of the program and the seed,
// and the event-stream golden pins it for every workload. One call of
// the dispatch loop runs a budget of steps: the rest of the quantum, cut
// at the thread's next commit point and at the run's step limit. All
// heap, synchronization and detector effects live in the do* helpers and
// the check handlers.
//
// Objects, arrays and barriers draw their ids from one counter, so the
// ids are dense and the heap is one table indexed by id: a lookup is a
// bounds check and a test of the cell's kind.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/LocKey.h"
#include "support/Timer.h"
#include "vm/Compiler.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <variant>

using namespace bigfoot;

namespace {

//===----------------------------------------------------------------------===
// Values and heap.
//===----------------------------------------------------------------------===

struct Value {
  enum class Kind { Int, Ref, Null };
  Kind K = Kind::Int;
  int64_t I = 0;

  static Value intV(int64_t V) { return Value{Kind::Int, V}; }
  static Value refV(ObjectId Id) {
    return Value{Kind::Ref, static_cast<int64_t>(Id)};
  }
  static Value nullV() { return Value{Kind::Null, 0}; }

  bool truthy() const { return K == Kind::Int ? I != 0 : K == Kind::Ref; }

  bool equals(const Value &O) const {
    if (K != O.K)
      return false;
    if (K == Kind::Null)
      return true;
    return I == O.I;
  }

  std::string str() const {
    switch (K) {
    case Kind::Int:
      return std::to_string(I);
    case Kind::Ref:
      return lockey::obj(static_cast<uint64_t>(I));
    case Kind::Null:
      return "null";
    }
    return "?";
  }
};

struct HeapObject {
  const ClassDecl *Cls = nullptr;
  /// Indexed by FieldId, grown on first write; unset fields read as 0.
  /// Field ids are interned first, so this stays as small as the class.
  std::vector<Value> Fields;
  int32_t LockOwner = -1;
  unsigned LockDepth = 0;
};

struct HeapArray {
  std::vector<Value> Elems;
};

struct BarrierRec {
  int64_t Parties = 0;
  std::vector<ThreadId> Arrived;
  uint64_t Generation = 0;
};

/// One entry of the heap table. Id 0 names nothing and stays empty.
using HeapCell = std::variant<std::monostate, HeapObject, HeapArray, BarrierRec>;

//===----------------------------------------------------------------------===
// Threads and continuations.
//===----------------------------------------------------------------------===

struct Frame {
  /// The chunk's registers: indexed by SymId over the program's whole
  /// symbol table, then the chunk's expression temporaries. Every local
  /// starts as integer 0 (BFJ has no declarations, uninitialized locals
  /// read as 0).
  std::vector<Value> Locals;
  SymId ReturnTargetSym = kNoSym;
  /// The compiled body and the resume position.
  const Chunk *Ch = nullptr;
  uint32_t PC = 0;
};

struct ThreadCtx {
  ThreadId Tid = 0;
  std::vector<Frame> Frames;
  bool Finished = false;
  bool InBarrier = false;
  uint64_t WaitGen = 0;
  uint64_t StepCount = 0;
};

enum class StepResult { Progress, Blocked };

/// What one call of the dispatch loop did: the steps it retired, and
/// whether it stopped on an operation that blocks (lock, join, barrier).
struct StepRun {
  uint64_t Steps = 0;
  bool Blocked = false;
};

//===----------------------------------------------------------------------===
// The interpreter.
//===----------------------------------------------------------------------===

class Interpreter {
public:
  Interpreter(const Program &Prog, const DetectorConfig *ToolCfg,
              const VmOptions &Opts)
      : Prog(Prog), Opts(Opts), R(Opts.Seed) {
    // Detector field ids come from the same table as the registers.
    Syms = &Prog.symbols();
    GSym = *Syms->lookup("$g");
    ThisSym = *Syms->lookup("this");
    CP = compileProgram(Prog);

    // Wire the event stream to the pipeline's detectors (and an optional
    // recording sink). Placement checks are executed whenever anything
    // wants them — a recording run without a detector must behave
    // exactly like a detector-attached run.
    DetectionOptions DO;
    DO.Oracle = Opts.EnableGroundTruth;
    DO.Lanes = Opts.DetectShards == 0 && Opts.AsyncDetect
                   ? 1
                   : Opts.DetectShards;
    DO.RingBatches = Opts.AsyncRingBatches;
    Pipeline.emplace(ToolCfg, Syms, DO, Opts.RecordSink);
    EmitTool = ToolCfg != nullptr || Opts.RecordSink != nullptr;
    EmitOracle = Opts.EnableGroundTruth;
    if (EventSink *S = Pipeline->sink())
      Ring.reset(S, Opts.EventBatch);
  }

  VmResult run() {
    Timer VmClock;
    setup();
    schedule();
    // Deliver any partial batch before sampling detector state — also on
    // the error path, so detectors observe every event up to the fault.
    Ring.flush();
    // Producer time stops here: everything after is the drain barrier and
    // result assembly, which inline detection pays as it goes.
    Result.VmSeconds = VmClock.seconds();
    Pipeline->finish(Result);
    Result.Ok = Error.empty();
    Result.Error = Error;
    Result.StatementsExecuted = Steps;
    return std::move(Result);
  }

private:
  const Program &Prog;
  VmOptions Opts;
  Rng R;
  VmResult Result;

  /// The event stream (DESIGN.md Sec. 9): every detector-visible action
  /// is appended here and flushed to the pipeline in batches.
  EventRing Ring;
  std::optional<DetectionPipeline> Pipeline;
  bool EmitTool = false;   ///< Placement checks / commits wanted.
  bool EmitOracle = false; ///< Per-access ground-truth events wanted.

  const SymbolTable *Syms = nullptr;
  SymId GSym = kNoSym;
  SymId ThisSym = kNoSym;
  CompiledProgram CP;

  /// Indexed by ObjectId; the next id is the table's size.
  std::vector<HeapCell> Heap;
  ObjectId GlobalObj = 0;

  std::vector<std::unique_ptr<ThreadCtx>> Threads;
  std::string Error;
  uint64_t Steps = 0;

  HotCounter VmAccessesC{Result.Counters, "vm.accesses"};
  HotCounter VmAccessesFieldC{Result.Counters, "vm.accesses.field"};
  HotCounter VmAccessesArrayC{Result.Counters, "vm.accesses.array"};
  HotCounter VmSyncOpsC{Result.Counters, "vm.syncOps"};
  HotCounter VmHeapBytesC{Result.Counters, "vm.heapBytes"};

  void setError(const std::string &Message) {
    if (Error.empty())
      Error = Message;
  }

  /// Fails the run with "'<name of Var>'" followed by \p What. Out of
  /// line, as the message is built, to keep the heap helpers small enough
  /// to inline into the dispatch loop.
  [[gnu::cold, gnu::noinline]] void failOperand(SymId Var, const char *What) {
    setError("'" + Syms->name(Var) + "'" + What);
  }

  //===--- Event emission -------------------------------------------------------
  //
  // Detector effects are not calls anymore: they are events appended to
  // the ring, which flushes batches to the bound sinks. Emission is gated
  // so an unconsumed stream costs one predictable branch per site.

  /// Synchronization / lifecycle / allocation: visible to both the tool
  /// and the oracle (each sink routes by the target mask).
  void emitSync(EventKind K, ThreadId Tid, ObjectId Obj = 0,
                uint64_t Aux = 0) {
    if (!Ring.attached())
      return;
    Event E;
    E.Kind = K;
    E.Target = kTargetBoth;
    E.Tid = Tid;
    E.Obj = Obj;
    E.Aux = Aux;
    Ring.emit(E);
  }

  void emitVolatile(EventKind K, ThreadId Tid, ObjectId Obj, FieldId Field) {
    if (!Ring.attached())
      return;
    Event E;
    E.Kind = K;
    E.Target = kTargetBoth;
    E.Tid = Tid;
    E.Obj = Obj;
    E.Field = Field;
    Ring.emit(E);
  }

  /// Per-access ground-truth events (callers gate on EmitOracle).
  void emitOracleField(ThreadId Tid, ObjectId Obj, FieldId Field,
                       AccessKind K) {
    Event E;
    E.Kind = EventKind::FieldCheck;
    E.Target = kTargetOracle;
    E.Tid = Tid;
    E.Obj = Obj;
    E.Access = K;
    Ring.emit(E, &Field, 1);
  }

  void emitOracleElem(ThreadId Tid, ObjectId Obj, int64_t Idx, AccessKind K) {
    Event E;
    E.Kind = EventKind::ArrayCheck;
    E.Target = kTargetOracle;
    E.Tid = Tid;
    E.Obj = Obj;
    E.Access = K;
    E.Begin = Idx;
    E.End = Idx + 1;
    Ring.emit(E);
  }

  //===--- Setup --------------------------------------------------------------

  Frame makeFrame(const Chunk *Ch) {
    assert(Ch && "method has no compiled chunk");
    Frame F;
    F.Locals.resize(Ch->NumRegs);
    F.Ch = Ch;
    return F;
  }

  void setup() {
    Heap.emplace_back(); // Id 0.
    GlobalObj = allocate(HeapObject());
    for (size_t I = 0; I < Prog.Threads.size(); ++I) {
      auto T = std::make_unique<ThreadCtx>();
      T->Tid = static_cast<ThreadId>(Threads.size());
      Frame F = makeFrame(CP.ThreadChunks[I]);
      F.Locals[GSym] = Value::refV(GlobalObj);
      T->Frames.push_back(std::move(F));
      Threads.push_back(std::move(T));
    }
    // Stream markers for the initial threads (forked threads are implied
    // by their Fork events); no detector effect.
    for (const auto &T : Threads)
      emitSync(EventKind::ThreadBegin, T->Tid);
  }

  //===--- Scheduler -----------------------------------------------------------

  void schedule() {
    size_t Cursor = 0;
    while (Error.empty()) {
      bool AnyAlive = false;
      bool AnyProgress = false;
      size_t SweepSize = Threads.size();
      for (size_t Pass = 0; Pass < SweepSize && Error.empty(); ++Pass) {
        ThreadCtx &T = *Threads[(Cursor + Pass) % SweepSize];
        if (T.Finished)
          continue;
        AnyAlive = true;
        uint64_t Quantum = 1 + R.nextBelow(Opts.Quantum);
        AnyProgress |= runQuantum(T, Quantum);
      }
      if (!AnyAlive)
        break;
      if (!AnyProgress && Error.empty()) {
        setError("deadlock: every live thread is blocked");
        break;
      }
      if (!Threads.empty())
        Cursor = (Cursor + 1) % Threads.size();
    }
  }

  /// Runs up to \p Quantum steps of \p T, stopping early when it blocks,
  /// finishes or fails. Each call of the dispatch loop gets a budget that
  /// ends at the thread's next commit point, where the Commit event goes
  /// out after the step that reaches it, and at the step after the run's
  /// limit, which fails the run. Returns whether any step retired.
  bool runQuantum(ThreadCtx &T, uint64_t Quantum) {
    const uint64_t Interval = EmitTool ? Opts.CommitIntervalSteps : 0;
    bool Progress = false;
    while (Quantum > 0 && Error.empty() && !T.Finished) {
      uint64_t Budget = Quantum;
      if (Interval)
        Budget = std::min(Budget, Interval - T.StepCount % Interval);
      uint64_t ToLimit = Opts.MaxSteps - Steps; // Steps <= MaxSteps here.
      if (Budget > ToLimit)
        Budget = ToLimit + 1; // The step past the limit fails the run.
      StepRun Run = step(T, Budget);
      if (Run.Steps == 0)
        break; // Blocked before its first step.
      Progress = true;
      Quantum -= Run.Steps;
      if (Interval && (T.StepCount += Run.Steps) % Interval == 0) {
        Event E;
        E.Kind = EventKind::Commit;
        E.Target = kTargetTool;
        E.Tid = T.Tid;
        Ring.emit(E);
      }
      if ((Steps += Run.Steps) > Opts.MaxSteps)
        setError("step budget exhausted (non-terminating program?)");
      if (Run.Blocked)
        break;
    }
    return Progress;
  }

  void finishThread(ThreadCtx &T) {
    if (T.Finished)
      return;
    T.Finished = true;
    emitSync(EventKind::ThreadExit, T.Tid);
  }

  void returnFromFrame(ThreadCtx &T) {
    Frame &F = T.Frames.back();
    Value Ret = Value::intV(0);
    if (F.Ch->ReturnReg != kNoReg)
      Ret = F.Locals[F.Ch->ReturnReg];
    SymId Target = F.ReturnTargetSym;
    T.Frames.pop_back();
    if (T.Frames.empty()) {
      finishThread(T);
      return;
    }
    if (Target != kNoSym)
      T.Frames.back().Locals[Target] = Ret;
  }

  Value &local(Frame &F, SymId Sym) {
    assert(Sym != kNoSym && Sym < F.Locals.size() && "unresolved symbol");
    return F.Locals[Sym];
  }

  //===--- Heap helpers ------------------------------------------------------------

  template <typename CellT> ObjectId allocate(CellT &&Cell) {
    ObjectId Id = Heap.size();
    Heap.emplace_back(std::forward<CellT>(Cell));
    return Id;
  }

  /// The cell \p V refers to if it holds a \p CellT, else null.
  template <typename CellT> CellT *cellOf(const Value &V) {
    uint64_t Id = static_cast<uint64_t>(V.I);
    if (V.K != Value::Kind::Ref || Id >= Heap.size())
      return nullptr;
    return std::get_if<CellT>(&Heap[Id]);
  }

  HeapObject *objectOf(const Value *Regs, SymId Var) {
    const Value &V = Regs[Var];
    HeapObject *Obj = cellOf<HeapObject>(V);
    if (!Obj)
      failOperand(Var, V.K != Value::Kind::Ref
                           ? " does not hold an object reference"
                           : " is not an object");
    return Obj;
  }

  HeapArray *arrayOf(const Value *Regs, SymId Var) {
    const Value &V = Regs[Var];
    HeapArray *Arr = cellOf<HeapArray>(V);
    if (!Arr)
      failOperand(Var, V.K != Value::Kind::Ref
                           ? " does not hold an array reference"
                           : " is not an array");
    return Arr;
  }

  static ObjectId idOf(const Value &V) { return static_cast<ObjectId>(V.I); }

  static Value fieldValue(const HeapObject &Obj, FieldId Field) {
    return Field < Obj.Fields.size() ? Obj.Fields[Field] : Value::intV(0);
  }

  static void setField(HeapObject &Obj, FieldId Field, Value V) {
    if (Field >= Obj.Fields.size())
      Obj.Fields.resize(Field + 1);
    Obj.Fields[Field] = V;
  }

  //===--- Statement effects ----------------------------------------------------
  //
  // Everything observable — heap mutation, counters, detector events,
  // error wording and ordering — happens in these helpers; the bytecode
  // loop only decodes operands and moves the PC.

  void doNew(Value *Regs, SymId Target, const ClassDecl *Cls) {
    HeapObject Obj;
    Obj.Cls = Cls;
    ObjectId Id = allocate(std::move(Obj));
    VmHeapBytesC.bump(64);
    Regs[Target] = Value::refV(Id);
  }

  void doNewArray(Value *Regs, SymId Target, Value Size) {
    if (Size.K != Value::Kind::Int || Size.I < 0) {
      setError("invalid array size");
      return;
    }
    if (static_cast<uint64_t>(Size.I) > kMaxArrayLength) {
      setError("array size " + Size.str() + " exceeds the limit of " +
               std::to_string(kMaxArrayLength) + " elements");
      return;
    }
    HeapArray Arr;
    Arr.Elems.assign(static_cast<size_t>(Size.I), Value::intV(0));
    ObjectId Id = allocate(std::move(Arr));
    VmHeapBytesC.bump(32 + static_cast<uint64_t>(Size.I) * 16);
    emitSync(EventKind::ArrayAlloc, 0, Id, static_cast<uint64_t>(Size.I));
    Regs[Target] = Value::refV(Id);
  }

  void doNewBarrier(Value *Regs, SymId Target, Value Parties) {
    if (Parties.K != Value::Kind::Int || Parties.I < 1) {
      setError("invalid barrier party count");
      return;
    }
    BarrierRec B;
    B.Parties = Parties.I;
    Regs[Target] = Value::refV(allocate(std::move(B)));
  }

  void doFieldRead(ThreadCtx &T, Value *Regs, SymId Target, SymId Object,
                   FieldId Field, bool Volatile) {
    HeapObject *Obj = objectOf(Regs, Object);
    if (!Obj)
      return;
    ObjectId Id = idOf(Regs[Object]);
    if (Volatile) {
      VmSyncOpsC.bump();
      emitVolatile(EventKind::VolatileRead, T.Tid, Id, Field);
    } else {
      VmAccessesC.bump();
      VmAccessesFieldC.bump();
      if (EmitOracle)
        emitOracleField(T.Tid, Id, Field, AccessKind::Read);
    }
    Regs[Target] = fieldValue(*Obj, Field);
  }

  void doFieldWrite(ThreadCtx &T, const Value *Regs, SymId Object,
                    FieldId Field, Value V, bool Volatile) {
    HeapObject *Obj = objectOf(Regs, Object);
    if (!Obj)
      return;
    ObjectId Id = idOf(Regs[Object]);
    if (Volatile) {
      VmSyncOpsC.bump();
      emitVolatile(EventKind::VolatileWrite, T.Tid, Id, Field);
    } else {
      VmAccessesC.bump();
      VmAccessesFieldC.bump();
      if (EmitOracle)
        emitOracleField(T.Tid, Id, Field, AccessKind::Write);
    }
    setField(*Obj, Field, V);
  }

  void doArrayRead(ThreadCtx &T, Value *Regs, SymId Target, SymId Array,
                   Value Idx) {
    HeapArray *Arr = arrayOf(Regs, Array);
    if (!Arr)
      return;
    if (Idx.K != Value::Kind::Int || Idx.I < 0 ||
        Idx.I >= static_cast<int64_t>(Arr->Elems.size())) {
      setError("array index out of bounds: " + Idx.str());
      return;
    }
    VmAccessesC.bump();
    VmAccessesArrayC.bump();
    if (EmitOracle)
      emitOracleElem(T.Tid, idOf(Regs[Array]), Idx.I, AccessKind::Read);
    Regs[Target] = Arr->Elems[static_cast<size_t>(Idx.I)];
  }

  void doArrayWrite(ThreadCtx &T, const Value *Regs, SymId Array, Value Idx,
                    Value V) {
    HeapArray *Arr = arrayOf(Regs, Array);
    if (!Arr)
      return;
    if (Idx.K != Value::Kind::Int || Idx.I < 0 ||
        Idx.I >= static_cast<int64_t>(Arr->Elems.size())) {
      setError("array index out of bounds: " + Idx.str());
      return;
    }
    VmAccessesC.bump();
    VmAccessesArrayC.bump();
    if (EmitOracle)
      emitOracleElem(T.Tid, idOf(Regs[Array]), Idx.I, AccessKind::Write);
    Arr->Elems[static_cast<size_t>(Idx.I)] = V;
  }

  void doArrayLen(Value *Regs, SymId Target, SymId Array) {
    HeapArray *Arr = arrayOf(Regs, Array);
    if (!Arr)
      return;
    Regs[Target] = Value::intV(static_cast<int64_t>(Arr->Elems.size()));
  }

  StepResult doAcquire(ThreadCtx &T, const Value *Regs, SymId Lock) {
    HeapObject *Obj = objectOf(Regs, Lock);
    if (!Obj)
      return StepResult::Progress;
    if (Obj->LockOwner == static_cast<int32_t>(T.Tid)) {
      ++Obj->LockDepth; // Reentrant.
      return StepResult::Progress;
    }
    if (Obj->LockOwner != -1)
      return StepResult::Blocked;
    Obj->LockOwner = static_cast<int32_t>(T.Tid);
    Obj->LockDepth = 1;
    VmSyncOpsC.bump();
    emitSync(EventKind::Acquire, T.Tid, idOf(Regs[Lock]));
    return StepResult::Progress;
  }

  void doRelease(ThreadCtx &T, const Value *Regs, SymId Lock) {
    HeapObject *Obj = objectOf(Regs, Lock);
    if (!Obj)
      return;
    if (Obj->LockOwner != static_cast<int32_t>(T.Tid)) {
      setError("release of a lock the thread does not hold");
      return;
    }
    if (--Obj->LockDepth > 0)
      return;
    Obj->LockOwner = -1;
    VmSyncOpsC.bump();
    emitSync(EventKind::Release, T.Tid, idOf(Regs[Lock]));
  }

  StepResult doJoin(ThreadCtx &T, const Value *Regs, SymId Handle) {
    const Value &H = Regs[Handle];
    if (H.K != Value::Kind::Int || H.I < 0 ||
        H.I >= static_cast<int64_t>(Threads.size())) {
      setError("join on an invalid thread handle");
      return StepResult::Progress;
    }
    ThreadCtx &Joined = *Threads[static_cast<size_t>(H.I)];
    if (!Joined.Finished)
      return StepResult::Blocked;
    VmSyncOpsC.bump();
    emitSync(EventKind::Join, T.Tid, 0, Joined.Tid);
    return StepResult::Progress;
  }

  StepResult doAwait(ThreadCtx &T, const Value *Regs, SymId Barrier) {
    BarrierRec *Rec = cellOf<BarrierRec>(Regs[Barrier]);
    if (!Rec) {
      setError("await on a non-barrier");
      return StepResult::Progress;
    }
    BarrierRec &B = *Rec;
    if (!T.InBarrier) {
      T.InBarrier = true;
      T.WaitGen = B.Generation;
      B.Arrived.push_back(T.Tid);
      if (static_cast<int64_t>(B.Arrived.size()) == B.Parties) {
        VmSyncOpsC.bump();
        if (Ring.attached()) {
          Event E;
          E.Kind = EventKind::Barrier;
          E.Target = kTargetBoth;
          Ring.emit(E, B.Arrived.data(),
                    static_cast<uint32_t>(B.Arrived.size()));
        }
        B.Arrived.clear();
        ++B.Generation;
      }
    }
    if (B.Generation != T.WaitGen) {
      T.InBarrier = false;
      return StepResult::Progress;
    }
    return StepResult::Blocked;
  }

  const MethodDecl *resolveMethod(const Frame &F, SymId ReceiverVar,
                                  const std::string &Name) {
    HeapObject *Obj = objectOf(F.Locals.data(), ReceiverVar);
    if (!Obj)
      return nullptr;
    if (Obj->Cls)
      if (const MethodDecl *M = Obj->Cls->findMethod(Name))
        return M;
    // Fall back to any class defining the method (BFJ methods are
    // program-unique in practice).
    std::vector<const MethodDecl *> All = Prog.findMethodsNamed(Name);
    if (All.empty()) {
      setError("no method named '" + Name + "'");
      return nullptr;
    }
    return All.front();
  }

  /// Call and Fork: resolves the method on the receiver's class and
  /// builds its frame with `$g`, `this` and the argument registers bound,
  /// then pushes the frame or spawns it as a thread whose handle goes to
  /// the target register. An arity mismatch sets the error but still
  /// pushes or spawns (the run stops at the end of the step).
  void doCall(ThreadCtx &T, const CallOperand &Op, bool IsFork) {
    Frame &F = T.Frames.back();
    const MethodDecl *M = resolveMethod(F, Op.ReceiverReg, *Op.Method);
    if (!M)
      return;
    Frame Callee = makeFrame(CP.chunkFor(M));
    Callee.Locals[GSym] = Value::refV(GlobalObj);
    Callee.Locals[ThisSym] = local(F, Op.ReceiverReg);
    const std::vector<uint32_t> &Params = Callee.Ch->ParamRegs;
    if (Op.ArgRegs.size() != Params.size())
      setError("wrong argument count for '" + M->Name + "'");
    else
      for (size_t I = 0; I < Op.ArgRegs.size(); ++I)
        Callee.Locals[Params[I]] = F.Locals[Op.ArgRegs[I]];
    if (!IsFork) {
      if (T.Frames.size() > 512) {
        setError("call stack overflow");
        return;
      }
      Callee.ReturnTargetSym = Op.TargetReg;
      T.Frames.push_back(std::move(Callee)); // Invalidates F.
      return;
    }
    auto Child = std::make_unique<ThreadCtx>();
    Child->Tid = static_cast<ThreadId>(Threads.size());
    Child->Frames.push_back(std::move(Callee));
    ThreadId ChildTid = Child->Tid;
    Threads.push_back(std::move(Child));
    VmSyncOpsC.bump();
    emitSync(EventKind::Fork, T.Tid, 0, ChildTid);
    if (Op.TargetReg != kNoReg)
      local(F, Op.TargetReg) = Value::intV(static_cast<int64_t>(ChildTid));
  }

  /// Runs \p T for up to \p Budget steps over the compiled stream.
  /// Free instructions run until a Step-flagged instruction retires, and
  /// every control-flow cycle contains one (the loop exit test), so this
  /// cannot spin. It stops early after a step that fails the run or ends
  /// the thread, and before an operation that blocks, which leaves PC on
  /// itself to retry. The frame, chunk and register pointers stay in
  /// registers from one statement to the next; only Call and Return,
  /// which push or pop a frame, load them again.
  StepRun step(ThreadCtx &T, uint64_t Budget) {
    assert(Budget > 0 && !T.Frames.empty() && "a live thread has a frame");
    uint64_t Done = 0;
    Frame *F = nullptr;
    const Chunk *Ch = nullptr;
    const Insn *Code = nullptr;
    Value *Regs = nullptr;
    uint32_t PC = 0;
    auto EnterTopFrame = [&] {
      F = &T.Frames.back();
      Ch = F->Ch;
      Code = Ch->Code.data();
      Regs = F->Locals.data();
      PC = F->PC;
    };
    EnterTopFrame();
    for (;;) {
      const Insn &I = Code[PC];
      uint32_t Next = PC + 1;
      switch (I.Op) {
      case Opcode::Nop:
        break;
      case Opcode::LoadInt:
        Regs[I.A] = Value::intV(Ch->Ints[I.B]);
        break;
      case Opcode::LoadNull:
        Regs[I.A] = Value::nullV();
        break;
      case Opcode::Move:
        Regs[I.A] = Regs[I.B];
        break;
      case Opcode::Neg: {
        const Value &V = Regs[I.B];
        int64_t Out = 0;
        if (V.K != Value::Kind::Int)
          setError("negation of a non-integer");
        else if (__builtin_sub_overflow(int64_t(0), V.I, &Out))
          setError("negation overflow"); // -INT64_MIN has no int64 value.
        Regs[I.A] = Value::intV(Out);
        break;
      }
      case Opcode::Not:
        Regs[I.A] = Value::intV(Regs[I.B].truthy() ? 0 : 1);
        break;
      case Opcode::Boolify:
        Regs[I.A] = Value::intV(Regs[I.B].truthy() ? 1 : 0);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::Lt:
      case Opcode::Le:
      case Opcode::Gt:
      case Opcode::Ge: {
        const Value &L = Regs[I.B];
        const Value &Rv = Regs[I.C];
        if (L.K != Value::Kind::Int || Rv.K != Value::Kind::Int) {
          setError("arithmetic on non-integers");
          Regs[I.A] = Value::intV(0);
          break;
        }
        int64_t A = L.I, B = Rv.I, Out = 0;
        switch (I.Op) {
        // A result int64 cannot hold fails the run, as division does.
        case Opcode::Add:
          if (__builtin_add_overflow(A, B, &Out))
            setError("addition overflow");
          break;
        case Opcode::Sub:
          if (__builtin_sub_overflow(A, B, &Out))
            setError("subtraction overflow");
          break;
        case Opcode::Mul:
          if (__builtin_mul_overflow(A, B, &Out))
            setError("multiplication overflow");
          break;
        case Opcode::Div:
          // INT64_MIN / -1 has no int64 result (the CPU traps on it).
          if (B == 0)
            setError("division by zero");
          else if (B == -1 && A == INT64_MIN)
            setError("division overflow");
          else
            Out = A / B;
          break;
        case Opcode::Mod:
          // x % -1 is exactly 0; computing INT64_MIN % -1 traps.
          if (B == 0)
            setError("modulo by zero");
          else if (B == -1)
            Out = 0;
          else
            Out = A % B;
          break;
        case Opcode::Lt:
          Out = A < B;
          break;
        case Opcode::Le:
          Out = A <= B;
          break;
        case Opcode::Gt:
          Out = A > B;
          break;
        case Opcode::Ge:
          Out = A >= B;
          break;
        default:
          break;
        }
        Regs[I.A] = Value::intV(Out);
        break;
      }
      case Opcode::CmpEq:
        Regs[I.A] = Value::intV(Regs[I.B].equals(Regs[I.C]) ? 1 : 0);
        break;
      case Opcode::CmpNe:
        Regs[I.A] = Value::intV(Regs[I.B].equals(Regs[I.C]) ? 0 : 1);
        break;
      case Opcode::Jmp:
        Next = I.A;
        break;
      case Opcode::JmpIfFalse:
        if (!Regs[I.A].truthy())
          Next = I.B;
        break;
      case Opcode::JmpIfTrue:
        if (Regs[I.A].truthy())
          Next = I.B;
        break;
      case Opcode::Br:
        if (!Regs[I.A].truthy())
          Next = I.B;
        break;
      case Opcode::NewObject:
        doNew(Regs, I.A, Ch->Classes[I.B]);
        break;
      case Opcode::NewArray:
        doNewArray(Regs, I.A, Regs[I.B]);
        break;
      case Opcode::NewBarrier:
        doNewBarrier(Regs, I.A, Regs[I.B]);
        break;
      case Opcode::FieldRead:
      case Opcode::FieldReadVol:
        doFieldRead(T, Regs, I.A, I.B, I.C, I.Op == Opcode::FieldReadVol);
        break;
      case Opcode::FieldWrite:
      case Opcode::FieldWriteVol:
        doFieldWrite(T, Regs, I.A, I.C, Regs[I.B],
                     I.Op == Opcode::FieldWriteVol);
        break;
      case Opcode::ArrayRead:
        doArrayRead(T, Regs, I.A, I.B, Regs[I.C]);
        break;
      case Opcode::ArrayWrite:
        doArrayWrite(T, Regs, I.A, Regs[I.B], Regs[I.C]);
        break;
      case Opcode::ArrayLen:
        doArrayLen(Regs, I.A, I.B);
        break;
      case Opcode::Acquire:
        if (doAcquire(T, Regs, I.A) == StepResult::Blocked) {
          F->PC = PC;
          return {Done, true};
        }
        break;
      case Opcode::Release:
        doRelease(T, Regs, I.A);
        break;
      case Opcode::Call:
        F->PC = Next;
        doCall(T, Ch->Calls[I.A], /*IsFork=*/false);
        if (++Done == Budget || !Error.empty())
          return {Done, false};
        EnterTopFrame(); // The callee, at its first instruction.
        continue;
      case Opcode::Fork:
        doCall(T, Ch->Calls[I.A], /*IsFork=*/true);
        break;
      case Opcode::Join:
        if (doJoin(T, Regs, I.A) == StepResult::Blocked) {
          F->PC = PC;
          return {Done, true};
        }
        break;
      case Opcode::Await:
        if (doAwait(T, Regs, I.A) == StepResult::Blocked) {
          F->PC = PC;
          return {Done, true};
        }
        break;
      case Opcode::CheckFields:
        if (!checkFields(T, Regs, I, *Ch)) [[unlikely]]
          return failCheckStep(*F, Next, Done);
        break;
      case Opcode::CheckElem:
        if (!checkElem(T, Regs, I, *Ch)) [[unlikely]]
          return failCheckStep(*F, Next, Done);
        break;
      case Opcode::CheckRange:
        if (!checkRange(T, Regs, I, *Ch)) [[unlikely]]
          return failCheckStep(*F, Next, Done);
        break;
      case Opcode::Print:
        Result.Output.push_back(Regs[I.A].str());
        break;
      case Opcode::Assert:
        if (!Regs[I.A].truthy())
          setError(Ch->Msgs[I.B]);
        break;
      case Opcode::Return:
        returnFromFrame(T);
        if (++Done == Budget || !Error.empty() || T.Finished)
          return {Done, false};
        EnterTopFrame(); // The caller, after its Call.
        continue;
      }
      PC = Next;
      if (I.Step && (++Done == Budget || !Error.empty())) {
        F->PC = PC;
        return {Done, false};
      }
    }
  }

  //===--- Check execution ------------------------------------------------------
  //
  // Each path of a placed check is one opcode. Its handler writes the
  // path's event straight into the ring's next slot. The handlers stay
  // out of line: folded into step(), they made the base run slower, and
  // every slowdown is a ratio over it. A check executes (designator
  // tested, bounds evaluated, errors raised) whenever a tool or a
  // recorder consumes the stream, so recording runs cannot diverge from
  // detector-attached ones. A handler that fails the run returns false
  // and emits nothing; the check's later paths do not run.

  /// Ends the step of a check whose path at Next - 1 failed the run: the
  /// step retires, as a failing statement's does, and the loop stops.
  static StepRun failCheckStep(Frame &F, uint32_t Next, uint64_t Done) {
    F.PC = Next;
    return {Done + 1, false};
  }

  /// Fails the run on a check designator that does not hold a reference.
  [[gnu::cold, gnu::noinline]] void failCheckDesignator(SymId Var) {
    setError("check designator '" + Syms->name(Var) + "' is not a reference");
  }

  /// Fails the run on a check range evalBound could not evaluate, or one
  /// whose width int64 cannot hold.
  [[gnu::cold, gnu::noinline]] void failCheckRange(const Path &P,
                                                   bool Overflowed) {
    setError(Overflowed ? "check range " + P.str() + " overflows int64"
                        : "check range bounds are not integers");
  }

  /// The ring slot for a tool check event of thread \p T on \p Obj; the
  /// caller sets the range or payload fields and commits.
  Event &checkEvent(EventKind K, const ThreadCtx &T, ObjectId Obj,
                    const Insn &I) {
    Event &E = Ring.next();
    E.Kind = K;
    E.Target = kTargetTool;
    E.Access = static_cast<AccessKind>(I.Access);
    E.Tid = T.Tid;
    E.Obj = Obj;
    E.Aux = 0;
    E.Field = kNoSym;
    E.PayloadIndex = 0;
    E.PayloadCount = 0;
    E.Begin = 0;
    E.End = 0;
    E.Stride = 1;
    return E;
  }

  /// CheckFields: one FieldCheck on the fields of the object in R[A].
  [[gnu::noinline]] bool checkFields(const ThreadCtx &T, const Value *Regs,
                                     const Insn &I, const Chunk &Ch) {
    if (!EmitTool)
      return true;
    const Value &D = Regs[I.A];
    if (D.K != Value::Kind::Ref) {
      failCheckDesignator(I.A);
      return false;
    }
    Event &E = checkEvent(EventKind::FieldCheck, T, idOf(D), I);
    E.PayloadIndex = Ring.addPayload(Ch.CheckFieldIds.data() + I.B, I.C);
    E.PayloadCount = I.C;
    Ring.commit();
    return true;
  }

  /// CheckElem: one ArrayCheck on the element R[B] + Offset of the array
  /// in R[A]. Both ends of that element must fit int64.
  [[gnu::noinline]] bool checkElem(const ThreadCtx &T, const Value *Regs,
                                   const Insn &I, const Chunk &Ch) {
    if (!EmitTool)
      return true;
    const Value &D = Regs[I.A];
    if (D.K != Value::Kind::Ref) {
      failCheckDesignator(I.A);
      return false;
    }
    const ElemCheck &C = Ch.ElemChecks[I.C];
    const Value &X = Regs[I.B];
    int64_t Index = 0;
    if (X.K != Value::Kind::Int ||
        __builtin_add_overflow(X.I, C.Offset, &Index) || Index == INT64_MAX) {
      failCheckRange(*C.Source, X.K == Value::Kind::Int);
      return false;
    }
    Event &E = checkEvent(EventKind::ArrayCheck, T, idOf(D), I);
    E.Begin = Index;
    E.End = Index + 1;
    Ring.commit();
    return true;
  }

  /// Evaluates a compiled affine bound (constant + sum of coefficient ×
  /// local) over the frame's registers. Unset locals read as 0, like every
  /// BFJ local; a local holding a reference or null makes the bound
  /// undefined, and so does a bound int64 cannot hold, which also sets
  /// \p Overflowed.
  static std::optional<int64_t> evalBound(const Value *Regs,
                                          const CompiledBound &B,
                                          bool &Overflowed) {
    int64_t V = B.Constant;
    for (const auto &[Reg, Coeff] : B.Terms) {
      const Value &L = Regs[Reg];
      if (L.K != Value::Kind::Int)
        return std::nullopt;
      int64_t Term = 0;
      if (__builtin_mul_overflow(Coeff, L.I, &Term) ||
          __builtin_add_overflow(V, Term, &V)) {
        Overflowed = true;
        return std::nullopt;
      }
    }
    return V;
  }

  /// CheckRange: one ArrayCheck on [Begin, End) by Stride of the array in
  /// R[A], or none when the range is empty at run time (a zero-trip
  /// loop's invariant range, say).
  [[gnu::noinline]] bool checkRange(const ThreadCtx &T, const Value *Regs,
                                    const Insn &I, const Chunk &Ch) {
    if (!EmitTool)
      return true;
    const Value &D = Regs[I.A];
    if (D.K != Value::Kind::Ref) {
      failCheckDesignator(I.A);
      return false;
    }
    const RangeCheck &C = Ch.RangeChecks[I.B];
    bool Overflowed = false;
    std::optional<int64_t> Begin = evalBound(Regs, C.Begin, Overflowed);
    std::optional<int64_t> End = evalBound(Regs, C.End, Overflowed);
    if (!Begin || !End) {
      failCheckRange(*C.Source, Overflowed);
      return false;
    }
    if (*Begin >= *End)
      return true;
    int64_t Width = 0;
    if (__builtin_sub_overflow(*End, *Begin, &Width)) {
      failCheckRange(*C.Source, /*Overflowed=*/true);
      return false;
    }
    StridedRange Concrete(*Begin, *End, C.Stride);
    Event &E = checkEvent(EventKind::ArrayCheck, T, idOf(D), I);
    E.Begin = Concrete.begin();
    E.End = Concrete.end();
    E.Stride = Concrete.stride();
    Ring.commit();
    return true;
  }
};

} // namespace

namespace {

VmResult run(const Program &Prog, const DetectorConfig *Tool,
             const VmOptions &Opts) {
  // The scheduler draws each quantum as 1 + nextBelow(Quantum), which has
  // no value for 0; refuse the run before any detector thread starts.
  if (Opts.Quantum == 0) {
    VmResult R;
    R.Error = "quantum must be at least 1";
    return R;
  }
  Interpreter Interp(Prog, Tool, Opts);
  return Interp.run();
}

} // namespace

VmResult bigfoot::runProgram(const Program &Prog, const DetectorConfig &Tool,
                             const VmOptions &Opts) {
  return run(Prog, &Tool, Opts);
}

VmResult bigfoot::runProgramBase(const Program &Prog, const VmOptions &Opts) {
  return run(Prog, nullptr, Opts);
}
