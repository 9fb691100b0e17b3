//===- Vm.cpp - The BFJ virtual machine -------------------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// The interpreter works on interned symbol ids throughout: frame locals
// are a flat vector indexed by SymId, object fields a flat vector indexed
// by FieldId, and every statement reads its pre-resolved sym caches
// (Program::internSymbols). Strings are touched only off the hot path:
// error messages and print output.
//
// Every method and thread body is compiled to flat register bytecode
// (Compiler.h) and run by a dense switch-on-opcode loop. The scheduler
// hands each thread a quantum counted in steps, and one step is one
// statement: each simple statement retires exactly one Step-flagged
// instruction, an If spends its step on the branch that tests its
// condition, and a Loop spends one on its exit test each time around,
// while block entry, loop entry and back-edges are free (Compiler.cpp).
// The step count is therefore a property of the program and the seed,
// and the event-stream golden pins it for every workload. All heap,
// synchronization and detector effects live in the do* helpers.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/LocKey.h"
#include "support/Timer.h"
#include "vm/Compiler.h"

#include <cassert>
#include <optional>
#include <unordered_map>

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

//===----------------------------------------------------------------------===
// The interpreter.
//===----------------------------------------------------------------------===

class Interpreter {
public:
  Interpreter(const Program &Prog, const DetectorConfig *ToolCfg,
              const VmOptions &Opts)
      : Prog(Prog), Opts(Opts), R(Opts.Seed) {
    // Always (re-)intern: idempotent, one AST walk, and it guarantees the
    // sym caches are fresh even when a test rewrote the AST by hand after
    // parsing. Detector field ids come from the same table.
    const_cast<Program &>(Prog).internSymbols();
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

  std::unordered_map<ObjectId, HeapObject> Objects;
  std::unordered_map<ObjectId, HeapArray> Arrays;
  std::unordered_map<ObjectId, BarrierRec> Barriers;
  ObjectId NextId = 1;
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
    GlobalObj = NextId++;
    Objects.emplace(GlobalObj, HeapObject());
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
        unsigned Quantum =
            1 + static_cast<unsigned>(R.nextBelow(Opts.Quantum));
        for (unsigned I = 0; I < Quantum && Error.empty(); ++I) {
          if (T.Finished)
            break;
          if (step(T) == StepResult::Blocked)
            break;
          AnyProgress = true;
          if (Opts.CommitIntervalSteps && EmitTool &&
              ++T.StepCount % Opts.CommitIntervalSteps == 0) {
            Event E;
            E.Kind = EventKind::Commit;
            E.Target = kTargetTool;
            E.Tid = T.Tid;
            Ring.emit(E);
          }
          if (++Steps > Opts.MaxSteps) {
            setError("step budget exhausted (non-terminating program?)");
            break;
          }
        }
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

  void finishThread(ThreadCtx &T) {
    if (T.Finished)
      return;
    T.Finished = true;
    emitSync(EventKind::ThreadExit, T.Tid);
  }

  void returnFromFrame(ThreadCtx &T) {
    Frame &F = T.Frames.back();
    Value Ret = Value::intV(0);
    const MethodDecl *M = F.Ch->Method;
    if (M && M->ReturnSym != kNoSym)
      Ret = F.Locals[M->ReturnSym];
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

  HeapObject *objectOf(Frame &F, SymId Var, ObjectId *IdOut = nullptr) {
    const Value &V = local(F, Var);
    if (V.K != Value::Kind::Ref) {
      setError("'" + Syms->name(Var) + "' does not hold an object reference");
      return nullptr;
    }
    auto It = Objects.find(static_cast<ObjectId>(V.I));
    if (It == Objects.end()) {
      setError("'" + Syms->name(Var) + "' is not an object");
      return nullptr;
    }
    if (IdOut)
      *IdOut = static_cast<ObjectId>(V.I);
    return &It->second;
  }

  HeapArray *arrayOf(Frame &F, SymId Var, ObjectId *IdOut) {
    const Value &V = local(F, Var);
    if (V.K != Value::Kind::Ref) {
      setError("'" + Syms->name(Var) + "' does not hold an array reference");
      return nullptr;
    }
    auto It = Arrays.find(static_cast<ObjectId>(V.I));
    if (It == Arrays.end()) {
      setError("'" + Syms->name(Var) + "' is not an array");
      return nullptr;
    }
    if (IdOut)
      *IdOut = static_cast<ObjectId>(V.I);
    return &It->second;
  }

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

  void doNew(ThreadCtx &T, SymId Target, const ClassDecl *Cls) {
    HeapObject Obj;
    Obj.Cls = Cls;
    ObjectId Id = NextId++;
    Objects.emplace(Id, std::move(Obj));
    VmHeapBytesC.bump(64);
    local(T.Frames.back(), Target) = Value::refV(Id);
  }

  void doNewArray(ThreadCtx &T, SymId Target, Value Size) {
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
    ObjectId Id = NextId++;
    Arrays.emplace(Id, std::move(Arr));
    VmHeapBytesC.bump(32 + static_cast<uint64_t>(Size.I) * 16);
    emitSync(EventKind::ArrayAlloc, 0, Id, static_cast<uint64_t>(Size.I));
    local(T.Frames.back(), Target) = Value::refV(Id);
  }

  void doNewBarrier(ThreadCtx &T, SymId Target, Value Parties) {
    if (Parties.K != Value::Kind::Int || Parties.I < 1) {
      setError("invalid barrier party count");
      return;
    }
    BarrierRec B;
    B.Parties = Parties.I;
    ObjectId Id = NextId++;
    Barriers.emplace(Id, std::move(B));
    local(T.Frames.back(), Target) = Value::refV(Id);
  }

  void doFieldRead(ThreadCtx &T, SymId Target, SymId Object, FieldId Field,
                   bool Volatile) {
    Frame &F = T.Frames.back();
    ObjectId Id = 0;
    HeapObject *Obj = objectOf(F, Object, &Id);
    if (!Obj)
      return;
    if (Volatile) {
      VmSyncOpsC.bump();
      emitVolatile(EventKind::VolatileRead, T.Tid, Id, Field);
    } else {
      VmAccessesC.bump();
      VmAccessesFieldC.bump();
      if (EmitOracle)
        emitOracleField(T.Tid, Id, Field, AccessKind::Read);
    }
    local(F, Target) = fieldValue(*Obj, Field);
  }

  void doFieldWrite(ThreadCtx &T, SymId Object, FieldId Field, Value V,
                    bool Volatile) {
    Frame &F = T.Frames.back();
    ObjectId Id = 0;
    HeapObject *Obj = objectOf(F, Object, &Id);
    if (!Obj)
      return;
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

  void doArrayRead(ThreadCtx &T, SymId Target, SymId Array, Value Idx) {
    Frame &F = T.Frames.back();
    ObjectId Id = 0;
    HeapArray *Arr = arrayOf(F, Array, &Id);
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
      emitOracleElem(T.Tid, Id, Idx.I, AccessKind::Read);
    local(F, Target) = Arr->Elems[static_cast<size_t>(Idx.I)];
  }

  void doArrayWrite(ThreadCtx &T, SymId Array, Value Idx, Value V) {
    Frame &F = T.Frames.back();
    ObjectId Id = 0;
    HeapArray *Arr = arrayOf(F, Array, &Id);
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
      emitOracleElem(T.Tid, Id, Idx.I, AccessKind::Write);
    Arr->Elems[static_cast<size_t>(Idx.I)] = V;
  }

  void doArrayLen(ThreadCtx &T, SymId Target, SymId Array) {
    Frame &F = T.Frames.back();
    HeapArray *Arr = arrayOf(F, Array, nullptr);
    if (!Arr)
      return;
    local(F, Target) = Value::intV(static_cast<int64_t>(Arr->Elems.size()));
  }

  StepResult doAcquire(ThreadCtx &T, SymId Lock) {
    ObjectId Id = 0;
    HeapObject *Obj = objectOf(T.Frames.back(), Lock, &Id);
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
    emitSync(EventKind::Acquire, T.Tid, Id);
    return StepResult::Progress;
  }

  void doRelease(ThreadCtx &T, SymId Lock) {
    ObjectId Id = 0;
    HeapObject *Obj = objectOf(T.Frames.back(), Lock, &Id);
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
    emitSync(EventKind::Release, T.Tid, Id);
  }

  StepResult doJoin(ThreadCtx &T, SymId Handle) {
    Value H = local(T.Frames.back(), Handle);
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

  StepResult doAwait(ThreadCtx &T, SymId Barrier) {
    Value BV = local(T.Frames.back(), Barrier);
    auto It = BV.K == Value::Kind::Ref
                  ? Barriers.find(static_cast<ObjectId>(BV.I))
                  : Barriers.end();
    if (It == Barriers.end()) {
      setError("await on a non-barrier");
      return StepResult::Progress;
    }
    BarrierRec &B = It->second;
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

  const MethodDecl *resolveMethod(Frame &F, SymId ReceiverVar,
                                  const std::string &Name) {
    HeapObject *Obj = objectOf(F, ReceiverVar);
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
    if (Op.ArgRegs.size() != M->ParamSyms.size())
      setError("wrong argument count for '" + M->Name + "'");
    else
      for (size_t I = 0; I < Op.ArgRegs.size(); ++I)
        Callee.Locals[M->ParamSyms[I]] = F.Locals[Op.ArgRegs[I]];
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

  /// One scheduler step over the compiled stream: free instructions run
  /// until a Step-flagged instruction retires (every control-flow cycle
  /// contains one — the loop exit test — so this cannot spin). Blocked
  /// operations leave PC on themselves and retry; Call and Return exit
  /// immediately because pushing or popping may move the frame vector.
  ///
  /// Forced inline into the scheduler's quantum loop: each effect helper
  /// has this one call site, so the compiler folds them all in and would
  /// otherwise keep the grown step() out of line, and a call per statement
  /// costs 5-11% of base VM time.
  [[gnu::always_inline]] StepResult step(ThreadCtx &T) {
    if (T.Frames.empty()) {
      finishThread(T);
      return StepResult::Progress;
    }
    Frame &F = T.Frames.back();
    const Chunk &Ch = *F.Ch;
    const Insn *Code = Ch.Code.data();
    Value *Regs = F.Locals.data();
    uint32_t PC = F.PC;
    for (;;) {
      const Insn &I = Code[PC];
      uint32_t Next = PC + 1;
      switch (I.Op) {
      case Opcode::Nop:
        break;
      case Opcode::LoadInt:
        Regs[I.A] = Value::intV(Ch.Ints[I.B]);
        break;
      case Opcode::LoadNull:
        Regs[I.A] = Value::nullV();
        break;
      case Opcode::Move:
        Regs[I.A] = Regs[I.B];
        break;
      case Opcode::Neg: {
        const Value &V = Regs[I.B];
        if (V.K != Value::Kind::Int) {
          setError("negation of a non-integer");
          Regs[I.A] = Value::intV(0);
        } else {
          Regs[I.A] = Value::intV(-V.I);
        }
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
        case Opcode::Add:
          Out = A + B;
          break;
        case Opcode::Sub:
          Out = A - B;
          break;
        case Opcode::Mul:
          Out = A * B;
          break;
        case Opcode::Div:
          if (B == 0)
            setError("division by zero");
          else
            Out = A / B;
          break;
        case Opcode::Mod:
          if (B == 0)
            setError("modulo by zero");
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
        doNew(T, I.A, Ch.Classes[I.B]);
        break;
      case Opcode::NewArray:
        doNewArray(T, I.A, Regs[I.B]);
        break;
      case Opcode::NewBarrier:
        doNewBarrier(T, I.A, Regs[I.B]);
        break;
      case Opcode::FieldRead:
      case Opcode::FieldReadVol:
        doFieldRead(T, I.A, I.B, I.C, I.Op == Opcode::FieldReadVol);
        break;
      case Opcode::FieldWrite:
      case Opcode::FieldWriteVol:
        doFieldWrite(T, I.A, I.C, Regs[I.B], I.Op == Opcode::FieldWriteVol);
        break;
      case Opcode::ArrayRead:
        doArrayRead(T, I.A, I.B, Regs[I.C]);
        break;
      case Opcode::ArrayWrite:
        doArrayWrite(T, I.A, Regs[I.B], Regs[I.C]);
        break;
      case Opcode::ArrayLen:
        doArrayLen(T, I.A, I.B);
        break;
      case Opcode::Acquire:
        if (doAcquire(T, I.A) == StepResult::Blocked) {
          F.PC = PC;
          return StepResult::Blocked;
        }
        break;
      case Opcode::Release:
        doRelease(T, I.A);
        break;
      case Opcode::Call:
        F.PC = Next;
        doCall(T, Ch.Calls[I.A], /*IsFork=*/false);
        return StepResult::Progress;
      case Opcode::Fork:
        doCall(T, Ch.Calls[I.A], /*IsFork=*/true);
        break;
      case Opcode::Join:
        if (doJoin(T, I.A) == StepResult::Blocked) {
          F.PC = PC;
          return StepResult::Blocked;
        }
        break;
      case Opcode::Await:
        if (doAwait(T, I.A) == StepResult::Blocked) {
          F.PC = PC;
          return StepResult::Blocked;
        }
        break;
      case Opcode::Check:
        execCheck(T, Ch.Checks[I.A]);
        break;
      case Opcode::Print:
        Result.Output.push_back(Regs[I.A].str());
        break;
      case Opcode::Assert:
        if (!Regs[I.A].truthy())
          setError(Ch.Msgs[I.B]);
        break;
      case Opcode::Return:
        returnFromFrame(T);
        return StepResult::Progress;
      }
      PC = Next;
      if (I.Step) {
        F.PC = PC;
        return StepResult::Progress;
      }
    }
  }

  //===--- Check execution ------------------------------------------------------

  /// Evaluates a compiled affine bound (constant + sum of coefficient ×
  /// local) over the frame's locals. Unset locals read as 0, like every
  /// BFJ local; a local holding a reference or null makes the bound
  /// undefined.
  std::optional<int64_t> evalBound(Frame &F, const Path::CompiledBound &B) {
    int64_t V = B.Constant;
    for (const auto &[Sym, Coeff] : B.Terms) {
      const Value &L = local(F, Sym);
      if (L.K != Value::Kind::Int)
        return std::nullopt;
      V += Coeff * L.I;
    }
    return V;
  }

  void execCheck(ThreadCtx &T, const CheckStmt *Check) {
    // Checks execute (bounds evaluated, errors raised) whenever a tool or
    // a recorder consumes the stream, so recording runs cannot diverge
    // from detector-attached ones.
    if (!EmitTool)
      return;
    Frame &F = T.Frames.back();
    for (const Path &P : Check->paths()) {
      const Value &D = local(F, P.DesignatorSym);
      if (D.K != Value::Kind::Ref) {
        setError("check designator '" + P.Designator +
                 "' is not a reference");
        return;
      }
      ObjectId Id = static_cast<ObjectId>(D.I);
      if (P.isField()) {
        Event E;
        E.Kind = EventKind::FieldCheck;
        E.Target = kTargetTool;
        E.Tid = T.Tid;
        E.Obj = Id;
        E.Access = P.Access;
        Ring.emit(E, P.FieldSyms.data(),
                  static_cast<uint32_t>(P.FieldSyms.size()));
        continue;
      }
      std::optional<int64_t> Begin = evalBound(F, P.BeginC);
      std::optional<int64_t> End = evalBound(F, P.EndC);
      if (!Begin || !End) {
        setError("check range bounds are not integers");
        return;
      }
      if (*Begin >= *End)
        continue; // Empty at run time (e.g. zero-trip invariant range).
      StridedRange Concrete(*Begin, *End, P.Range.Stride);
      Event E;
      E.Kind = EventKind::ArrayCheck;
      E.Target = kTargetTool;
      E.Tid = T.Tid;
      E.Obj = Id;
      E.Access = P.Access;
      E.Begin = Concrete.begin();
      E.End = Concrete.end();
      E.Stride = Concrete.stride();
      Ring.emit(E);
    }
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
