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
// Two execution modes share one scheduler and one set of effect helpers:
// the default compiles each body to flat register bytecode (Compiler.h)
// and drives a dense switch-on-opcode loop; the original AST walker stays
// behind VmOptions::UseBytecode=false as the differential reference. All
// heap, synchronization, and detector effects live in the do* helpers
// both modes call, so results and schedules agree by construction; the
// remaining mode-specific code is pure dispatch. Scheduler steps are the
// same in both modes — the compiler encodes the walker's step accounting
// in per-instruction Step flags (see Compiler.cpp).
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/LocKey.h"
#include "support/Timer.h"
#include "vm/Compiler.h"

#include <algorithm>
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

/// One resumable position inside a statement tree (AST mode). Blocks track
/// the next child; loops track their phase (0 = start pre-body, 1 = exit
/// test, 2 = post-body finished, go around).
struct Task {
  const Stmt *S = nullptr;
  size_t Index = 0;
  int Phase = 0;
};

struct Frame {
  /// Indexed by SymId over the program's whole symbol table; every local
  /// starts as integer 0 (BFJ has no declarations, uninitialized locals
  /// read as 0). In bytecode mode the vector extends past NumSyms with the
  /// chunk's expression temporaries.
  std::vector<Value> Locals;
  const MethodDecl *Method = nullptr;
  SymId ReturnTargetSym = kNoSym;
  /// AST mode: the resumable statement stack.
  std::vector<Task> Tasks;
  /// Bytecode mode: the compiled body and the resume position.
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
    NumSyms = Syms->size();
    GSym = *Syms->lookup("$g");
    ThisSym = *Syms->lookup("this");
    if (Opts.UseBytecode)
      CP = compileProgram(Prog);

    // Wire the event stream to the pipeline's detectors (and an optional
    // recording sink). Placement checks are executed whenever anything
    // wants them — a recording run without a detector must behave
    // exactly like a detector-attached run.
    DetectionOptions DO;
    DO.Oracle = Opts.EnableGroundTruth;
    DO.CheckFilter = Opts.CheckFilter;
    DO.Async = Opts.AsyncDetect;
    DO.Lanes = Opts.DetectShards;
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
    // result assembly, which sync mode pays inline as part of detection.
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
  size_t NumSyms = 0;
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

  Frame makeFrame() {
    Frame F;
    F.Locals.resize(NumSyms);
    return F;
  }

  Frame makeBcFrame(const Chunk *Ch) {
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
      Frame F = Opts.UseBytecode ? makeBcFrame(CP.ThreadChunks[I])
                                 : makeFrame();
      F.Locals[GSym] = Value::refV(GlobalObj);
      if (!Opts.UseBytecode)
        F.Tasks.push_back(Task{Prog.Threads[I].get(), 0, 0});
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
    const bool UseBc = Opts.UseBytecode;
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
          if ((UseBc ? stepBc(T) : step(T)) == StepResult::Blocked)
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

  //===--- AST-walker stepping -------------------------------------------------

  StepResult step(ThreadCtx &T) {
    // Bounded inner loop so control bookkeeping (popping finished blocks)
    // never spins without executing anything.
    for (int Guard = 0; Guard < 256; ++Guard) {
      if (T.Frames.empty()) {
        finishThread(T);
        return StepResult::Progress;
      }
      Frame &F = T.Frames.back();
      if (F.Tasks.empty()) {
        returnFromFrame(T);
        return StepResult::Progress;
      }
      Task &Tk = F.Tasks.back();
      const Stmt *S = Tk.S;

      if (const auto *Block = dyn_cast<BlockStmt>(S)) {
        if (Tk.Index >= Block->stmts().size()) {
          F.Tasks.pop_back();
          continue;
        }
        const Stmt *Child = Block->stmts()[Tk.Index].get();
        if (isa<BlockStmt>(Child) || isa<LoopStmt>(Child)) {
          ++Tk.Index;
          F.Tasks.push_back(Task{Child, 0, 0});
          continue;
        }
        if (const auto *If = dyn_cast<IfStmt>(Child)) {
          ++Tk.Index;
          Value Cond = eval(F, If->cond());
          const Stmt *Branch = Cond.truthy() ? If->thenStmt()
                                             : If->elseStmt();
          // Re-fetch the frame: eval cannot push frames, but stay safe.
          T.Frames.back().Tasks.push_back(Task{Branch, 0, 0});
          return StepResult::Progress;
        }
        ++Tk.Index;
        StepResult Res = execSimple(T, Child);
        if (Res == StepResult::Blocked) {
          // Undo the claim; the statement retries on the next schedule.
          --T.Frames.back().Tasks.back().Index;
          return StepResult::Blocked;
        }
        return StepResult::Progress;
      }

      if (const auto *Loop = dyn_cast<LoopStmt>(S)) {
        if (Tk.Phase == 0) {
          Tk.Phase = 1;
          F.Tasks.push_back(Task{Loop->preBody(), 0, 0});
          continue;
        }
        if (Tk.Phase == 1) {
          Value Exit = eval(F, Loop->exitCond());
          if (Exit.truthy()) {
            F.Tasks.pop_back();
            return StepResult::Progress;
          }
          Tk.Phase = 2;
          F.Tasks.push_back(Task{Loop->postBody(), 0, 0});
          return StepResult::Progress;
        }
        Tk.Phase = 0;
        continue;
      }

      // A bare simple statement as a task (e.g. a Skip branch).
      F.Tasks.pop_back();
      StepResult Res = execSimple(T, S);
      if (Res == StepResult::Blocked) {
        T.Frames.back().Tasks.push_back(Task{S, 0, 0});
        return StepResult::Blocked;
      }
      return StepResult::Progress;
    }
    setError("interpreter control stack failed to make progress");
    return StepResult::Progress;
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
    if (F.Method && F.Method->ReturnSym != kNoSym)
      Ret = F.Locals[F.Method->ReturnSym];
    SymId Target = F.ReturnTargetSym;
    T.Frames.pop_back();
    if (T.Frames.empty()) {
      finishThread(T);
      return;
    }
    if (Target != kNoSym)
      T.Frames.back().Locals[Target] = Ret;
  }

  //===--- Expression evaluation (AST mode) -------------------------------------

  Value &local(Frame &F, SymId Sym) {
    assert(Sym != kNoSym && Sym < F.Locals.size() && "unresolved symbol");
    return F.Locals[Sym];
  }

  Value eval(Frame &F, const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return Value::intV(cast<IntLit>(E)->value());
    case ExprKind::BoolLit:
      return Value::intV(cast<BoolLit>(E)->value() ? 1 : 0);
    case ExprKind::NullLit:
      return Value::nullV();
    case ExprKind::VarRef:
      return local(F, cast<VarRef>(E)->Sym);
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      Value V = eval(F, U->operand());
      if (U->op() == UnaryOp::Not)
        return Value::intV(V.truthy() ? 0 : 1);
      if (V.K != Value::Kind::Int) {
        setError("negation of a non-integer");
        return Value::intV(0);
      }
      return Value::intV(-V.I);
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      // Short-circuit logical operators.
      if (B->op() == BinaryOp::And) {
        Value L = eval(F, B->lhs());
        if (!L.truthy())
          return Value::intV(0);
        return Value::intV(eval(F, B->rhs()).truthy() ? 1 : 0);
      }
      if (B->op() == BinaryOp::Or) {
        Value L = eval(F, B->lhs());
        if (L.truthy())
          return Value::intV(1);
        return Value::intV(eval(F, B->rhs()).truthy() ? 1 : 0);
      }
      Value L = eval(F, B->lhs());
      Value Rv = eval(F, B->rhs());
      if (B->op() == BinaryOp::Eq)
        return Value::intV(L.equals(Rv) ? 1 : 0);
      if (B->op() == BinaryOp::Ne)
        return Value::intV(L.equals(Rv) ? 0 : 1);
      if (L.K != Value::Kind::Int || Rv.K != Value::Kind::Int) {
        setError("arithmetic on non-integers");
        return Value::intV(0);
      }
      int64_t A = L.I, C = Rv.I;
      switch (B->op()) {
      case BinaryOp::Add:
        return Value::intV(A + C);
      case BinaryOp::Sub:
        return Value::intV(A - C);
      case BinaryOp::Mul:
        return Value::intV(A * C);
      case BinaryOp::Div:
        if (C == 0) {
          setError("division by zero");
          return Value::intV(0);
        }
        return Value::intV(A / C);
      case BinaryOp::Mod:
        if (C == 0) {
          setError("modulo by zero");
          return Value::intV(0);
        }
        return Value::intV(A % C);
      case BinaryOp::Lt:
        return Value::intV(A < C ? 1 : 0);
      case BinaryOp::Le:
        return Value::intV(A <= C ? 1 : 0);
      case BinaryOp::Gt:
        return Value::intV(A > C ? 1 : 0);
      case BinaryOp::Ge:
        return Value::intV(A >= C ? 1 : 0);
      default:
        setError("unexpected operator");
        return Value::intV(0);
      }
    }
    }
    return Value::intV(0);
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

  //===--- Statement effects (shared by both execution modes) -------------------
  //
  // Everything observable — heap mutation, counters, detector events,
  // error wording and ordering — happens in these helpers, so the AST
  // walker and the bytecode loop cannot drift apart.

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

  /// Thread-spawn tail shared by both fork paths: registers the child,
  /// emits the release-edge events, and stores the handle.
  void finishFork(ThreadCtx &T, Frame CF, SymId TargetSym) {
    auto Child = std::make_unique<ThreadCtx>();
    Child->Tid = static_cast<ThreadId>(Threads.size());
    Child->Frames.push_back(std::move(CF));
    ThreadId ChildTid = Child->Tid;
    Threads.push_back(std::move(Child));
    VmSyncOpsC.bump();
    emitSync(EventKind::Fork, T.Tid, 0, ChildTid);
    if (TargetSym != kNoSym)
      local(T.Frames.back(), TargetSym) =
          Value::intV(static_cast<int64_t>(ChildTid));
  }

  //===--- AST-walker statement execution ---------------------------------------

  StepResult execSimple(ThreadCtx &T, const Stmt *S) {
    Frame &F = T.Frames.back();
    switch (S->kind()) {
    case StmtKind::Skip:
      return StepResult::Progress;
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      local(F, A->TargetSym) = eval(F, A->value());
      return StepResult::Progress;
    }
    case StmtKind::Rename: {
      const auto *Ren = cast<RenameStmt>(S);
      local(F, Ren->TargetSym) = local(F, Ren->SourceSym);
      return StepResult::Progress;
    }
    case StmtKind::New: {
      const auto *N = cast<NewStmt>(S);
      doNew(T, N->TargetSym, N->ClassCache);
      return StepResult::Progress;
    }
    case StmtKind::NewArray: {
      const auto *N = cast<NewArrayStmt>(S);
      doNewArray(T, N->TargetSym, eval(F, N->size()));
      return StepResult::Progress;
    }
    case StmtKind::NewBarrier: {
      const auto *N = cast<NewBarrierStmt>(S);
      doNewBarrier(T, N->TargetSym, eval(F, N->parties()));
      return StepResult::Progress;
    }
    case StmtKind::FieldRead: {
      const auto *Rd = cast<FieldReadStmt>(S);
      doFieldRead(T, Rd->TargetSym, Rd->ObjectSym, Rd->FieldSym,
                  Prog.isFieldVolatileById(Rd->FieldSym));
      return StepResult::Progress;
    }
    case StmtKind::FieldWrite: {
      const auto *Wr = cast<FieldWriteStmt>(S);
      Value V = eval(F, Wr->value());
      doFieldWrite(T, Wr->ObjectSym, Wr->FieldSym, V,
                   Prog.isFieldVolatileById(Wr->FieldSym));
      return StepResult::Progress;
    }
    case StmtKind::ArrayRead: {
      const auto *Rd = cast<ArrayReadStmt>(S);
      doArrayRead(T, Rd->TargetSym, Rd->ArraySym, eval(F, Rd->index()));
      return StepResult::Progress;
    }
    case StmtKind::ArrayWrite: {
      const auto *Wr = cast<ArrayWriteStmt>(S);
      Value Idx = eval(F, Wr->index());
      Value V = eval(F, Wr->value());
      doArrayWrite(T, Wr->ArraySym, Idx, V);
      return StepResult::Progress;
    }
    case StmtKind::ArrayLen: {
      const auto *L = cast<ArrayLenStmt>(S);
      doArrayLen(T, L->TargetSym, L->ArraySym);
      return StepResult::Progress;
    }
    case StmtKind::Acquire:
      return doAcquire(T, cast<AcquireStmt>(S)->LockSym);
    case StmtKind::Release:
      doRelease(T, cast<ReleaseStmt>(S)->LockSym);
      return StepResult::Progress;
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      pushCall(T, C->ReceiverSym, C->method(), C->args(), C->TargetSym);
      return StepResult::Progress;
    }
    case StmtKind::Fork: {
      const auto *Fork = cast<ForkStmt>(S);
      Value Recv = local(F, Fork->ReceiverSym);
      const MethodDecl *M = resolveMethod(F, Fork->ReceiverSym,
                                          Fork->method());
      if (!M)
        return StepResult::Progress;
      Frame CF = makeFrame();
      CF.Method = M;
      CF.Locals[GSym] = Value::refV(GlobalObj);
      CF.Locals[ThisSym] = Recv;
      bindArgs(F, CF, M, Fork->args());
      CF.Tasks.push_back(Task{M->Body.get(), 0, 0});
      finishFork(T, std::move(CF), Fork->TargetSym);
      return StepResult::Progress;
    }
    case StmtKind::Join:
      return doJoin(T, cast<JoinStmt>(S)->HandleSym);
    case StmtKind::Await:
      return doAwait(T, cast<AwaitStmt>(S)->BarrierSym);
    case StmtKind::Check: {
      execCheck(T, cast<CheckStmt>(S));
      return StepResult::Progress;
    }
    case StmtKind::Print: {
      const auto *P = cast<PrintStmt>(S);
      Result.Output.push_back(eval(F, P->value()).str());
      return StepResult::Progress;
    }
    case StmtKind::AssertStmt: {
      const auto *A = cast<AssertStmtNode>(S);
      if (!eval(F, A->cond()).truthy())
        setError("assertion failed: " + A->cond()->str());
      return StepResult::Progress;
    }
    default:
      setError("unexpected statement kind in execSimple");
      return StepResult::Progress;
    }
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

  void bindArgs(Frame &Caller, Frame &Callee, const MethodDecl *M,
                const std::vector<std::unique_ptr<Expr>> &Args) {
    if (Args.size() != M->ParamSyms.size()) {
      setError("wrong argument count for '" + M->Name + "'");
      return;
    }
    for (size_t I = 0; I < Args.size(); ++I)
      Callee.Locals[M->ParamSyms[I]] = eval(Caller, Args[I].get());
  }

  void pushCall(ThreadCtx &T, SymId ReceiverVar, const std::string &Name,
                const std::vector<std::unique_ptr<Expr>> &Args,
                SymId Target) {
    Frame &F = T.Frames.back();
    const MethodDecl *M = resolveMethod(F, ReceiverVar, Name);
    if (!M)
      return;
    Frame Callee = makeFrame();
    Callee.Method = M;
    Callee.ReturnTargetSym = Target;
    Callee.Locals[GSym] = Value::refV(GlobalObj);
    Callee.Locals[ThisSym] = local(F, ReceiverVar);
    bindArgs(F, Callee, M, Args);
    Callee.Tasks.push_back(Task{M->Body.get(), 0, 0});
    if (T.Frames.size() > 512) {
      setError("call stack overflow");
      return;
    }
    T.Frames.push_back(std::move(Callee));
  }

  //===--- Bytecode stepping -----------------------------------------------------

  /// Pre-flattened argument registers; otherwise bindArgs.
  void bindArgRegs(Frame &Caller, Frame &Callee, const MethodDecl *M,
                   const std::vector<uint32_t> &ArgRegs) {
    if (ArgRegs.size() != M->ParamSyms.size()) {
      setError("wrong argument count for '" + M->Name + "'");
      return;
    }
    for (size_t I = 0; I < ArgRegs.size(); ++I)
      Callee.Locals[M->ParamSyms[I]] = Caller.Locals[ArgRegs[I]];
  }

  void pushCallBc(ThreadCtx &T, const CallOperand &Op) {
    Frame &F = T.Frames.back();
    const MethodDecl *M = resolveMethod(F, Op.ReceiverReg, *Op.Method);
    if (!M)
      return;
    Frame Callee = makeBcFrame(CP.chunkFor(M));
    Callee.Method = M;
    Callee.ReturnTargetSym = Op.TargetReg;
    Callee.Locals[GSym] = Value::refV(GlobalObj);
    Callee.Locals[ThisSym] = local(F, Op.ReceiverReg);
    bindArgRegs(F, Callee, M, Op.ArgRegs);
    if (T.Frames.size() > 512) {
      setError("call stack overflow");
      return;
    }
    T.Frames.push_back(std::move(Callee));
  }

  void doForkBc(ThreadCtx &T, const CallOperand &Op) {
    Frame &F = T.Frames.back();
    Value Recv = local(F, Op.ReceiverReg);
    const MethodDecl *M = resolveMethod(F, Op.ReceiverReg, *Op.Method);
    if (!M)
      return;
    Frame CF = makeBcFrame(CP.chunkFor(M));
    CF.Method = M;
    CF.Locals[GSym] = Value::refV(GlobalObj);
    CF.Locals[ThisSym] = Recv;
    bindArgRegs(F, CF, M, Op.ArgRegs);
    finishFork(T, std::move(CF), Op.TargetReg);
  }

  /// One scheduler step over the compiled stream: free instructions run
  /// until a Step-flagged instruction retires (every control-flow cycle
  /// contains one — the loop exit test — so this cannot spin). Blocked
  /// operations leave PC on themselves and retry; Call and Return exit
  /// immediately because pushing or popping may move the frame vector.
  StepResult stepBc(ThreadCtx &T) {
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
        pushCallBc(T, Ch.Calls[I.A]);
        return StepResult::Progress;
      case Opcode::Fork:
        doForkBc(T, Ch.Calls[I.A]);
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

  //===--- Check execution (shared) ----------------------------------------------

  /// Evaluates a compiled affine bound over the frame's locals. Matches
  /// AffineExpr::evaluate over the string environment: unset locals read
  /// as 0, non-integer locals make the bound undefined.
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
