//===- Stmt.h - BFJ statement AST -------------------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BFJ statements in A-normal form (Figure 5), extended with the
/// synchronization operations the full implementation supports (Section 5):
/// fork/join, barriers, and volatile fields (declared on classes). The
/// loop construct keeps the paper's shape — a body, an exit test in the
/// middle, and a back-edge body:
///
///   loop { PreBody; if (ExitCond) break; PostBody }
///
/// Heap accesses are statements, never subexpressions, so each access site
/// is a unique program point for check placement.
///
/// Every local and field a statement names is an interned VarName handle
/// (support/VarName.h), read once by the parser; class and method names
/// stay strings. Which local a statement assigns, which locals it reads
/// and which heap location it accesses are answered once, by definedVar,
/// forEachVar and accessPath at the end of this file; every pass asks
/// them. renameUses rewrites the locals a statement reads, and it goes
/// through the same list as definedVar and forEachVar, so what a pass
/// counts is what it renames.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_BFJ_STMT_H
#define BIGFOOT_BFJ_STMT_H

#include "bfj/Expr.h"
#include "bfj/Path.h"
#include "support/Casting.h"

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace bigfoot {

enum class StmtKind {
  Skip,
  Block,
  If,
  Loop,
  Assign,
  Rename,
  Acquire,
  Release,
  New,
  NewArray,
  FieldRead,
  FieldWrite,
  ArrayRead,
  ArrayWrite,
  ArrayLen,
  Call,
  Check,
  Fork,
  Join,
  NewBarrier,
  Await,
  Print,
  AssertStmt,
};

/// Base class of all BFJ statements.
class Stmt {
public:
  explicit Stmt(StmtKind K) : Kind(K) {}
  virtual ~Stmt() = default;

  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;

  StmtKind kind() const { return Kind; }

  /// Stable site id, assigned by Program::numberStatements. Race reports
  /// and the precision oracle key on it.
  unsigned id() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  /// Deep copy (ids are copied too).
  virtual std::unique_ptr<Stmt> clone() const = 0;

private:
  const StmtKind Kind;
  unsigned Id = 0;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// The no-op statement.
class SkipStmt : public Stmt {
public:
  SkipStmt() : Stmt(StmtKind::Skip) {}
  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Skip; }
};

/// A sequence of statements ("s; s" generalized to n-ary for convenience).
class BlockStmt : public Stmt {
public:
  BlockStmt() : Stmt(StmtKind::Block) {}
  explicit BlockStmt(std::vector<StmtPtr> Stmts)
      : Stmt(StmtKind::Block), Stmts(std::move(Stmts)) {}

  const std::vector<StmtPtr> &stmts() const { return Stmts; }
  std::vector<StmtPtr> &stmts() { return Stmts; }
  void append(StmtPtr S) { Stmts.push_back(std::move(S)); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Block; }

private:
  std::vector<StmtPtr> Stmts;
};

/// if (Cond) Then else Else.
class IfStmt : public Stmt {
public:
  IfStmt(std::unique_ptr<Expr> Cond, StmtPtr Then, StmtPtr Else)
      : Stmt(StmtKind::If), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Expr *cond() const { return Cond.get(); }
  Expr *cond() { return Cond.get(); }
  Stmt *thenStmt() const { return Then.get(); }
  Stmt *elseStmt() const { return Else.get(); }

  /// Mutable access for analysis rewrites (block normalization, check
  /// insertion).
  StmtPtr &thenRef() { return Then; }
  StmtPtr &elseRef() { return Else; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  std::unique_ptr<Expr> Cond;
  StmtPtr Then;
  StmtPtr Else;
};

/// loop { PreBody; if (ExitCond) break; PostBody } — the paper's loop with
/// the exit test in the middle. `while (c) body` parses to
/// loop { skip; if (!c) break; body }.
class LoopStmt : public Stmt {
public:
  LoopStmt(StmtPtr PreBody, std::unique_ptr<Expr> ExitCond, StmtPtr PostBody)
      : Stmt(StmtKind::Loop), PreBody(std::move(PreBody)),
        ExitCond(std::move(ExitCond)), PostBody(std::move(PostBody)) {}

  Stmt *preBody() const { return PreBody.get(); }
  const Expr *exitCond() const { return ExitCond.get(); }
  Expr *exitCond() { return ExitCond.get(); }
  Stmt *postBody() const { return PostBody.get(); }

  /// Mutable access for analysis rewrites.
  StmtPtr &preRef() { return PreBody; }
  StmtPtr &postRef() { return PostBody; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Loop; }

private:
  StmtPtr PreBody;
  std::unique_ptr<Expr> ExitCond;
  StmtPtr PostBody;
};

/// x = e (e side-effect free, heap-free).
class AssignStmt : public Stmt {
public:
  AssignStmt(VarName Target, std::unique_ptr<Expr> Value)
      : Stmt(StmtKind::Assign), Target(Target), Value(std::move(Value)) {}

  VarName target() const { return Target; }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

private:
  VarName Target;
  std::unique_ptr<Expr> Value;
};

/// Target <- Source: copies Source into the fresh variable Target and (in
/// the static analysis) renames Source to Target throughout the history
/// ([RENAME], Section 3.4). Operationally a plain copy.
class RenameStmt : public Stmt {
public:
  RenameStmt(VarName Target, VarName Source)
      : Stmt(StmtKind::Rename), Target(Target), Source(Source) {}

  VarName target() const { return Target; }
  VarName source() const { return Source; }
  VarName &source() { return Source; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Rename; }

private:
  VarName Target;
  VarName Source;
};

/// acq(x): acquires the lock of the object named by x.
class AcquireStmt : public Stmt {
public:
  explicit AcquireStmt(VarName LockVar)
      : Stmt(StmtKind::Acquire), LockVar(LockVar) {}

  VarName lockVar() const { return LockVar; }
  VarName &lockVar() { return LockVar; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Acquire; }

private:
  VarName LockVar;
};

/// rel(x): releases the lock of the object named by x.
class ReleaseStmt : public Stmt {
public:
  explicit ReleaseStmt(VarName LockVar)
      : Stmt(StmtKind::Release), LockVar(LockVar) {}

  VarName lockVar() const { return LockVar; }
  VarName &lockVar() { return LockVar; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Release; }

private:
  VarName LockVar;
};

/// x = new C.
class NewStmt : public Stmt {
public:
  NewStmt(VarName Target, std::string ClassName)
      : Stmt(StmtKind::New), Target(Target), ClassName(std::move(ClassName)) {}

  VarName target() const { return Target; }
  const std::string &className() const { return ClassName; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::New; }

private:
  VarName Target;
  std::string ClassName;
};

/// x = new_array e.
class NewArrayStmt : public Stmt {
public:
  NewArrayStmt(VarName Target, std::unique_ptr<Expr> Size)
      : Stmt(StmtKind::NewArray), Target(Target), Size(std::move(Size)) {}

  VarName target() const { return Target; }
  const Expr *size() const { return Size.get(); }
  Expr *size() { return Size.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::NewArray;
  }

private:
  VarName Target;
  std::unique_ptr<Expr> Size;
};

/// x = y.f.
class FieldReadStmt : public Stmt {
public:
  FieldReadStmt(VarName Target, VarName Object, VarName Field)
      : Stmt(StmtKind::FieldRead), Target(Target), Object(Object),
        Field(Field) {}

  VarName target() const { return Target; }
  VarName object() const { return Object; }
  VarName &object() { return Object; }
  VarName field() const { return Field; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::FieldRead;
  }

private:
  VarName Target;
  VarName Object;
  VarName Field;
};

/// y.f = e.
class FieldWriteStmt : public Stmt {
public:
  FieldWriteStmt(VarName Object, VarName Field,
                 std::unique_ptr<Expr> Value)
      : Stmt(StmtKind::FieldWrite), Object(Object), Field(Field),
        Value(std::move(Value)) {}

  VarName object() const { return Object; }
  VarName &object() { return Object; }
  VarName field() const { return Field; }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::FieldWrite;
  }

private:
  VarName Object;
  VarName Field;
  std::unique_ptr<Expr> Value;
};

/// x = y[e]. The index must convert via toAffine (validated), preserving
/// the paper's property that every access has an expressible check path.
class ArrayReadStmt : public Stmt {
public:
  ArrayReadStmt(VarName Target, VarName Array,
                std::unique_ptr<Expr> Index)
      : Stmt(StmtKind::ArrayRead), Target(Target), Array(Array),
        Index(std::move(Index)) {}

  VarName target() const { return Target; }
  VarName array() const { return Array; }
  VarName &array() { return Array; }
  const Expr *index() const { return Index.get(); }
  Expr *index() { return Index.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayRead;
  }

private:
  VarName Target;
  VarName Array;
  std::unique_ptr<Expr> Index;
};

/// y[e1] = e2. Same index restriction as ArrayReadStmt.
class ArrayWriteStmt : public Stmt {
public:
  ArrayWriteStmt(VarName Array, std::unique_ptr<Expr> Index,
                 std::unique_ptr<Expr> Value)
      : Stmt(StmtKind::ArrayWrite), Array(Array),
        Index(std::move(Index)), Value(std::move(Value)) {}

  VarName array() const { return Array; }
  VarName &array() { return Array; }
  const Expr *index() const { return Index.get(); }
  Expr *index() { return Index.get(); }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayWrite;
  }

private:
  VarName Array;
  std::unique_ptr<Expr> Index;
  std::unique_ptr<Expr> Value;
};

/// x = len(y). Array length is immutable metadata: never checked, exactly
/// as Java array lengths are race-free.
class ArrayLenStmt : public Stmt {
public:
  ArrayLenStmt(VarName Target, VarName Array)
      : Stmt(StmtKind::ArrayLen), Target(Target), Array(Array) {}

  VarName target() const { return Target; }
  VarName array() const { return Array; }
  VarName &array() { return Array; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayLen;
  }

private:
  VarName Target;
  VarName Array;
};

/// x = y.m(args).
class CallStmt : public Stmt {
public:
  CallStmt(VarName Target, VarName Receiver, std::string Method,
           std::vector<std::unique_ptr<Expr>> Args)
      : Stmt(StmtKind::Call), Target(Target), Receiver(Receiver),
        Method(std::move(Method)), Args(std::move(Args)) {}

  VarName target() const { return Target; }
  VarName receiver() const { return Receiver; }
  VarName &receiver() { return Receiver; }
  const std::string &method() const { return Method; }
  const std::vector<std::unique_ptr<Expr>> &args() const { return Args; }
  std::vector<std::unique_ptr<Expr>> &args() { return Args; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Call; }

private:
  VarName Target;
  VarName Receiver;
  std::string Method;
  std::vector<std::unique_ptr<Expr>> Args;
};

/// check(C): race-checks every path in C. Inserted by the instrumenters;
/// executing it performs the corresponding shadow-location operations in
/// the attached detector tool. No path's range may be overflowed: such a
/// range has no int64 bounds to check.
class CheckStmt : public Stmt {
public:
  explicit CheckStmt(std::vector<Path> Paths)
      : Stmt(StmtKind::Check), Paths(std::move(Paths)) {
    for ([[maybe_unused]] const Path &P : this->Paths)
      assert(!P.Range.overflowed() && "check range overflows int64");
  }

  const std::vector<Path> &paths() const { return Paths; }
  std::vector<Path> &paths() { return Paths; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Check; }

private:
  std::vector<Path> Paths;
};

/// fork x = y.m(args): spawns a thread running y.m(args); x holds the
/// thread handle. A release-like HB edge flows from the parent into the
/// child's start (Thread.start in Section 5).
class ForkStmt : public Stmt {
public:
  ForkStmt(VarName Target, VarName Receiver, std::string Method,
           std::vector<std::unique_ptr<Expr>> Args)
      : Stmt(StmtKind::Fork), Target(Target), Receiver(Receiver),
        Method(std::move(Method)), Args(std::move(Args)) {}

  VarName target() const { return Target; }
  VarName receiver() const { return Receiver; }
  VarName &receiver() { return Receiver; }
  const std::string &method() const { return Method; }
  const std::vector<std::unique_ptr<Expr>> &args() const { return Args; }
  std::vector<std::unique_ptr<Expr>> &args() { return Args; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Fork; }

private:
  VarName Target;
  VarName Receiver;
  std::string Method;
  std::vector<std::unique_ptr<Expr>> Args;
};

/// join x: blocks until the thread named by handle x terminates; an
/// acquire-like HB edge flows from the child's end into the joiner.
class JoinStmt : public Stmt {
public:
  explicit JoinStmt(VarName Handle)
      : Stmt(StmtKind::Join), Handle(Handle) {}

  VarName handle() const { return Handle; }
  VarName &handle() { return Handle; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Join; }

private:
  VarName Handle;
};

/// x = new_barrier e: creates a cyclic barrier for e parties.
class NewBarrierStmt : public Stmt {
public:
  NewBarrierStmt(VarName Target, std::unique_ptr<Expr> Parties)
      : Stmt(StmtKind::NewBarrier), Target(Target),
        Parties(std::move(Parties)) {}

  VarName target() const { return Target; }
  const Expr *parties() const { return Parties.get(); }
  Expr *parties() { return Parties.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::NewBarrier;
  }

private:
  VarName Target;
  std::unique_ptr<Expr> Parties;
};

/// await x: waits on the barrier object named by x. All parties
/// release-then-acquire, creating all-to-all HB edges. JavaGrande
/// kernels are barrier-structured; the paper fixed racy hand-rolled
/// barriers in several of them, which our native barrier models.
class AwaitStmt : public Stmt {
public:
  explicit AwaitStmt(VarName BarrierVar)
      : Stmt(StmtKind::Await), BarrierVar(BarrierVar) {}

  VarName barrierVar() const { return BarrierVar; }
  VarName &barrierVar() { return BarrierVar; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Await; }

private:
  VarName BarrierVar;
};

/// print e: writes a value to the VM's output channel (examples/tests).
class PrintStmt : public Stmt {
public:
  explicit PrintStmt(std::unique_ptr<Expr> Value)
      : Stmt(StmtKind::Print), Value(std::move(Value)) {}

  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Print; }

private:
  std::unique_ptr<Expr> Value;
};

/// assert e: VM halts with an error when e is false. Workloads use it to
/// self-validate their computation.
class AssertStmtNode : public Stmt {
public:
  explicit AssertStmtNode(std::unique_ptr<Expr> Cond)
      : Stmt(StmtKind::AssertStmt), Cond(std::move(Cond)) {}

  const Expr *cond() const { return Cond.get(); }
  Expr *cond() { return Cond.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::AssertStmt;
  }

private:
  std::unique_ptr<Expr> Cond;
};

//===----------------------------------------------------------------------===//
// What a statement defines, reads and accesses
//===----------------------------------------------------------------------===//

/// The local the simple statement \p S assigns: the target of an
/// assignment, rename, allocation, heap read, length, call or fork. The
/// null handle for any other statement and for a discarded call or fork
/// result (a null target or "_").
VarName definedVar(const Stmt *S);

/// Calls \p Visit on every local \p S defines or reads, once per
/// occurrence: definedVar(S) first, then its operands, including an If,
/// Loop or assert condition and each check path's designator and bound
/// variables. The statements nested in a Block, If or Loop are not
/// visited; walkStmt reaches them.
void forEachVar(const Stmt *S, const VarVisitor &Visit);

/// Calls \p Visit on \p P's designator, then on each variable term of its
/// range's begin and end bounds.
void forEachVar(const Path &P, const VarVisitor &Visit);

/// Renames, in place, every occurrence of \p From that forEachVar(S)
/// visits after definedVar(S): S's name and expression operands, its
/// condition and each check path's designator and bounds. The target
/// stays, and so do the statements nested in a Block, If or Loop.
void renameUses(Stmt *S, VarName From, VarName To);

/// The check path of a heap access statement (x = y.f, y.f = e, x = y[e]
/// or y[e1] = e2), or nullopt for any other statement. A volatile field
/// access has a path too; it is the caller that treats it as
/// synchronization. Validated programs have affine indices.
std::optional<Path> accessPath(const Stmt *S);

} // namespace bigfoot

#endif // BIGFOOT_BFJ_STMT_H
