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
/// Which local a statement assigns, which locals it reads and which heap
/// location it accesses are answered once, by definedVar, forEachVar and
/// accessPath at the end of this file; every pass asks them. renameUses
/// rewrites the locals a statement reads, and it goes through the same list
/// as definedVar and forEachVar, so what a pass counts is what it renames.
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
  AssignStmt(std::string Target, std::unique_ptr<Expr> Value)
      : Stmt(StmtKind::Assign), Target(std::move(Target)),
        Value(std::move(Value)) {}

  const std::string &target() const { return Target; }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

private:
  std::string Target;
  std::unique_ptr<Expr> Value;
};

/// Target <- Source: copies Source into the fresh variable Target and (in
/// the static analysis) renames Source to Target throughout the history
/// ([RENAME], Section 3.4). Operationally a plain copy.
class RenameStmt : public Stmt {
public:
  RenameStmt(std::string Target, std::string Source)
      : Stmt(StmtKind::Rename), Target(std::move(Target)),
        Source(std::move(Source)) {}

  const std::string &target() const { return Target; }
  const std::string &source() const { return Source; }
  std::string &source() { return Source; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Rename; }

private:
  std::string Target;
  std::string Source;
};

/// acq(x): acquires the lock of the object named by x.
class AcquireStmt : public Stmt {
public:
  explicit AcquireStmt(std::string LockVar)
      : Stmt(StmtKind::Acquire), LockVar(std::move(LockVar)) {}

  const std::string &lockVar() const { return LockVar; }
  std::string &lockVar() { return LockVar; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Acquire; }

private:
  std::string LockVar;
};

/// rel(x): releases the lock of the object named by x.
class ReleaseStmt : public Stmt {
public:
  explicit ReleaseStmt(std::string LockVar)
      : Stmt(StmtKind::Release), LockVar(std::move(LockVar)) {}

  const std::string &lockVar() const { return LockVar; }
  std::string &lockVar() { return LockVar; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Release; }

private:
  std::string LockVar;
};

/// x = new C.
class NewStmt : public Stmt {
public:
  NewStmt(std::string Target, std::string ClassName)
      : Stmt(StmtKind::New), Target(std::move(Target)),
        ClassName(std::move(ClassName)) {}

  const std::string &target() const { return Target; }
  const std::string &className() const { return ClassName; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::New; }

private:
  std::string Target;
  std::string ClassName;
};

/// x = new_array e.
class NewArrayStmt : public Stmt {
public:
  NewArrayStmt(std::string Target, std::unique_ptr<Expr> Size)
      : Stmt(StmtKind::NewArray), Target(std::move(Target)),
        Size(std::move(Size)) {}

  const std::string &target() const { return Target; }
  const Expr *size() const { return Size.get(); }
  Expr *size() { return Size.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::NewArray;
  }

private:
  std::string Target;
  std::unique_ptr<Expr> Size;
};

/// x = y.f.
class FieldReadStmt : public Stmt {
public:
  FieldReadStmt(std::string Target, std::string Object, std::string Field)
      : Stmt(StmtKind::FieldRead), Target(std::move(Target)),
        Object(std::move(Object)), Field(std::move(Field)) {}

  const std::string &target() const { return Target; }
  const std::string &object() const { return Object; }
  std::string &object() { return Object; }
  const std::string &field() const { return Field; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::FieldRead;
  }

private:
  std::string Target;
  std::string Object;
  std::string Field;
};

/// y.f = e.
class FieldWriteStmt : public Stmt {
public:
  FieldWriteStmt(std::string Object, std::string Field,
                 std::unique_ptr<Expr> Value)
      : Stmt(StmtKind::FieldWrite), Object(std::move(Object)),
        Field(std::move(Field)), Value(std::move(Value)) {}

  const std::string &object() const { return Object; }
  std::string &object() { return Object; }
  const std::string &field() const { return Field; }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::FieldWrite;
  }

private:
  std::string Object;
  std::string Field;
  std::unique_ptr<Expr> Value;
};

/// x = y[e]. The index must convert via toAffine (validated), preserving
/// the paper's property that every access has an expressible check path.
class ArrayReadStmt : public Stmt {
public:
  ArrayReadStmt(std::string Target, std::string Array,
                std::unique_ptr<Expr> Index)
      : Stmt(StmtKind::ArrayRead), Target(std::move(Target)),
        Array(std::move(Array)), Index(std::move(Index)) {}

  const std::string &target() const { return Target; }
  const std::string &array() const { return Array; }
  std::string &array() { return Array; }
  const Expr *index() const { return Index.get(); }
  Expr *index() { return Index.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayRead;
  }

private:
  std::string Target;
  std::string Array;
  std::unique_ptr<Expr> Index;
};

/// y[e1] = e2. Same index restriction as ArrayReadStmt.
class ArrayWriteStmt : public Stmt {
public:
  ArrayWriteStmt(std::string Array, std::unique_ptr<Expr> Index,
                 std::unique_ptr<Expr> Value)
      : Stmt(StmtKind::ArrayWrite), Array(std::move(Array)),
        Index(std::move(Index)), Value(std::move(Value)) {}

  const std::string &array() const { return Array; }
  std::string &array() { return Array; }
  const Expr *index() const { return Index.get(); }
  Expr *index() { return Index.get(); }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayWrite;
  }

private:
  std::string Array;
  std::unique_ptr<Expr> Index;
  std::unique_ptr<Expr> Value;
};

/// x = len(y). Array length is immutable metadata: never checked, exactly
/// as Java array lengths are race-free.
class ArrayLenStmt : public Stmt {
public:
  ArrayLenStmt(std::string Target, std::string Array)
      : Stmt(StmtKind::ArrayLen), Target(std::move(Target)),
        Array(std::move(Array)) {}

  const std::string &target() const { return Target; }
  const std::string &array() const { return Array; }
  std::string &array() { return Array; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayLen;
  }

private:
  std::string Target;
  std::string Array;
};

/// x = y.m(args).
class CallStmt : public Stmt {
public:
  CallStmt(std::string Target, std::string Receiver, std::string Method,
           std::vector<std::unique_ptr<Expr>> Args)
      : Stmt(StmtKind::Call), Target(std::move(Target)),
        Receiver(std::move(Receiver)), Method(std::move(Method)),
        Args(std::move(Args)) {}

  const std::string &target() const { return Target; }
  const std::string &receiver() const { return Receiver; }
  std::string &receiver() { return Receiver; }
  const std::string &method() const { return Method; }
  const std::vector<std::unique_ptr<Expr>> &args() const { return Args; }
  std::vector<std::unique_ptr<Expr>> &args() { return Args; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Call; }

private:
  std::string Target;
  std::string Receiver;
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
  ForkStmt(std::string Target, std::string Receiver, std::string Method,
           std::vector<std::unique_ptr<Expr>> Args)
      : Stmt(StmtKind::Fork), Target(std::move(Target)),
        Receiver(std::move(Receiver)), Method(std::move(Method)),
        Args(std::move(Args)) {}

  const std::string &target() const { return Target; }
  const std::string &receiver() const { return Receiver; }
  std::string &receiver() { return Receiver; }
  const std::string &method() const { return Method; }
  const std::vector<std::unique_ptr<Expr>> &args() const { return Args; }
  std::vector<std::unique_ptr<Expr>> &args() { return Args; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Fork; }

private:
  std::string Target;
  std::string Receiver;
  std::string Method;
  std::vector<std::unique_ptr<Expr>> Args;
};

/// join x: blocks until the thread named by handle x terminates; an
/// acquire-like HB edge flows from the child's end into the joiner.
class JoinStmt : public Stmt {
public:
  explicit JoinStmt(std::string Handle)
      : Stmt(StmtKind::Join), Handle(std::move(Handle)) {}

  const std::string &handle() const { return Handle; }
  std::string &handle() { return Handle; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Join; }

private:
  std::string Handle;
};

/// x = new_barrier e: creates a cyclic barrier for e parties.
class NewBarrierStmt : public Stmt {
public:
  NewBarrierStmt(std::string Target, std::unique_ptr<Expr> Parties)
      : Stmt(StmtKind::NewBarrier), Target(std::move(Target)),
        Parties(std::move(Parties)) {}

  const std::string &target() const { return Target; }
  const Expr *parties() const { return Parties.get(); }
  Expr *parties() { return Parties.get(); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::NewBarrier;
  }

private:
  std::string Target;
  std::unique_ptr<Expr> Parties;
};

/// await x: waits on the barrier object named by x. All parties
/// release-then-acquire, creating all-to-all HB edges. JavaGrande
/// kernels are barrier-structured; the paper fixed racy hand-rolled
/// barriers in several of them, which our native barrier models.
class AwaitStmt : public Stmt {
public:
  explicit AwaitStmt(std::string BarrierVar)
      : Stmt(StmtKind::Await), BarrierVar(std::move(BarrierVar)) {}

  const std::string &barrierVar() const { return BarrierVar; }
  std::string &barrierVar() { return BarrierVar; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Await; }

private:
  std::string BarrierVar;
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
/// assignment, rename, allocation, heap read, length, call or fork. Null
/// for any other statement and for a discarded call or fork result ("" or
/// "_").
const std::string *definedVar(const Stmt *S);

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
void renameUses(Stmt *S, const std::string &From, const std::string &To);

/// The check path of a heap access statement (x = y.f, y.f = e, x = y[e]
/// or y[e1] = e2), or nullopt for any other statement. A volatile field
/// access has a path too; it is the caller that treats it as
/// synchronization. Validated programs have affine indices.
std::optional<Path> accessPath(const Stmt *S);

} // namespace bigfoot

#endif // BIGFOOT_BFJ_STMT_H
