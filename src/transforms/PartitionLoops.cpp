//===-- transforms/PartitionLoops.cpp -----------------------------------------=//

#include "transforms/PartitionLoops.h"
#include "analysis/Derivatives.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "transforms/Simplify.h"
#include "transforms/Substitute.h"

#include <set>
#include <utility>
#include <vector>

using namespace halide;

namespace {

/// What rules a loop body out (a nested loop, a vector value) and which
/// names it binds.
class BodyShape : public IRVisitor {
public:
  bool HasLoop = false, HasVector = false;
  std::set<std::string> Bound;

  void visit(const For *) override { HasLoop = true; }
  void visit(const Ramp *) override { HasVector = true; }
  void visit(const Broadcast *) override { HasVector = true; }
  void visit(const Let *Op) override {
    Bound.insert(Op->Name);
    IRVisitor::visit(Op);
  }
  void visit(const LetStmt *Op) override {
    Bound.insert(Op->Name);
    IRVisitor::visit(Op);
  }
};

/// Clears Invariant if the expression reads memory, calls anything, binds
/// a name, or uses a name that varies across the loop.
class InvariantCheck : public IRVisitor {
public:
  explicit InvariantCheck(const std::set<std::string> &Varying)
      : Varying(Varying) {}

  bool Invariant = true;

  void visit(const Variable *Op) override {
    if (Varying.count(Op->Name))
      Invariant = false;
  }
  void visit(const Load *) override { Invariant = false; }
  void visit(const Call *) override { Invariant = false; }
  void visit(const Let *) override { Invariant = false; }

private:
  const std::set<std::string> &Varying;
};

/// True if \p E has the same value on every iteration of a loop whose
/// body binds \p Varying (see InvariantCheck).
bool loopInvariant(const Expr &E, const std::set<std::string> &Varying) {
  InvariantCheck Check(Varying);
  E.accept(&Check);
  return Check.Invariant;
}

/// One side of a clamp of Stride * x + Offset: a max keeps the value at
/// or above Bound, a min at or below it.
struct ClampSide {
  int64_t Stride;
  Expr Offset, Bound;
  bool IsLower;
};

/// Rewrites a loop body into its steady-state copy: every load whose index
/// has stride +-1 in the loop variable once its clamps of that variable are
/// dropped loses those clamps. Sides collects the dropped clamps.
class DropClamps : public IRMutator {
public:
  DropClamps(const std::string &Var, const std::set<std::string> &Varying)
      : Var(Var), Varying(Varying) {}

  std::vector<ClampSide> Sides;

protected:
  Expr visit(const Load *Op) override {
    Expr Index = mutate(Op->Index);
    std::vector<ClampSide> Found;
    Expr Stripped = stripClamps(Index, &Found);
    int64_t Stride;
    if (!Found.empty() && affineStride(Stripped, Var, &Stride) &&
        (Stride == 1 || Stride == -1)) {
      Sides.insert(Sides.end(), Found.begin(), Found.end());
      Index = Stripped;
    }
    if (Index.sameAs(Op->Index))
      return Op;
    return Load::make(Op->NodeType, Op->Name, Index);
  }

private:
  bool invariant(const Expr &E) const { return loopInvariant(E, Varying); }

  /// Matches a chain of mins and maxes, each with one loop-invariant
  /// operand, around a core that varies with the loop (a clamp is the
  /// chain max(min(e, hi), lo)). Returns the core (undefined if E is no
  /// such chain) and appends each node's bound to \p Bounds.
  Expr clampCore(const Expr &E, std::vector<std::pair<Expr, bool>> *Bounds) {
    const Min *Mn = E.as<Min>();
    const Max *Mx = E.as<Max>();
    if (!Mn && !Mx)
      return Expr();
    Expr A = Mn ? Mn->A : Mx->A, B = Mn ? Mn->B : Mx->B;
    if (!invariant(B))
      std::swap(A, B);
    if (!invariant(B) || invariant(A))
      return Expr();
    Bounds->push_back({B, Mx != nullptr});
    Expr Inner = clampCore(A, Bounds);
    return Inner.defined() ? Inner : A;
  }

  /// Replaces the clamps of affine functions of the loop variable in the
  /// additive terms of \p E by the functions themselves.
  Expr stripClamps(const Expr &E, std::vector<ClampSide> *Found) {
    if (const Add *Op = E.as<Add>())
      return stripBinary<Add>(Op, Found);
    if (const Sub *Op = E.as<Sub>())
      return stripBinary<Sub>(Op, Found);
    if (const Mul *Op = E.as<Mul>())
      return stripBinary<Mul>(Op, Found);
    std::vector<std::pair<Expr, bool>> Bounds;
    Expr Core = clampCore(E, &Bounds);
    int64_t Stride;
    if (!Core.defined() || Core.type() != Int(32) ||
        !affineStride(Core, Var, &Stride) || Stride == 0)
      return E;
    Expr Offset = simplify(substitute(Var, makeZero(Int(32)), Core));
    if (!invariant(Offset))
      return E;
    for (const auto &[Bound, IsLower] : Bounds)
      Found->push_back({Stride, Offset, Bound, IsLower});
    return Core;
  }

  template <typename OpT>
  Expr stripBinary(const OpT *Op, std::vector<ClampSide> *Found) {
    Expr A = stripClamps(Op->A, Found), B = stripClamps(Op->B, Found);
    if (A.sameAs(Op->A) && B.sameAs(Op->B))
      return Op;
    return OpT::make(A, B);
  }

  const std::string &Var;
  const std::set<std::string> &Varying;
};

Expr toInt64(const Expr &E) { return cast(Int(64), E); }

/// ceil(N / D) for a positive constant D, with Div's floor semantics.
Expr divCeil(const Expr &N, int64_t D) {
  if (D == 1)
    return N;
  return (N + makeConst(Int(64), D - 1)) / makeConst(Int(64), D);
}

/// floor(N / D) for a positive constant D.
Expr divFloor(const Expr &N, int64_t D) {
  if (D == 1)
    return N;
  return N / makeConst(Int(64), D);
}

class PartitionLoopsPass : public IRMutator {
protected:
  Stmt visit(const For *Op) override {
    if (Op->Kind != ForType::Serial)
      return IRMutator::visit(Op);
    BodyShape Shape;
    Op->Body.accept(&Shape);
    if (Shape.HasLoop)
      return IRMutator::visit(Op);
    // The three loops evaluate the bounds more than once: a bound that
    // reads memory would change the load counts.
    if (Shape.HasVector || !loopInvariant(Op->MinExpr, {}) ||
        !loopInvariant(Op->Extent, {}))
      return Op;

    std::set<std::string> Varying = Shape.Bound;
    Varying.insert(Op->Name);
    DropClamps Drop(Op->Name, Varying);
    Stmt Steady = Drop.mutate(Op->Body);
    if (Drop.Sides.empty())
      return Op;

    // Each side of a clamp of c*x + b is a no-op on a half-line of x:
    // x >= ceil((lo - b) / c) or x <= floor((hi - b) / c) for c > 0, the
    // other way round for c < 0. 64-bit, so bounds at the int32 limits
    // cannot overflow.
    Expr Begin, Last;
    for (const ClampSide &Side : Drop.Sides) {
      const bool Positive = Side.Stride > 0;
      const int64_t Scale = Positive ? Side.Stride : -Side.Stride;
      Expr Diff = Positive ? toInt64(Side.Bound) - toInt64(Side.Offset)
                           : toInt64(Side.Offset) - toInt64(Side.Bound);
      if (Side.IsLower == Positive) {
        Expr Limit = divCeil(Diff, Scale);
        Begin = Begin.defined() ? max(Begin, Limit) : Limit;
      } else {
        Expr Limit = divFloor(Diff, Scale);
        Last = Last.defined() ? min(Last, Limit) : Limit;
      }
    }
    Expr LoopMin = toInt64(Op->MinExpr);
    Expr LoopEnd = LoopMin + toInt64(Op->Extent);
    Expr BeginValue = Begin.defined() ? min(max(Begin, LoopMin), LoopEnd)
                                      : LoopMin;
    const std::string BeginName = Op->Name + ".steady_begin";
    const std::string EndName = Op->Name + ".steady_end";
    Expr BeginVar = Variable::make(Int(32), BeginName);
    Expr EndVar = Variable::make(Int(32), EndName);
    Expr EndValue =
        Last.defined()
            ? max(min(Last + makeOne(Int(64)), LoopEnd), toInt64(BeginVar))
            : LoopEnd;

    Stmt Loops = Block::make(std::vector<Stmt>{
        For::make(Op->Name, Op->MinExpr, simplify(BeginVar - Op->MinExpr),
                  ForType::Serial, Op->Body),
        For::make(Op->Name, BeginVar, EndVar - BeginVar, ForType::Serial,
                  simplify(Steady)),
        For::make(Op->Name, EndVar,
                  simplify(Op->MinExpr + Op->Extent - EndVar),
                  ForType::Serial, Op->Body)});
    Loops = LetStmt::make(EndName, simplify(cast(Int(32), EndValue)), Loops);
    return LetStmt::make(BeginName, simplify(cast(Int(32), BeginValue)),
                         Loops);
  }
};

} // namespace

Stmt halide::partitionLoops(const Stmt &S) {
  PartitionLoopsPass Pass;
  return Pass.mutate(S);
}
