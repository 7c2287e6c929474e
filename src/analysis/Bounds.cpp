//===-- analysis/Bounds.cpp -------------------------------------------------=//

#include "analysis/Bounds.h"
#include "ir/IREquality.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"

#include <unordered_set>

using namespace halide;

namespace {

/// Interval evaluation of expressions. One visit() per node kind; the
/// current result is kept in `Result`. Let values are bound through the
/// sharing ledger: the value's bounds are computed once, then every use of
/// the let variable sees a small stand-in (the canonicalized expression,
/// or a ledger name when it is large), never a re-expanded copy.
class BoundsVisitor : public IRVisitor {
public:
  /// \p SharedInner lets a caller walking a statement (BoxTouched) hand
  /// its accumulated inner bindings to every nested expression walk
  /// without copying the scope per expression.
  BoundsVisitor(const Scope<Interval> &VarScope, ExprLedger *Ledger,
                Scope<Interval> *SharedInner = nullptr)
      : Ledger(Ledger), Inner(SharedInner ? SharedInner : &OwnInner),
        Outer(VarScope) {}

  Interval bounds(const Expr &E) {
    E.accept(this);
    return Result;
  }

  void visit(const IntImm *Op) override {
    Result = Interval::single(Expr(Op));
  }
  void visit(const UIntImm *Op) override {
    Result = Interval::single(Expr(Op));
  }
  void visit(const FloatImm *Op) override {
    Result = Interval::single(Expr(Op));
  }
  void visit(const StringImm *) override { Result = Interval::everything(); }

  void visit(const Variable *Op) override {
    if (Inner->contains(Op->Name)) {
      Result = Inner->get(Op->Name);
      return;
    }
    if (Outer.contains(Op->Name)) {
      Result = Outer.get(Op->Name);
      return;
    }
    // Unknown variables stay symbolic: the interval is the point [v, v].
    Result = Interval::single(Expr(Op));
  }

  void visit(const Cast *Op) override {
    Interval A = bounds(Op->Value);
    Type From = Op->Value.type().element();
    Type To = Op->NodeType.element();
    // Widening integer casts and int->float casts are monotonic: bounds cast
    // through. Anything else falls back to the target type's full range
    // (finite, so clamped gathers still get usable allocation bounds).
    bool Monotone =
        (From.isInt() || From.isUInt()) &&
        ((To.isFloat()) ||
         ((To.isInt() || To.isUInt()) && To.Bits >= From.Bits &&
          !(From.isInt() && To.isUInt())));
    if (Monotone && A.isBounded()) {
      Result = Interval(cast(To, A.Min), cast(To, A.Max));
      return;
    }
    if (To.isFloat() && A.isBounded() && From.isFloat() && To.Bits >= From.Bits) {
      Result = Interval(cast(To, A.Min), cast(To, A.Max));
      return;
    }
    if (To.isHandle()) {
      Result = Interval::everything();
      return;
    }
    Result = Interval(makeTypeMin(To), makeTypeMax(To));
  }

  void visit(const Add *Op) override {
    Interval A = bounds(Op->A), B = bounds(Op->B);
    Result.Min = (A.hasLowerBound() && B.hasLowerBound()) ? A.Min + B.Min
                                                          : Expr();
    Result.Max = (A.hasUpperBound() && B.hasUpperBound()) ? A.Max + B.Max
                                                          : Expr();
  }

  void visit(const Sub *Op) override {
    Interval A = bounds(Op->A), B = bounds(Op->B);
    Result.Min = (A.hasLowerBound() && B.hasUpperBound()) ? A.Min - B.Max
                                                          : Expr();
    Result.Max = (A.hasUpperBound() && B.hasLowerBound()) ? A.Max - B.Min
                                                          : Expr();
  }

  void visit(const Mul *Op) override {
    Interval A = bounds(Op->A), B = bounds(Op->B);
    // Scale by a single point (the common case: tile sizes, strides).
    if (B.isSinglePoint() && isConst(B.Min)) {
      scaleByConstPoint(A, B.Min);
      return;
    }
    if (A.isSinglePoint() && isConst(A.Min)) {
      scaleByConstPoint(B, A.Min);
      return;
    }
    if (A.isSinglePoint() && B.isSinglePoint()) {
      Result = Interval::single(A.Min * B.Min);
      return;
    }
    // General case: min/max over the four corners, when fully bounded.
    if (A.isBounded() && B.isBounded()) {
      Expr C0 = A.Min * B.Min, C1 = A.Min * B.Max;
      Expr C2 = A.Max * B.Min, C3 = A.Max * B.Max;
      Result.Min = min(min(C0, C1), min(C2, C3));
      Result.Max = max(max(C0, C1), max(C2, C3));
      return;
    }
    Result = Interval::everything();
  }

  void visit(const Div *Op) override {
    Interval A = bounds(Op->A), B = bounds(Op->B);
    // Only constant, nonzero divisors are handled precisely; image code
    // divides by tile sizes and pyramid strides, which are constants.
    int64_t DivisorValue;
    double DivisorFloat;
    if (B.isSinglePoint() && asConstInt(B.Min, &DivisorValue) &&
        DivisorValue != 0) {
      if (DivisorValue > 0) {
        Result.Min = A.hasLowerBound() ? A.Min / B.Min : Expr();
        Result.Max = A.hasUpperBound() ? A.Max / B.Min : Expr();
      } else {
        Result.Min = A.hasUpperBound() ? A.Max / B.Min : Expr();
        Result.Max = A.hasLowerBound() ? A.Min / B.Min : Expr();
      }
      return;
    }
    if (B.isSinglePoint() && asConstFloat(B.Min, &DivisorFloat) &&
        DivisorFloat != 0.0) {
      if (DivisorFloat > 0) {
        Result.Min = A.hasLowerBound() ? A.Min / B.Min : Expr();
        Result.Max = A.hasUpperBound() ? A.Max / B.Min : Expr();
      } else {
        Result.Min = A.hasUpperBound() ? A.Max / B.Min : Expr();
        Result.Max = A.hasLowerBound() ? A.Min / B.Min : Expr();
      }
      return;
    }
    if (A.isSinglePoint() && B.isSinglePoint()) {
      Result = Interval::single(A.Min / B.Min);
      return;
    }
    Result = Interval::everything();
  }

  void visit(const Mod *Op) override {
    Interval A = bounds(Op->A), B = bounds(Op->B);
    if (A.isSinglePoint() && B.isSinglePoint()) {
      Result = Interval::single(A.Min % B.Min);
      return;
    }
    // Floor-mod by a positive bounded divisor lies in [0, Bmax-1].
    if (B.hasUpperBound()) {
      Result = Interval(makeZero(Op->NodeType),
                        B.Max - makeOne(Op->NodeType));
      return;
    }
    Result = Interval::everything();
  }

  void visit(const Min *Op) override {
    Interval A = bounds(Op->A), B = bounds(Op->B);
    Result.Min = (A.hasLowerBound() && B.hasLowerBound()) ? min(A.Min, B.Min)
                                                          : Expr();
    if (A.hasUpperBound() && B.hasUpperBound())
      Result.Max = min(A.Max, B.Max);
    else
      Result.Max = A.hasUpperBound() ? A.Max : B.Max;
  }

  void visit(const Max *Op) override {
    Interval A = bounds(Op->A), B = bounds(Op->B);
    if (A.hasLowerBound() && B.hasLowerBound())
      Result.Min = max(A.Min, B.Min);
    else
      Result.Min = A.hasLowerBound() ? A.Min : B.Min;
    Result.Max = (A.hasUpperBound() && B.hasUpperBound()) ? max(A.Max, B.Max)
                                                          : Expr();
  }

  void visit(const EQ *Op) override { boolResult(Op->A, Op->B); }
  void visit(const NE *Op) override { boolResult(Op->A, Op->B); }
  void visit(const LT *Op) override { boolResult(Op->A, Op->B); }
  void visit(const LE *Op) override { boolResult(Op->A, Op->B); }
  void visit(const GT *Op) override { boolResult(Op->A, Op->B); }
  void visit(const GE *Op) override { boolResult(Op->A, Op->B); }
  void visit(const And *Op) override { boolResult(Op->A, Op->B); }
  void visit(const Or *Op) override { boolResult(Op->A, Op->B); }
  void visit(const Not *Op) override { boolResult(Op->A, Op->A); }

  void visit(const Select *Op) override {
    Interval T = bounds(Op->TrueValue), F = bounds(Op->FalseValue);
    Result = intervalUnion(T, F);
  }

  void visit(const Load *Op) override {
    // The loaded value is unknown; only its type bounds it.
    bounds(Op->Index); // still visit for completeness
    typeRange(Op->NodeType);
  }

  void visit(const Ramp *Op) override {
    Interval Base = bounds(Op->Base);
    Interval Stride = bounds(Op->Stride);
    Expr LastLane = makeConst(Op->Base.type(), int64_t(Op->Lanes - 1));
    if (Base.isBounded() && Stride.isBounded()) {
      Expr EndLo = Base.Min + Stride.Min * LastLane;
      Expr EndHi = Base.Max + Stride.Max * LastLane;
      Result.Min = min(Base.Min, min(EndLo, EndHi));
      Result.Max = max(Base.Max, max(EndLo, EndHi));
      return;
    }
    Result = Interval::everything();
  }

  void visit(const Broadcast *Op) override { Result = bounds(Op->Value); }

  void visit(const Call *Op) override {
    // Visit args (their bounds do not affect the call's value bounds).
    if (Op->CallKind == CallType::PureExtern) {
      externCallBounds(Op);
      return;
    }
    // Values produced by other stages or images: only the type bounds them.
    typeRange(Op->NodeType);
  }

  void visit(const Let *Op) override {
    Interval ValueBounds = bounds(Op->Value);
    ScopedBinding<Interval> Bind(*Inner, Op->Name,
                                 Ledger->shared(ValueBounds, Op->Name));
    Result = bounds(Op->Body);
  }

  /// The sharing ledger, owned by the walk's entry point.
  ExprLedger *Ledger;
  /// Inner bindings (lets crossed); either OwnInner or a caller's scope.
  Scope<Interval> *Inner;

private:
  void typeRange(Type T) {
    if (T.isHandle()) {
      Result = Interval::everything();
      return;
    }
    if (T.isFloat()) {
      // Floats are effectively unbounded for index purposes.
      Result = Interval::everything();
      return;
    }
    Result = Interval(makeTypeMin(T.element()), makeTypeMax(T.element()));
  }

  void boolResult(const Expr &A, const Expr &B) {
    bounds(A);
    bounds(B);
    Result = Interval(makeFalse(), makeTrue());
  }

  void scaleByConstPoint(const Interval &A, const Expr &Factor) {
    if (isPositiveConst(Factor)) {
      Result.Min = A.hasLowerBound() ? A.Min * Factor : Expr();
      Result.Max = A.hasUpperBound() ? A.Max * Factor : Expr();
      return;
    }
    if (isNegativeConst(Factor)) {
      Result.Min = A.hasUpperBound() ? A.Max * Factor : Expr();
      Result.Max = A.hasLowerBound() ? A.Min * Factor : Expr();
      return;
    }
    // Zero.
    Result = Interval::single(Factor);
  }

  void externCallBounds(const Call *Op) {
    const std::string &Name = Op->Name;
    if (Op->Args.size() == 1) {
      Interval A = bounds(Op->Args[0]);
      // Monotonically increasing functions map bounds through.
      if (Name == "sqrt" || Name == "exp" || Name == "log" ||
          Name == "floor" || Name == "ceil" || Name == "round") {
        if (A.isBounded()) {
          Result = Interval(
              Call::make(Op->NodeType, Name, {A.Min}, CallType::PureExtern),
              Call::make(Op->NodeType, Name, {A.Max}, CallType::PureExtern));
          return;
        }
        Result = Interval::everything();
        return;
      }
      if (Name == "sin" || Name == "cos") {
        Result = Interval(makeConst(Op->NodeType, -1.0),
                          makeConst(Op->NodeType, 1.0));
        return;
      }
    }
    Result = Interval::everything();
  }

  Scope<Interval> OwnInner;
  const Scope<Interval> &Outer;
  Interval Result;
};

/// Which accesses to one buffer a region walk collects.
struct AccessFilter {
  const std::string &Name;
  bool Calls, Provides;

  bool matches(const Call *Op) const {
    return Calls && Op->Name == Name &&
           (Op->CallKind == CallType::Halide || Op->CallKind == CallType::Image);
  }
  bool matches(const Provide *Op) const {
    return Provides && Op->Name == Name;
  }
};

/// Finds the Let, LetStmt and For nodes whose subtree holds an access the
/// filter matches: one linear pass, so the region walk below can skip
/// every binding no access can see. The flag is computed bottom-up on
/// every path, so a node shared by several parents marks each of them.
class MarkEnclosing : public IRVisitor {
public:
  explicit MarkEnclosing(const AccessFilter &Filter) : Filter(Filter) {}

  std::unordered_set<const IRNode *> Marked;

  void visit(const Call *Op) override {
    IRVisitor::visit(Op);
    Found = Found || Filter.matches(Op);
  }
  void visit(const Provide *Op) override {
    IRVisitor::visit(Op);
    Found = Found || Filter.matches(Op);
  }
  void visit(const Let *Op) override { enclose(Op); }
  void visit(const LetStmt *Op) override { enclose(Op); }
  void visit(const For *Op) override { enclose(Op); }

private:
  template <typename T> void enclose(const T *Op) {
    bool Outer = Found;
    Found = false;
    IRVisitor::visit(Op);
    if (Found)
      Marked.insert(Op);
    Found = Found || Outer;
  }

  const AccessFilter &Filter;
  bool Found = false;
};

/// Walks a statement accumulating the box of the accesses the filter
/// matches, ranging loop variables over their loop bounds. Only the lets
/// and loops that enclose a matching access are ranged (MarkEnclosing):
/// the rest of the statement — typically every other stage of the
/// pipeline — costs a plain traversal instead of interval analysis.
class BoxTouched : public IRVisitor {
public:
  BoxTouched(const AccessFilter &Filter, const Scope<Interval> &VarScope,
             ExprLedger *Ledger)
      : Filter(Filter), Vars(VarScope), Ledger(Ledger), Marker(Filter) {}

  Box walk(const Stmt &S) {
    S.accept(&Marker);
    S.accept(this);
    return std::move(Result);
  }

  void visit(const Call *Op) override {
    IRVisitor::visit(Op); // visit args first: they may contain nested calls
    if (Filter.matches(Op))
      mergeBox(Op->Args);
  }

  void visit(const Provide *Op) override {
    IRVisitor::visit(Op);
    if (Filter.matches(Op))
      mergeBox(Op->Args);
  }

  void visit(const Let *Op) override {
    if (!Marker.Marked.count(Op))
      return;
    Op->Value.accept(this);
    ScopedBinding<Interval> Bind(Inner, Op->Name, boundsOf(Op->Value, Op->Name));
    Op->Body.accept(this);
  }

  void visit(const LetStmt *Op) override {
    if (!Marker.Marked.count(Op))
      return;
    Op->Value.accept(this);
    ScopedBinding<Interval> Bind(Inner, Op->Name, boundsOf(Op->Value, Op->Name));
    Op->Body.accept(this);
  }

  void visit(const For *Op) override {
    if (!Marker.Marked.count(Op))
      return;
    Op->MinExpr.accept(this);
    Op->Extent.accept(this);
    BoundsVisitor BV(Vars, Ledger, &Inner);
    Interval MinB = BV.bounds(Op->MinExpr);
    Interval ExtB = BV.bounds(Op->Extent);
    Interval LoopRange;
    LoopRange.Min = MinB.Min;
    if (MinB.hasUpperBound() && ExtB.hasUpperBound())
      LoopRange.Max = MinB.Max + ExtB.Max - 1;
    // Every use of the loop variable in the body references the shared
    // range, not a private copy of it.
    ScopedBinding<Interval> Bind(Inner, Op->Name,
                                 Ledger->shared(LoopRange, Op->Name));
    Op->Body.accept(this);
  }

private:
  /// Bounds of a let value, computed once and routed through the ledger.
  /// The expression walk borrows this statement walk's inner scope so the
  /// bindings accumulated so far are visible without copying them.
  Interval boundsOf(const Expr &Value, const std::string &Hint) {
    BoundsVisitor BV(Vars, Ledger, &Inner);
    return Ledger->shared(BV.bounds(Value), Hint);
  }

  void mergeBox(const std::vector<Expr> &Args) {
    Box B(Args.size());
    BoundsVisitor BV(Vars, Ledger, &Inner);
    for (size_t I = 0; I < Args.size(); ++I)
      B[I] = BV.bounds(Args[I]);
    Result.include(B);
  }

  const AccessFilter &Filter;
  const Scope<Interval> &Vars;
  ExprLedger *Ledger;
  MarkEnclosing Marker;
  Scope<Interval> Inner;
  Box Result;
};

/// Makes a raw box self-contained when the caller did not supply a ledger.
Box finishBox(Box B, const ExprLedger &Local, const ExprLedger *Caller) {
  if (Caller)
    return B;
  for (Interval &I : B.Dims)
    I = Local.materialize(I);
  return B;
}

/// The box of the accesses to \p Name the flags select, raw against
/// \p Ledger or, without one, self-contained.
Box boxOfAccesses(const Stmt &S, const std::string &Name, bool Calls,
                  bool Provides, const Scope<Interval> &VarScope,
                  ExprLedger *Ledger) {
  ExprLedger Local;
  AccessFilter Filter{Name, Calls, Provides};
  BoxTouched Walker(Filter, VarScope, Ledger ? Ledger : &Local);
  return finishBox(Walker.walk(S), Local, Ledger);
}

} // namespace

BoundsStatistics Bounds::statistics() {
  return detail::boundsSharingCounters();
}

void Bounds::resetStatistics() {
  detail::boundsSharingCounters() = BoundsStatistics();
}

Interval halide::boundsOfExprInScope(const Expr &E,
                                     const Scope<Interval> &VarScope,
                                     ExprLedger *Ledger) {
  ExprLedger Local;
  BoundsVisitor Visitor(VarScope, Ledger ? Ledger : &Local);
  Interval Result = Visitor.bounds(E);
  return Ledger ? Result : Local.materialize(Result);
}

Box halide::boxRequired(const Stmt &S, const std::string &Name,
                        const Scope<Interval> &VarScope, ExprLedger *Ledger) {
  return boxOfAccesses(S, Name, /*Calls=*/true, /*Provides=*/false, VarScope,
                       Ledger);
}

Box halide::boxProvided(const Stmt &S, const std::string &Name,
                        const Scope<Interval> &VarScope, ExprLedger *Ledger) {
  return boxOfAccesses(S, Name, /*Calls=*/false, /*Provides=*/true, VarScope,
                       Ledger);
}

Box halide::boxTouched(const Stmt &S, const std::string &Name,
                       const Scope<Interval> &VarScope, ExprLedger *Ledger) {
  return boxOfAccesses(S, Name, /*Calls=*/true, /*Provides=*/true, VarScope,
                       Ledger);
}
