//===-- analysis/Bounds.cpp -------------------------------------------------=//

#include "analysis/Bounds.h"
#include "ir/IREquality.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "transforms/Simplify.h"
#include "transforms/Substitute.h"

#include <optional>
#include <unordered_set>

using namespace halide;

namespace {

/// The calling thread's counters behind Bounds::statistics().
BoundsStatistics &boundsCounters() {
  thread_local BoundsStatistics Counters;
  return Counters;
}

/// \p E simplified, counted as one bound endpoint when it is defined.
Expr boundEndpoint(const Expr &E) {
  if (!E.defined())
    return E;
  ++boundsCounters().EndpointsBound;
  return simplify(E);
}

/// The range a let or loop binds: \p I with its endpoints simplified.
Interval boundRange(const Interval &I) {
  if (I.isSinglePoint())
    return Interval::single(boundEndpoint(I.Min));
  return Interval(boundEndpoint(I.Min), boundEndpoint(I.Max));
}

/// Interval evaluation of expressions. One visit() per node kind; the
/// current result is kept in `Result`. A let value's bounds are computed
/// once, and every use of the let variable sees that interval.
class BoundsVisitor : public IRVisitor {
public:
  /// \p SharedInner lets a caller walking a statement (BoxTouched) hand
  /// its accumulated inner bindings to every nested expression walk
  /// without copying the scope per expression.
  explicit BoundsVisitor(const Scope<Interval> &VarScope,
                         Scope<Interval> *SharedInner = nullptr)
      : Inner(SharedInner ? SharedInner : &OwnInner), Outer(VarScope) {}

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
    ScopedBinding<Interval> Bind(*Inner, Op->Name, boundRange(ValueBounds));
    Result = bounds(Op->Body);
  }

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
///
/// Lets are correlated before they are ranged. A tiled stage's min and
/// extent are separate lets of the tile's loop variable; ranged one by
/// one they lose the terms that cancel in min + extent - 1, and the
/// region read through them doubles. So a let inside a loop whose
/// simplified value is small is substituted into its uses, and any let
/// whose range is one point is replaced by that point.
///
/// The binding that is a stored stage's coordinate (\p Stored) ranges over
/// the stage's stored region instead of over its loop bounds or let value.
/// A split's outer loop that reuses the coordinate's name is ranged as a
/// loop: stages computed at that loop read its variable, not the
/// coordinate, which the split's reconstruction let binds inside it.
class BoxTouched : public IRVisitor {
public:
  BoxTouched(const AccessFilter &Filter, const Scope<Interval> &VarScope,
             const Scope<StoredCoordinate> *Stored)
      : Filter(Filter), Vars(VarScope), Stored(Stored), Marker(Filter) {}

  Box walk(const Stmt &S) {
    S.accept(&Marker);
    S.accept(this);
    return std::move(Result);
  }

  /// The box \p Region spans over the bindings of \p Path, nested For
  /// and LetStmt nodes outermost first.
  Box walkPath(const std::vector<Stmt> &Path, const Box &Region) {
    rangePath(Path, 0, Region);
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

  void visit(const Let *Op) override { bindLet(Op); }
  void visit(const LetStmt *Op) override { bindLet(Op); }

  void visit(const For *Op) override {
    if (!Marker.Marked.count(Op))
      return;
    Op->MinExpr.accept(this);
    Op->Extent.accept(this);
    inLoop(Op, [&] { Op->Body.accept(this); });
  }

private:
  template <typename LetT> void bindLet(const LetT *Op) {
    if (!Marker.Marked.count(Op))
      return;
    Op->Value.accept(this);
    inLet(Op, [&] { Op->Body.accept(this); });
  }

  void rangePath(const std::vector<Stmt> &Path, size_t I, const Box &Region) {
    if (I == Path.size()) {
      BoundsVisitor BV(Vars, &Inner);
      Result = Box(Region.size());
      for (size_t D = 0; D < Region.size(); ++D)
        Result[D] = Interval(BV.bounds(correlated(Region[D].Min)).Min,
                             BV.bounds(correlated(Region[D].Max)).Max);
    } else if (const For *Loop = Path[I].as<For>()) {
      inLoop(Loop, [&] { rangePath(Path, I + 1, Region); });
    } else {
      const LetStmt *L = Path[I].as<LetStmt>();
      internal_assert(L) << "a path to a produce node binds nothing at "
                         << I;
      inLet(L, [&] { rangePath(Path, I + 1, Region); });
    }
  }

  /// The stored region of the coordinate a binding named \p Name is, if
  /// it is one (\p IsLet: the binding is a let).
  const Interval *storedRange(const std::string &Name, bool IsLet) const {
    if (!Stored || !Stored->contains(Name) ||
        Stored->get(Name).IsLet != IsLet)
      return nullptr;
    return &Stored->get(Name).Range;
  }

  /// Runs \p Body with the loop variable of \p Op ranged.
  template <typename BodyFn> void inLoop(const For *Op, BodyFn Body) {
    Interval LoopRange;
    if (const Interval *Range = storedRange(Op->Name, /*IsLet=*/false)) {
      LoopRange = *Range;
    } else {
      BoundsVisitor BV(Vars, &Inner);
      Interval MinB = BV.bounds(correlated(Op->MinExpr));
      Interval ExtB = BV.bounds(correlated(Op->Extent));
      LoopRange.Min = MinB.Min;
      if (MinB.hasUpperBound() && ExtB.hasUpperBound())
        LoopRange.Max = MinB.Max + ExtB.Max - 1;
      LoopRange = boundRange(LoopRange);
    }
    ScopedBinding<Interval> Bind(Inner, Op->Name, LoopRange);
    Expr Shadowed = substituteFor(Op->Name, Expr());
    ++Loops;
    Body();
    --Loops;
    substituteFor(Op->Name, Shadowed);
  }

  /// Runs \p Body with the let \p Op substituted or ranged.
  template <typename LetT, typename BodyFn>
  void inLet(const LetT *Op, BodyFn Body) {
    Expr Value;
    std::optional<ScopedBinding<Interval>> Ranged;
    if (const Interval *Range = storedRange(Op->Name, /*IsLet=*/true)) {
      Ranged.emplace(Inner, Op->Name, *Range);
    } else {
      Value = correlated(Op->Value);
      // A let that shadows a ranged name is substituted whatever its
      // size, so no value substituted earlier can be captured by it.
      if (Loops == 0 || (irNodeCountExceeds(Value, InlineLetLimit) &&
                         !Inner.contains(Op->Name))) {
        Interval Range = boundsOf(Value);
        Value = Range.isSinglePoint() ? Range.Min : Expr();
        if (!Value.defined())
          Ranged.emplace(Inner, Op->Name, Range);
      }
    }
    Expr Shadowed = substituteFor(Op->Name, Value);
    Body();
    substituteFor(Op->Name, Shadowed);
  }

  /// Substitutes \p Value for \p Name (nothing, when undefined) and returns
  /// what it replaced.
  Expr substituteFor(const std::string &Name, Expr Value) {
    Expr &Slot = Values[Name];
    std::swap(Slot, Value);
    if (!Slot.defined())
      Values.erase(Name);
    return Value;
  }

  /// \p E with the substituted lets in place; simplified inside a loop,
  /// where terms of the loop variables can cancel.
  Expr correlated(const Expr &E) {
    Expr Inlined = Values.empty() ? E : substitute(Values, E);
    return Loops > 0 ? simplify(Inlined) : Inlined;
  }

  /// The range a let value binds. The expression walk borrows this
  /// statement walk's inner scope so the bindings accumulated so far are
  /// visible without copying them.
  Interval boundsOf(const Expr &Value) {
    BoundsVisitor BV(Vars, &Inner);
    return boundRange(BV.bounds(Value));
  }

  void mergeBox(const std::vector<Expr> &Args) {
    Box B(Args.size());
    BoundsVisitor BV(Vars, &Inner);
    for (size_t I = 0; I < Args.size(); ++I)
      B[I] = BV.bounds(Values.empty() ? Args[I]
                                      : substitute(Values, Args[I]));
    Result.include(B);
  }

  /// Lets inside a loop are substituted at or under this many IR nodes;
  /// larger values stay ranged names.
  static constexpr size_t InlineLetLimit = 64;

  const AccessFilter &Filter;
  const Scope<Interval> &Vars;
  const Scope<StoredCoordinate> *Stored;
  MarkEnclosing Marker;
  Scope<Interval> Inner;
  /// The substituted lets' values by name.
  std::map<std::string, Expr> Values;
  int Loops = 0;
  Box Result;
};

/// The box of the accesses to \p Name the flags select.
Box boxOfAccesses(const Stmt &S, const std::string &Name, bool Calls,
                  bool Provides, const Scope<Interval> &VarScope,
                  const Scope<StoredCoordinate> *Stored = nullptr) {
  AccessFilter Filter{Name, Calls, Provides};
  return BoxTouched(Filter, VarScope, Stored).walk(S);
}

} // namespace

BoundsStatistics Bounds::statistics() { return boundsCounters(); }

void Bounds::resetStatistics() { boundsCounters() = BoundsStatistics(); }

Interval halide::boundsOfExprInScope(const Expr &E,
                                     const Scope<Interval> &VarScope) {
  return BoundsVisitor(VarScope).bounds(E);
}

Box halide::boxRequired(const Stmt &S, const std::string &Name,
                        const Scope<Interval> &VarScope,
                        const Scope<StoredCoordinate> *Stored) {
  return boxOfAccesses(S, Name, /*Calls=*/true, /*Provides=*/false, VarScope,
                       Stored);
}

Box halide::boxOverPath(const std::vector<Stmt> &Path, const Box &Region,
                        const Scope<StoredCoordinate> &Stored) {
  const std::string NoAccess;
  AccessFilter Filter{NoAccess, /*Calls=*/false, /*Provides=*/false};
  Scope<Interval> Empty;
  return BoxTouched(Filter, Empty, &Stored).walkPath(Path, Region);
}

Box halide::boxProvided(const Stmt &S, const std::string &Name,
                        const Scope<Interval> &VarScope) {
  return boxOfAccesses(S, Name, /*Calls=*/false, /*Provides=*/true, VarScope);
}

Box halide::boxTouched(const Stmt &S, const std::string &Name,
                       const Scope<Interval> &VarScope) {
  return boxOfAccesses(S, Name, /*Calls=*/true, /*Provides=*/true, VarScope);
}
