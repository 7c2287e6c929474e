//===-- analysis/Monotonic.cpp ----------------------------------------------=//

#include "analysis/Monotonic.h"
#include "analysis/Scope.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"

using namespace halide;

namespace {

Monotonic flip(Monotonic M) {
  if (M == Monotonic::Increasing)
    return Monotonic::Decreasing;
  if (M == Monotonic::Decreasing)
    return Monotonic::Increasing;
  return M;
}

/// Combination for addition: agreeing directions survive, Constant is the
/// identity, anything else is Unknown.
Monotonic unify(Monotonic A, Monotonic B) {
  if (A == Monotonic::Constant)
    return B;
  if (B == Monotonic::Constant)
    return A;
  if (A == B && A != Monotonic::Unknown)
    return A;
  return Monotonic::Unknown;
}

class MonotonicVisitor : public IRVisitor {
public:
  explicit MonotonicVisitor(const std::string &Var,
                            const Scope<Monotonic> *Known = nullptr)
      : Var(Var), Known(Known) {}

  Monotonic analyze(const Expr &E) {
    E.accept(this);
    return Result;
  }

  void visit(const IntImm *) override { Result = Monotonic::Constant; }
  void visit(const UIntImm *) override { Result = Monotonic::Constant; }
  void visit(const FloatImm *) override { Result = Monotonic::Constant; }
  void visit(const StringImm *) override { Result = Monotonic::Constant; }

  void visit(const Variable *Op) override {
    if (Op->Name == Var) {
      Result = Monotonic::Increasing;
      return;
    }
    if (Lets.contains(Op->Name)) {
      Result = Lets.get(Op->Name);
      return;
    }
    if (Known && Known->contains(Op->Name)) {
      Result = Known->get(Op->Name);
      return;
    }
    Result = Monotonic::Constant;
  }

  void visit(const Cast *Op) override {
    Monotonic A = analyze(Op->Value);
    Type From = Op->Value.type(), To = Op->NodeType;
    // Widening casts and int->float preserve order; others may wrap.
    bool OrderPreserving =
        (To.isFloat() && !From.isFloat()) ||
        (To.isFloat() && From.isFloat() && To.Bits >= From.Bits) ||
        ((To.isInt() || To.isUInt()) && (From.isInt() || From.isUInt()) &&
         To.Bits >= From.Bits && !(From.isInt() && To.isUInt()));
    Result = OrderPreserving ? A
             : (A == Monotonic::Constant ? Monotonic::Constant
                                         : Monotonic::Unknown);
  }

  void visit(const Add *Op) override {
    Result = unify(analyze(Op->A), analyze(Op->B));
  }

  void visit(const Sub *Op) override {
    Result = unify(analyze(Op->A), flip(analyze(Op->B)));
  }

  void visit(const Mul *Op) override {
    Monotonic A = analyze(Op->A), B = analyze(Op->B);
    if (A == Monotonic::Constant && B == Monotonic::Constant) {
      Result = Monotonic::Constant;
      return;
    }
    if (B == Monotonic::Constant && isConst(Op->B)) {
      Result = isNegativeConst(Op->B) ? flip(A) : A;
      return;
    }
    if (A == Monotonic::Constant && isConst(Op->A)) {
      Result = isNegativeConst(Op->A) ? flip(B) : B;
      return;
    }
    Result = Monotonic::Unknown;
  }

  void visit(const Div *Op) override {
    Monotonic A = analyze(Op->A), B = analyze(Op->B);
    if (A == Monotonic::Constant && B == Monotonic::Constant) {
      Result = Monotonic::Constant;
      return;
    }
    // Floor division by a positive constant preserves (weak) monotonicity.
    if (B == Monotonic::Constant && isPositiveConst(Op->B)) {
      Result = A;
      return;
    }
    if (B == Monotonic::Constant && isNegativeConst(Op->B)) {
      Result = flip(A);
      return;
    }
    Result = Monotonic::Unknown;
  }

  void visit(const Mod *Op) override {
    Monotonic A = analyze(Op->A), B = analyze(Op->B);
    Result = (A == Monotonic::Constant && B == Monotonic::Constant)
                 ? Monotonic::Constant
                 : Monotonic::Unknown;
  }

  void visit(const Min *Op) override {
    Result = monotonicOfPair(Op->A, Op->B);
  }
  void visit(const Max *Op) override {
    Result = monotonicOfPair(Op->A, Op->B);
  }

  void visit(const EQ *Op) override { compareResult(Op->A, Op->B); }
  void visit(const NE *Op) override { compareResult(Op->A, Op->B); }
  void visit(const LT *Op) override { compareResult(Op->A, Op->B); }
  void visit(const LE *Op) override { compareResult(Op->A, Op->B); }
  void visit(const GT *Op) override { compareResult(Op->A, Op->B); }
  void visit(const GE *Op) override { compareResult(Op->A, Op->B); }
  void visit(const And *Op) override { compareResult(Op->A, Op->B); }
  void visit(const Or *Op) override { compareResult(Op->A, Op->B); }
  void visit(const Not *Op) override { compareResult(Op->A, Op->A); }

  void visit(const Select *Op) override {
    Monotonic C = analyze(Op->Condition);
    Monotonic T = analyze(Op->TrueValue);
    Monotonic F = analyze(Op->FalseValue);
    if (C == Monotonic::Constant) {
      Result = unify(T, F) == Monotonic::Unknown && T != F
                   ? Monotonic::Unknown
                   : unify(T, F);
      return;
    }
    Result = Monotonic::Unknown;
  }

  void visit(const Load *Op) override {
    Result = analyze(Op->Index) == Monotonic::Constant ? Monotonic::Constant
                                                       : Monotonic::Unknown;
  }

  void visit(const Ramp *Op) override {
    Result = unify(analyze(Op->Base), analyze(Op->Stride));
    if (Result != Monotonic::Constant)
      Result = Monotonic::Unknown;
  }

  void visit(const Broadcast *Op) override { Result = analyze(Op->Value); }

  void visit(const Call *Op) override {
    // floor/ceil/round are weakly monotonic; other calls are constant only
    // if all args are constant.
    bool MonotonePreserving =
        Op->CallKind == CallType::PureExtern &&
        (Op->Name == "floor" || Op->Name == "ceil" || Op->Name == "round" ||
         Op->Name == "sqrt" || Op->Name == "exp" || Op->Name == "log");
    Monotonic Combined = Monotonic::Constant;
    for (const Expr &Arg : Op->Args)
      Combined = unify(Combined, analyze(Arg));
    if (Combined == Monotonic::Constant) {
      Result = Monotonic::Constant;
      return;
    }
    Result = MonotonePreserving ? Combined : Monotonic::Unknown;
  }

  void visit(const Let *Op) override {
    Monotonic ValueMono = analyze(Op->Value);
    ScopedBinding<Monotonic> Bind(Lets, Op->Name, ValueMono);
    Result = analyze(Op->Body);
  }

private:
  Monotonic monotonicOfPair(const Expr &A, const Expr &B) {
    Monotonic MA = analyze(A), MB = analyze(B);
    if (MA == Monotonic::Constant && MB == Monotonic::Constant)
      return Monotonic::Constant;
    // min/max of two expressions moving the same way moves that way.
    Monotonic U = unify(MA, MB);
    return U;
  }

  void compareResult(const Expr &A, const Expr &B) {
    Monotonic MA = analyze(A), MB = analyze(B);
    Result = (MA == Monotonic::Constant && MB == Monotonic::Constant)
                 ? Monotonic::Constant
                 : Monotonic::Unknown;
  }

  const std::string &Var;
  const Scope<Monotonic> *Known;
  Scope<Monotonic> Lets;
  Monotonic Result = Monotonic::Unknown;
};

} // namespace

Monotonic halide::isMonotonic(const Expr &E, const std::string &Var) {
  if (!E.defined())
    return Monotonic::Unknown;
  MonotonicVisitor Visitor(Var);
  return Visitor.analyze(E);
}

Monotonic halide::isMonotonic(const Expr &E, const std::string &Var,
                              const Scope<Monotonic> &Known) {
  if (!E.defined())
    return Monotonic::Unknown;
  MonotonicVisitor Visitor(Var, &Known);
  return Visitor.analyze(E);
}
