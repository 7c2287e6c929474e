//===-- ir/IROperators.cpp --------------------------------------------------=//

#include "ir/IROperators.h"

#include <cmath>

using namespace halide;

Expr halide::makeConst(Type T, int64_t Value) {
  Type Elem = T.element();
  Expr Scalar;
  if (Elem.isInt())
    Scalar = IntImm::make(Elem, Value);
  else if (Elem.isUInt())
    Scalar = UIntImm::make(Elem, uint64_t(Value));
  else if (Elem.isFloat())
    Scalar = FloatImm::make(Elem, double(Value));
  else
    internal_error << "makeConst of handle type";
  if (T.isVector())
    return Broadcast::make(Scalar, T.Lanes);
  return Scalar;
}

Expr halide::makeConst(Type T, double Value) {
  Type Elem = T.element();
  Expr Scalar;
  if (Elem.isFloat()) {
    Scalar = FloatImm::make(Elem, Value);
  } else {
    internal_assert(Value == std::floor(Value))
        << "non-integral constant for integer type";
    return makeConst(T, int64_t(Value));
  }
  if (T.isVector())
    return Broadcast::make(Scalar, T.Lanes);
  return Scalar;
}

Expr halide::makeZero(Type T) { return makeConst(T, int64_t(0)); }
Expr halide::makeOne(Type T) { return makeConst(T, int64_t(1)); }
Expr halide::makeTrue(int Lanes) { return makeConst(Bool(Lanes), int64_t(1)); }
Expr halide::makeFalse(int Lanes) {
  return makeConst(Bool(Lanes), int64_t(0));
}

Expr halide::makeTypeMin(Type T) {
  Type Elem = T.element();
  if (Elem.isFloat())
    return makeConst(T, Elem.Bits == 32 ? double(-3.402823466e+38)
                                        : -1.7976931348623157e+308);
  return makeConst(T, Elem.intMin());
}

Expr halide::makeTypeMax(Type T) {
  Type Elem = T.element();
  if (Elem.isFloat())
    return makeConst(T, Elem.Bits == 32 ? double(3.402823466e+38)
                                        : 1.7976931348623157e+308);
  if (Elem.isUInt() && Elem.Bits == 64)
    return UIntImm::make(Elem, UINT64_MAX);
  return makeConst(T, Elem.intMax());
}

bool halide::asConstInt(const Expr &E, int64_t *Value) {
  if (const Broadcast *B = E.as<Broadcast>())
    return asConstInt(B->Value, Value);
  if (const IntImm *I = E.as<IntImm>()) {
    *Value = I->Value;
    return true;
  }
  if (const UIntImm *U = E.as<UIntImm>()) {
    if (U->Value > uint64_t(INT64_MAX))
      return false;
    *Value = int64_t(U->Value);
    return true;
  }
  return false;
}

bool halide::asConstFloat(const Expr &E, double *Value) {
  if (const Broadcast *B = E.as<Broadcast>())
    return asConstFloat(B->Value, Value);
  if (const FloatImm *F = E.as<FloatImm>()) {
    *Value = F->Value;
    return true;
  }
  return false;
}

bool halide::isConst(const Expr &E) {
  int64_t IntVal;
  double FloatVal;
  return asConstInt(E, &IntVal) || asConstFloat(E, &FloatVal);
}

bool halide::isConstZero(const Expr &E) {
  int64_t IntVal;
  if (asConstInt(E, &IntVal))
    return IntVal == 0;
  double FloatVal;
  if (asConstFloat(E, &FloatVal))
    return FloatVal == 0.0;
  return false;
}

bool halide::isConstOne(const Expr &E) {
  int64_t IntVal;
  if (asConstInt(E, &IntVal))
    return IntVal == 1;
  double FloatVal;
  if (asConstFloat(E, &FloatVal))
    return FloatVal == 1.0;
  return false;
}

bool halide::isPositiveConst(const Expr &E) {
  int64_t IntVal;
  if (asConstInt(E, &IntVal))
    return IntVal > 0;
  double FloatVal;
  if (asConstFloat(E, &FloatVal))
    return FloatVal > 0.0;
  return false;
}

bool halide::isNegativeConst(const Expr &E) {
  int64_t IntVal;
  if (asConstInt(E, &IntVal))
    return IntVal < 0;
  double FloatVal;
  if (asConstFloat(E, &FloatVal))
    return FloatVal < 0.0;
  return false;
}

namespace {

/// True if the immediate \p E can be losslessly re-made with type \p T.
bool immRepresentableAs(const Expr &E, Type T) {
  int64_t IntVal;
  if (asConstInt(E, &IntVal)) {
    if (T.isFloat())
      return T.element().canRepresent(IntVal) ||
             double(IntVal) == std::floor(double(IntVal));
    return T.element().canRepresent(IntVal);
  }
  double FloatVal;
  if (asConstFloat(E, &FloatVal))
    return T.isFloat();
  return false;
}

Expr remakeImmAs(const Expr &E, Type T) {
  int64_t IntVal;
  if (asConstInt(E, &IntVal))
    return makeConst(T, IntVal);
  double FloatVal;
  if (asConstFloat(E, &FloatVal))
    return makeConst(T, FloatVal);
  internal_error << "remakeImmAs of non-immediate";
  return Expr();
}

} // namespace

void halide::matchTypes(Expr &A, Expr &B) {
  internal_assert(A.defined() && B.defined()) << "matchTypes of undef";
  Type TA = A.type(), TB = B.type();
  if (TA == TB)
    return;

  // Broadcast scalars against vectors first.
  if (TA.isScalar() && TB.isVector()) {
    A = Broadcast::make(A, TB.Lanes);
    TA = A.type();
  } else if (TB.isScalar() && TA.isVector()) {
    B = Broadcast::make(B, TA.Lanes);
    TB = B.type();
  }
  internal_assert(TA.Lanes == TB.Lanes)
      << "cannot match vector types of different widths";
  if (TA == TB)
    return;

  // Immediates adopt the other operand's type when representable: in(x) + 1
  // stays uint8 when `in` is uint8.
  if (isConst(A) && !isConst(B) && immRepresentableAs(A, TB)) {
    A = remakeImmAs(A, TB);
    return;
  }
  if (isConst(B) && !isConst(A) && immRepresentableAs(B, TA)) {
    B = remakeImmAs(B, TA);
    return;
  }

  Type Target;
  if (TA.isFloat() || TB.isFloat()) {
    int Bits = 32;
    if (TA.isFloat())
      Bits = std::max(Bits, TA.Bits);
    if (TB.isFloat())
      Bits = std::max(Bits, TB.Bits);
    Target = Float(Bits, TA.Lanes);
  } else {
    int Bits = std::max(TA.Bits, TB.Bits);
    bool IsSigned = TA.isInt() || TB.isInt();
    Target = IsSigned ? Int(Bits, TA.Lanes) : UInt(Bits, TA.Lanes);
  }
  if (TA != Target)
    A = Cast::make(Target, A);
  if (TB != Target)
    B = Cast::make(Target, B);
}

int64_t halide::floorDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

int64_t halide::floorMod(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  // The truncated remainder moved to the divisor's sign; unlike
  // A - floorDiv(A, B) * B, nothing here overflows near INT64_MIN/MAX.
  int64_t R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    R += B;
  return R;
}

int64_t halide::wrapToType(int64_t Value, Type T) {
  if (T.Bits >= 64)
    return Value;
  uint64_t Mask = (uint64_t(1) << T.Bits) - 1;
  uint64_t U = uint64_t(Value) & Mask;
  if (T.isInt() && (U >> (T.Bits - 1)))
    return int64_t(U) - (int64_t(1) << T.Bits);
  return int64_t(U);
}

namespace {

enum class ArithOp { Add, Sub, Mul, Div, Mod, Min, Max };

/// Constant-folds `A op B` for matching immediates; returns undefined Expr
/// when either side is not an immediate.
Expr foldBinary(ArithOp Op, const Expr &A, const Expr &B) {
  Type T = A.type();
  int64_t IA, IB;
  if (asConstInt(A, &IA) && asConstInt(B, &IB) && !T.isFloat()) {
    int64_t R = 0;
    switch (Op) {
    case ArithOp::Add:
      R = wrapToType(IA + IB, T);
      break;
    case ArithOp::Sub:
      R = wrapToType(IA - IB, T);
      break;
    case ArithOp::Mul:
      R = wrapToType(IA * IB, T);
      break;
    case ArithOp::Div:
      R = floorDiv(IA, IB);
      break;
    case ArithOp::Mod:
      R = floorMod(IA, IB);
      break;
    case ArithOp::Min:
      R = std::min(IA, IB);
      break;
    case ArithOp::Max:
      R = std::max(IA, IB);
      break;
    }
    return makeConst(T, R);
  }
  double FA, FB;
  if (asConstFloat(A, &FA) && asConstFloat(B, &FB)) {
    double R = 0;
    switch (Op) {
    case ArithOp::Add:
      R = FA + FB;
      break;
    case ArithOp::Sub:
      R = FA - FB;
      break;
    case ArithOp::Mul:
      R = FA * FB;
      break;
    case ArithOp::Div:
      R = FA / FB;
      break;
    case ArithOp::Mod:
      R = FA - std::floor(FA / FB) * FB;
      break;
    case ArithOp::Min:
      R = std::min(FA, FB);
      break;
    case ArithOp::Max:
      R = std::max(FA, FB);
      break;
    }
    if (T.element().Bits == 32)
      R = double(float(R));
    return makeConst(T, R);
  }
  return Expr();
}

} // namespace

Expr halide::operator+(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr Folded = foldBinary(ArithOp::Add, A, B); Folded.defined())
    return Folded;
  if (isConstZero(A))
    return B;
  if (isConstZero(B))
    return A;
  return Add::make(A, B);
}

Expr halide::operator-(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr Folded = foldBinary(ArithOp::Sub, A, B); Folded.defined())
    return Folded;
  if (isConstZero(B))
    return A;
  return Sub::make(A, B);
}

Expr halide::operator-(Expr A) {
  internal_assert(A.defined()) << "negation of undef";
  return makeZero(A.type()) - A;
}

Expr halide::operator*(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr Folded = foldBinary(ArithOp::Mul, A, B); Folded.defined())
    return Folded;
  if (isConstOne(A))
    return B;
  if (isConstOne(B))
    return A;
  if (isConstZero(A))
    return A;
  if (isConstZero(B))
    return B;
  return Mul::make(A, B);
}

Expr halide::operator/(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr Folded = foldBinary(ArithOp::Div, A, B); Folded.defined())
    return Folded;
  if (isConstOne(B))
    return A;
  return Div::make(A, B);
}

Expr halide::operator%(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr Folded = foldBinary(ArithOp::Mod, A, B); Folded.defined())
    return Folded;
  return Mod::make(A, B);
}

Expr &halide::operator+=(Expr &A, Expr B) { return A = A + B; }
Expr &halide::operator-=(Expr &A, Expr B) { return A = A - B; }
Expr &halide::operator*=(Expr &A, Expr B) { return A = A * B; }
Expr &halide::operator/=(Expr &A, Expr B) { return A = A / B; }

namespace {

enum class CmpOp { EQ, NE, LT, LE, GT, GE };

Expr foldCompare(CmpOp Op, const Expr &A, const Expr &B) {
  int64_t IA, IB;
  double FA, FB;
  bool HaveInt = asConstInt(A, &IA) && asConstInt(B, &IB);
  bool HaveFloat = asConstFloat(A, &FA) && asConstFloat(B, &FB);
  if (!HaveInt && !HaveFloat)
    return Expr();
  bool R = false;
  switch (Op) {
  case CmpOp::EQ:
    R = HaveInt ? IA == IB : FA == FB;
    break;
  case CmpOp::NE:
    R = HaveInt ? IA != IB : FA != FB;
    break;
  case CmpOp::LT:
    R = HaveInt ? IA < IB : FA < FB;
    break;
  case CmpOp::LE:
    R = HaveInt ? IA <= IB : FA <= FB;
    break;
  case CmpOp::GT:
    R = HaveInt ? IA > IB : FA > FB;
    break;
  case CmpOp::GE:
    R = HaveInt ? IA >= IB : FA >= FB;
    break;
  }
  return makeConst(Bool(A.type().Lanes), int64_t(R));
}

} // namespace

Expr halide::operator==(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr F = foldCompare(CmpOp::EQ, A, B); F.defined())
    return F;
  return EQ::make(A, B);
}
Expr halide::operator!=(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr F = foldCompare(CmpOp::NE, A, B); F.defined())
    return F;
  return NE::make(A, B);
}
Expr halide::operator<(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr F = foldCompare(CmpOp::LT, A, B); F.defined())
    return F;
  return LT::make(A, B);
}
Expr halide::operator<=(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr F = foldCompare(CmpOp::LE, A, B); F.defined())
    return F;
  return LE::make(A, B);
}
Expr halide::operator>(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr F = foldCompare(CmpOp::GT, A, B); F.defined())
    return F;
  return GT::make(A, B);
}
Expr halide::operator>=(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr F = foldCompare(CmpOp::GE, A, B); F.defined())
    return F;
  return GE::make(A, B);
}

Expr halide::operator&&(Expr A, Expr B) {
  internal_assert(A.type().isBool() && B.type().isBool()) << "&& of non-bool";
  matchTypes(A, B);
  int64_t V;
  if (asConstInt(A, &V))
    return V ? B : A;
  if (asConstInt(B, &V))
    return V ? A : B;
  return And::make(A, B);
}

Expr halide::operator||(Expr A, Expr B) {
  internal_assert(A.type().isBool() && B.type().isBool()) << "|| of non-bool";
  matchTypes(A, B);
  int64_t V;
  if (asConstInt(A, &V))
    return V ? A : B;
  if (asConstInt(B, &V))
    return V ? B : A;
  return Or::make(A, B);
}

Expr halide::operator!(Expr A) {
  int64_t V;
  if (asConstInt(A, &V))
    return makeConst(A.type(), int64_t(!V));
  return Not::make(A);
}

Expr halide::min(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr Folded = foldBinary(ArithOp::Min, A, B); Folded.defined())
    return Folded;
  return Min::make(A, B);
}

Expr halide::max(Expr A, Expr B) {
  matchTypes(A, B);
  if (Expr Folded = foldBinary(ArithOp::Max, A, B); Folded.defined())
    return Folded;
  return Max::make(A, B);
}

Expr halide::clamp(Expr E, Expr Lo, Expr Hi) {
  return max(min(E, Hi), Lo);
}

Expr halide::select(Expr Condition, Expr TrueValue, Expr FalseValue) {
  matchTypes(TrueValue, FalseValue);
  internal_assert(Condition.defined() && Condition.type().isBool())
      << "select condition must be boolean";
  if (Condition.type().isScalar() && TrueValue.type().isVector())
    Condition = Broadcast::make(Condition, TrueValue.type().Lanes);
  int64_t V;
  if (asConstInt(Condition, &V))
    return V ? TrueValue : FalseValue;
  return Select::make(Condition, TrueValue, FalseValue);
}

Expr halide::select(Expr C1, Expr V1, Expr C2, Expr V2, Expr Default) {
  return select(C1, V1, select(C2, V2, Default));
}

Expr halide::select(Expr C1, Expr V1, Expr C2, Expr V2, Expr C3, Expr V3,
                    Expr Default) {
  return select(C1, V1, select(C2, V2, select(C3, V3, Default)));
}

Expr halide::abs(Expr E) {
  internal_assert(E.defined()) << "abs of undef";
  if (E.type().isUInt())
    return E;
  return select(E < makeZero(E.type()), -E, E);
}

Expr halide::cast(Type T, Expr E) {
  internal_assert(E.defined()) << "cast of undef";
  if (E.type() == T)
    return E;
  // Fold casts of immediates.
  int64_t IntVal;
  double FloatVal;
  if (asConstInt(E, &IntVal)) {
    if (T.isFloat())
      return makeConst(T, double(IntVal));
    return makeConst(T, wrapToType(IntVal, T.element()));
  }
  if (asConstFloat(E, &FloatVal) && T.isFloat())
    return makeConst(T, FloatVal);
  if (T.isScalar() && E.type().isVector())
    internal_error << "cannot cast vector to scalar";
  if (T.isVector() && E.type().isScalar())
    return Broadcast::make(cast(T.element(), E), T.Lanes);
  return Cast::make(T, E);
}

namespace {

/// Builds a call to a pure external math function, promoting integer
/// arguments to Float(32).
Expr mathCall(const char *Name, Expr E) {
  internal_assert(E.defined()) << Name << " of undef";
  if (!E.type().isFloat())
    E = cast(Float(32, E.type().Lanes), E);
  return Call::make(E.type(), Name, {E}, CallType::PureExtern);
}

} // namespace

Expr halide::sqrt(Expr E) {
  double V;
  if (asConstFloat(E, &V))
    return makeConst(E.type(), std::sqrt(V));
  return mathCall("sqrt", E);
}
Expr halide::sin(Expr E) { return mathCall("sin", E); }
Expr halide::cos(Expr E) { return mathCall("cos", E); }
Expr halide::exp(Expr E) { return mathCall("exp", E); }
Expr halide::log(Expr E) { return mathCall("log", E); }

Expr halide::pow(Expr Base, Expr Exponent) {
  if (!Base.type().isFloat())
    Base = cast(Float(32, Base.type().Lanes), Base);
  Exponent = cast(Base.type(), Exponent);
  return Call::make(Base.type(), "pow", {Base, Exponent},
                    CallType::PureExtern);
}

Expr halide::floor(Expr E) {
  double V;
  if (asConstFloat(E, &V))
    return makeConst(E.type(), std::floor(V));
  return mathCall("floor", E);
}
Expr halide::ceil(Expr E) {
  double V;
  if (asConstFloat(E, &V))
    return makeConst(E.type(), std::ceil(V));
  return mathCall("ceil", E);
}
Expr halide::round(Expr E) { return mathCall("round", E); }

Expr halide::lerp(Expr Zero, Expr One, Expr Weight) {
  matchTypes(Zero, One);
  Type T = Zero.type();
  Expr Z = T.isFloat() ? Zero : cast(Float(32, T.Lanes), Zero);
  Expr O = T.isFloat() ? One : cast(Float(32, T.Lanes), One);
  Expr W = cast(Z.type(), Weight);
  Expr R = Z + (O - Z) * W;
  return T.isFloat() ? R : cast(T, R);
}
