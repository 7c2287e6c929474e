//===-- ir/IROperators.h - Expression-building operators --------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator overloads and helper functions for building expressions in the
/// front-end style of paper section 2 (`blurx(x,y) = in(x-1,y) + ...`).
/// Binary operators coerce operand types with the usual promotion rules and
/// fold constants eagerly so front-end trees stay small.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_IR_IROPERATORS_H
#define HALIDE_IR_IROPERATORS_H

#include "ir/Expr.h"

namespace halide {

/// Makes a constant of type \p T from an integer (must be representable).
Expr makeConst(Type T, int64_t Value);
/// Makes a constant of type \p T from a double (must be a float type unless
/// the value is integral).
Expr makeConst(Type T, double Value);
Expr makeZero(Type T);
Expr makeOne(Type T);
Expr makeTrue(int Lanes = 1);
Expr makeFalse(int Lanes = 1);
/// Most negative / most positive value of a type (used by interval analysis
/// for saturation).
Expr makeTypeMin(Type T);
Expr makeTypeMax(Type T);

/// If \p E is an integer constant (IntImm or UIntImm, possibly broadcast),
/// stores its value and returns true.
bool asConstInt(const Expr &E, int64_t *Value);
/// If \p E is a float constant (possibly broadcast), stores its value.
bool asConstFloat(const Expr &E, double *Value);
/// True if \p E is a constant equal to zero / one (any type).
bool isConstZero(const Expr &E);
bool isConstOne(const Expr &E);
/// True if \p E is any immediate (or broadcast of one).
bool isConst(const Expr &E);
/// True if the expression is a positive / negative constant.
bool isPositiveConst(const Expr &E);
bool isNegativeConst(const Expr &E);

/// Coerces two expressions to a common type using the promotion rules:
/// immediates adopt the other side's type when representable; float beats
/// int; wider beats narrower; signed beats unsigned at equal width; scalars
/// broadcast to vectors.
void matchTypes(Expr &A, Expr &B);

// Arithmetic. Integer division and modulus round toward negative infinity.
Expr operator+(Expr A, Expr B);
Expr operator-(Expr A, Expr B);
Expr operator-(Expr A); // negation
Expr operator*(Expr A, Expr B);
Expr operator/(Expr A, Expr B);
Expr operator%(Expr A, Expr B);

Expr &operator+=(Expr &A, Expr B);
Expr &operator-=(Expr &A, Expr B);
Expr &operator*=(Expr &A, Expr B);
Expr &operator/=(Expr &A, Expr B);

// Comparison; results are boolean (UInt(1)) expressions.
Expr operator==(Expr A, Expr B);
Expr operator!=(Expr A, Expr B);
Expr operator<(Expr A, Expr B);
Expr operator<=(Expr A, Expr B);
Expr operator>(Expr A, Expr B);
Expr operator>=(Expr A, Expr B);

// Boolean algebra (not short-circuiting; these build IR).
Expr operator&&(Expr A, Expr B);
Expr operator||(Expr A, Expr B);
Expr operator!(Expr A);

/// Elementwise minimum / maximum.
Expr min(Expr A, Expr B);
Expr max(Expr A, Expr B);
/// Clamps \p E to [Lo, Hi]. Also serves as the paper's bounds-declaration
/// operator for interval analysis (section 4.2).
Expr clamp(Expr E, Expr Lo, Expr Hi);
/// Ternary conditional expression.
Expr select(Expr Condition, Expr TrueValue, Expr FalseValue);
/// Multi-way selects, evaluated first-match-wins (sugar for nested selects).
Expr select(Expr C1, Expr V1, Expr C2, Expr V2, Expr Default);
Expr select(Expr C1, Expr V1, Expr C2, Expr V2, Expr C3, Expr V3,
            Expr Default);
/// Absolute value.
Expr abs(Expr E);

/// Explicit conversion to type \p T.
Expr cast(Type T, Expr E);
/// Explicit conversion to the Type corresponding to C++ type T.
template <typename T> Expr cast(Expr E);

/// Maps C++ arithmetic types to IR types (for cast<T> and Buffer<T>).
template <typename T> Type typeOf();
template <> inline Type typeOf<int8_t>() { return Int(8); }
template <> inline Type typeOf<int16_t>() { return Int(16); }
template <> inline Type typeOf<int32_t>() { return Int(32); }
template <> inline Type typeOf<int64_t>() { return Int(64); }
template <> inline Type typeOf<uint8_t>() { return UInt(8); }
template <> inline Type typeOf<uint16_t>() { return UInt(16); }
template <> inline Type typeOf<uint32_t>() { return UInt(32); }
template <> inline Type typeOf<uint64_t>() { return UInt(64); }
template <> inline Type typeOf<float>() { return Float(32); }
template <> inline Type typeOf<double>() { return Float(64); }
template <> inline Type typeOf<bool>() { return Bool(); }

template <typename T> Expr cast(Expr E) { return cast(typeOf<T>(), E); }

// Transcendental and rounding functions; float argument is promoted to
// Float(32) if integer. These lower to PureExtern calls resolved by both
// back ends.
Expr sqrt(Expr E);
Expr sin(Expr E);
Expr cos(Expr E);
Expr exp(Expr E);
Expr log(Expr E);
Expr pow(Expr Base, Expr Exponent);
Expr floor(Expr E);
Expr ceil(Expr E);
Expr round(Expr E);

/// Linear interpolation Zero*(1-W) + One*W, computed in float.
Expr lerp(Expr Zero, Expr One, Expr Weight);

// Integer semantics shared by constant folding, the interpreter, and the C
// backend's emitted helpers.

/// Division rounding toward negative infinity; x/0 is defined as 0, and a
/// type's minimum divided by -1 wraps to that minimum (callers wrap the
/// int64 result to narrower types).
int64_t floorDiv(int64_t A, int64_t B);
/// Remainder matching floorDiv (sign of the divisor); x%0 and x%-1 are 0.
int64_t floorMod(int64_t A, int64_t B);
/// Wraps a value to the representable range of an integer type
/// (two's complement truncation).
int64_t wrapToType(int64_t Value, Type T);

} // namespace halide

#endif // HALIDE_IR_IROPERATORS_H
