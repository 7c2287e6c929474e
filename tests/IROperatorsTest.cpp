//===-- tests/IROperatorsTest.cpp - Operator and folding tests -------------===//

#include "ir/IROperators.h"
#include "ir/IREquality.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace halide;

namespace {
Expr var(const char *Name) { return Variable::make(Int(32), Name); }
} // namespace

TEST(IROperatorsTest, ConstantFolding) {
  int64_t V;
  EXPECT_TRUE(asConstInt(Expr(2) + Expr(3), &V));
  EXPECT_EQ(V, 5);
  EXPECT_TRUE(asConstInt(Expr(7) * Expr(6), &V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(asConstInt(min(Expr(3), Expr(9)), &V));
  EXPECT_EQ(V, 3);
  EXPECT_TRUE(asConstInt(max(Expr(3), Expr(9)), &V));
  EXPECT_EQ(V, 9);
}

TEST(IROperatorsTest, FloorDivisionSemantics) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
  EXPECT_EQ(floorDiv(5, 0), 0); // defined as zero
  EXPECT_EQ(floorMod(7, 3), 1);
  EXPECT_EQ(floorMod(-7, 3), 2); // sign of divisor
  EXPECT_EQ(floorMod(-6, 3), 0);
  int64_t V;
  EXPECT_TRUE(asConstInt(Expr(-7) / Expr(2), &V));
  EXPECT_EQ(V, -4);
  EXPECT_TRUE(asConstInt(Expr(-7) % Expr(2), &V));
  EXPECT_EQ(V, 1);
}

TEST(IROperatorsTest, MinimumOverMinusOneWraps) {
  // A type's minimum divided by -1 wraps to the minimum, as on both
  // engines, and its remainder is 0; folding must neither trap nor build
  // an immediate its type cannot hold.
  EXPECT_EQ(floorDiv(INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(floorMod(INT64_MIN, -1), 0);
  for (int Bits : {8, 16, 32, 64}) {
    SCOPED_TRACE("int" + std::to_string(Bits));
    const Type T = Int(Bits);
    const Expr MinusOne = makeConst(T, int64_t(-1));
    int64_t V;
    ASSERT_TRUE(asConstInt(makeTypeMin(T) / MinusOne, &V));
    EXPECT_EQ(V, T.intMin());
    ASSERT_TRUE(asConstInt(makeTypeMin(T) % MinusOne, &V));
    EXPECT_EQ(V, 0);
    ASSERT_TRUE(asConstInt(makeTypeMax(T) / MinusOne, &V));
    EXPECT_EQ(V, -T.intMax());
  }
}

TEST(IROperatorsTest, WrapToType) {
  EXPECT_EQ(wrapToType(256, UInt(8)), 0);
  EXPECT_EQ(wrapToType(257, UInt(8)), 1);
  EXPECT_EQ(wrapToType(128, Int(8)), -128);
  EXPECT_EQ(wrapToType(-1, UInt(8)), 255);
}

TEST(IROperatorsTest, Identities) {
  Expr X = var("x");
  EXPECT_TRUE(equal(X + 0, X));
  EXPECT_TRUE(equal(X * 1, X));
  EXPECT_TRUE(equal(X - 0, X));
  EXPECT_TRUE(isConstZero(X * 0));
  EXPECT_TRUE(equal(X / 1, X));
}

TEST(IROperatorsTest, TypePromotion) {
  Expr U8 = makeConst(UInt(8), int64_t(3));
  // Immediate adopts the non-immediate side's type.
  Expr E = Variable::make(UInt(8), "v") + 1;
  EXPECT_EQ(E.type(), UInt(8));
  // Mixed widths widen.
  Expr Wide = Variable::make(Int(16), "a") + Variable::make(Int(32), "b");
  EXPECT_EQ(Wide.type(), Int(32));
  // int + float -> float.
  Expr F = var("x") + Expr(1.5f);
  EXPECT_EQ(F.type(), Float(32));
  // uint + int at equal width -> int.
  Expr M = Variable::make(UInt(32), "u") + var("x");
  EXPECT_EQ(M.type(), Int(32));
  (void)U8;
}

TEST(IROperatorsTest, VectorBroadcastPromotion) {
  Expr V = Broadcast::make(var("x"), 4);
  Expr E = V + 1;
  EXPECT_EQ(E.type(), Int(32, 4));
}

TEST(IROperatorsTest, Comparisons) {
  int64_t V;
  EXPECT_TRUE(asConstInt(Expr(2) < Expr(3), &V));
  EXPECT_EQ(V, 1);
  EXPECT_TRUE(asConstInt(Expr(3) <= Expr(2), &V));
  EXPECT_EQ(V, 0);
  EXPECT_EQ((var("x") < var("y")).type(), Bool());
}

TEST(IROperatorsTest, BooleanAlgebra) {
  Expr T = makeTrue(), F = makeFalse();
  EXPECT_TRUE(isConstOne(T && T));
  EXPECT_TRUE(isConstZero(T && F));
  EXPECT_TRUE(isConstOne(F || T));
  EXPECT_TRUE(isConstZero(!T));
  Expr C = var("x") < 3;
  EXPECT_TRUE(equal(T && C, C)); // short-circuit identities
  EXPECT_TRUE(equal(F || C, C));
}

TEST(IROperatorsTest, ClampSelectAbs) {
  Expr X = var("x");
  Expr C = clamp(X, 0, 10);
  EXPECT_NE(C.as<Max>(), nullptr); // max(min(x, 10), 0)
  int64_t V;
  EXPECT_TRUE(asConstInt(select(makeTrue(), Expr(1), Expr(2)), &V));
  EXPECT_EQ(V, 1);
  EXPECT_TRUE(asConstInt(select(Expr(1) > Expr(2), Expr(1), Expr(2)), &V));
  EXPECT_EQ(V, 2);
  // Multi-way select.
  Expr MW = select(X == 0, Expr(10), X == 1, Expr(20), Expr(30));
  EXPECT_NE(MW.as<Select>(), nullptr);
}

TEST(IROperatorsTest, CastFolding) {
  int64_t V;
  EXPECT_TRUE(asConstInt(cast(UInt(8), Expr(300)), &V));
  EXPECT_EQ(V, 44); // wraps
  double F;
  EXPECT_TRUE(asConstFloat(cast(Float(32), Expr(3)), &F));
  EXPECT_EQ(F, 3.0);
  // No-op cast returns the input unchanged.
  Expr X = var("x");
  EXPECT_TRUE(cast(Int(32), X).sameAs(X));
}

TEST(IROperatorsTest, MathFunctions) {
  double F;
  EXPECT_TRUE(asConstFloat(halide::sqrt(Expr(4.0f)), &F));
  EXPECT_FLOAT_EQ(float(F), 2.0f);
  EXPECT_TRUE(asConstFloat(halide::floor(Expr(2.7f)), &F));
  EXPECT_EQ(F, 2.0);
  // Integer args promote to float.
  EXPECT_EQ(halide::sqrt(var("x")).type(), Float(32));
  Expr Pow = halide::pow(Expr(2.0f), var("x"));
  const Call *C = Pow.as<Call>();
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Name, "pow");
  EXPECT_EQ(C->CallKind, CallType::PureExtern);
}

TEST(IROperatorsTest, Lerp) {
  double F;
  EXPECT_TRUE(asConstFloat(lerp(Expr(0.0f), Expr(10.0f), Expr(0.25f)), &F));
  EXPECT_FLOAT_EQ(float(F), 2.5f);
}

TEST(IROperatorsTest, TypeMinMax) {
  int64_t V;
  EXPECT_TRUE(asConstInt(makeTypeMax(UInt(8)), &V));
  EXPECT_EQ(V, 255);
  EXPECT_TRUE(asConstInt(makeTypeMin(Int(16)), &V));
  EXPECT_EQ(V, -32768);
}
