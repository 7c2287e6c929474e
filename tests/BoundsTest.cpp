//===-- tests/BoundsTest.cpp - Interval analysis & boxes ---------------------===//

#include "analysis/Bounds.h"
#include "analysis/Interval.h"
#include "analysis/Monotonic.h"
#include "analysis/Derivatives.h"
#include "ir/IREquality.h"
#include "ir/IROperators.h"
#include "ir/IRPrinter.h"
#include "ir/IRVisitor.h"
#include "transforms/Simplify.h"
#include "transforms/Substitute.h"

#include <gtest/gtest.h>
#include <random>

using namespace halide;

namespace {
Expr var(const char *Name) { return Variable::make(Int(32), Name); }

int64_t constOf(const Expr &E) {
  int64_t V = 0;
  EXPECT_TRUE(proveConstInt(E, &V)) << exprToString(E);
  return V;
}
} // namespace

TEST(IntervalTest, BasicOperations) {
  Interval A(Expr(1), Expr(5)), B(Expr(3), Expr(9));
  Interval U = intervalUnion(A, B);
  EXPECT_EQ(constOf(U.Min), 1);
  EXPECT_EQ(constOf(U.Max), 9);
  Interval I = intervalIntersection(A, B);
  EXPECT_EQ(constOf(I.Min), 3);
  EXPECT_EQ(constOf(I.Max), 5);
  EXPECT_TRUE(Interval::single(var("x")).isSinglePoint());
  EXPECT_TRUE(Interval::everything().isEverything());
  // Unbounded union stays unbounded on that side.
  Interval Ub = intervalUnion(Interval(Expr(0), Expr()), A);
  EXPECT_FALSE(Ub.hasUpperBound());
}

TEST(BoundsTest, ArithmeticBounds) {
  Scope<Interval> S;
  S.push("x", Interval(Expr(0), Expr(9)));
  Interval B = boundsOfExprInScope(var("x") * 2 + 1, S);
  EXPECT_EQ(constOf(B.Min), 1);
  EXPECT_EQ(constOf(B.Max), 19);
  B = boundsOfExprInScope(10 - var("x"), S);
  EXPECT_EQ(constOf(B.Min), 1);
  EXPECT_EQ(constOf(B.Max), 10);
  B = boundsOfExprInScope(var("x") * -3, S);
  EXPECT_EQ(constOf(B.Min), -27);
  EXPECT_EQ(constOf(B.Max), 0);
  B = boundsOfExprInScope(var("x") / 2, S);
  EXPECT_EQ(constOf(B.Min), 0);
  EXPECT_EQ(constOf(B.Max), 4);
  B = boundsOfExprInScope(var("x") % 4, S);
  EXPECT_EQ(constOf(B.Min), 0);
  EXPECT_EQ(constOf(B.Max), 3);
}

TEST(BoundsTest, ClampBoundsDataDependent) {
  // The paper's pattern: interval analysis "through nearly any
  // computation", with clamp declaring bounds for unanalyzable values.
  Scope<Interval> S;
  Expr Load = Call::make(UInt(8), "img", {var("x")}, CallType::Image);
  Interval B = boundsOfExprInScope(clamp(cast(Int(32), Load), 0, 255), S);
  EXPECT_EQ(constOf(B.Min), 0);
  EXPECT_EQ(constOf(B.Max), 255);
  // Unclamped uint8 load still bounded by its type.
  B = boundsOfExprInScope(cast(Int(32), Load), S);
  EXPECT_EQ(constOf(B.Min), 0);
  EXPECT_EQ(constOf(B.Max), 255);
}

TEST(BoundsTest, SymbolicBounds) {
  // Unknown variables stay symbolic: bounds inference depends on this to
  // emit per-loop-level preambles.
  Scope<Interval> S;
  S.push("x", Interval(var("lo"), var("hi")));
  Interval B = boundsOfExprInScope(var("x") + 1, S);
  EXPECT_TRUE(equal(simplify(B.Min), simplify(var("lo") + 1)));
  EXPECT_TRUE(equal(simplify(B.Max), simplify(var("hi") + 1)));
}

TEST(BoundsTest, SelectAndMinMax) {
  Scope<Interval> S;
  S.push("x", Interval(Expr(0), Expr(9)));
  Interval B = boundsOfExprInScope(
      select(var("c") == 0, var("x"), var("x") + 100), S);
  EXPECT_EQ(constOf(B.Min), 0);
  EXPECT_EQ(constOf(B.Max), 109);
  B = boundsOfExprInScope(min(var("x"), 5), S);
  EXPECT_EQ(constOf(B.Max), 5);
}

namespace {
/// for y in [0, 10): for x in [0, 20): g(x, y) = f(x - 1, y) + f(x + 1, y)
Stmt stencilOfF() {
  Expr CallF = Call::make(Float(32), "f", {var("x") - 1, var("y")},
                          CallType::Halide) +
               Call::make(Float(32), "f", {var("x") + 1, var("y")},
                          CallType::Halide);
  return For::make(
      "y", 0, 10, ForType::Serial,
      For::make("x", 0, 20, ForType::Serial,
                Provide::make("g", CallF, {var("x"), var("y")})));
}
} // namespace

TEST(BoundsTest, BoxRequiredStencil) {
  Stmt S = stencilOfF();
  Scope<Interval> Empty;
  Box B = boxRequired(S, "f", Empty);
  ASSERT_EQ(B.size(), 2u);
  EXPECT_EQ(constOf(B[0].Min), -1);
  EXPECT_EQ(constOf(B[0].Max), 20);
  EXPECT_EQ(constOf(B[1].Min), 0);
  EXPECT_EQ(constOf(B[1].Max), 9);
  Box P = boxProvided(S, "g", Empty);
  ASSERT_EQ(P.size(), 2u);
  EXPECT_EQ(constOf(P[0].Max), 19);
}

TEST(BoundsTest, BoxRequiredSkipsBindingsThatEncloseNoCall) {
  // Another function's calls sit under a loop, a LetStmt and a Let that
  // enclose no call to f.
  Expr CallH = Let::make(
      "s", var("i") * 2,
      Call::make(Float(32), "h", {var("s"), var("t")}, CallType::Halide));
  Stmt Other = For::make(
      "j", 0, 8, ForType::Serial,
      LetStmt::make("t", var("j") * 3 + 7,
                    For::make("i", var("t"), 16, ForType::Serial,
                              Provide::make("k", CallH,
                                            {var("i"), var("j")}))));
  Stmt Reads = stencilOfF();
  Scope<Interval> Empty;

  Bounds::resetStatistics();
  Box Alone = boxRequired(Reads, "f", Empty);
  uint64_t AloneWork = Bounds::statistics().EndpointsBound;
  Bounds::resetStatistics();
  Box Mixed = boxRequired(Block::make(Other, Reads), "f", Empty);
  uint64_t MixedWork = Bounds::statistics().EndpointsBound;

  ASSERT_EQ(Mixed.size(), 2u);
  ASSERT_EQ(Alone.size(), 2u);
  for (size_t D = 0; D < 2; ++D) {
    EXPECT_TRUE(equal(Mixed[D].Min, Alone[D].Min)) << D;
    EXPECT_TRUE(equal(Mixed[D].Max, Alone[D].Max)) << D;
  }
  EXPECT_EQ(constOf(Mixed[0].Min), -1);
  EXPECT_EQ(constOf(Mixed[0].Max), 20);
  // The walk bound nothing in the subtree that never calls f.
  EXPECT_GT(AloneWork, 0u);
  EXPECT_EQ(MixedWork, AloneWork);

  // The same statement still yields h's region when h is asked for:
  // s = 2i over i in [t, t + 15], t = 3j + 7 over j in [0, 7].
  Box H = boxRequired(Block::make(Other, Reads), "h", Empty);
  ASSERT_EQ(H.size(), 2u);
  EXPECT_EQ(constOf(H[0].Min), 14);
  EXPECT_EQ(constOf(H[0].Max), 2 * (28 + 15));
  EXPECT_EQ(constOf(H[1].Min), 7);
  EXPECT_EQ(constOf(H[1].Max), 28);
}

TEST(BoundsTest, BoxRequiredSeesASharedSubtreeUnderEveryParent) {
  // One loop node calling f(x + t), reached under two different bindings
  // of t: the region must cover both, however the walk meets the node.
  Stmt Shared = For::make(
      "x", 0, 20, ForType::Serial,
      Provide::make("g",
                    Call::make(Float(32), "f", {var("x") + var("t")},
                               CallType::Halide),
                    {var("x")}));
  Stmt S = Block::make(LetStmt::make("t", 0, Shared),
                       LetStmt::make("t", 100, Shared));
  Scope<Interval> Empty;
  Box B = boxRequired(S, "f", Empty);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_EQ(constOf(B[0].Min), 0);
  EXPECT_EQ(constOf(B[0].Max), 119);
}

TEST(BoundsTest, LetBoundsEvaluateLikeTheDirectExpression) {
  // let a = big in let b = big in a + b, where big is a min over four
  // lines in u: each let binds its value's interval, and the result
  // evaluates like big + big.
  auto Big = [] {
    Expr U = var("u");
    return min(U * 2 + 1, min(U * 3 + 2, min(U * 5 + 3, U * 7 + 4)));
  };
  Expr E = Let::make("a", Big(), Let::make("b", Big(), var("a") + var("b")));
  Scope<Interval> S;
  Interval B = boundsOfExprInScope(E, S);
  ASSERT_TRUE(B.isBounded());
  for (int U : {-3, 0, 7}) {
    int64_t Direct = 0, Min = 0, Max = 0;
    ASSERT_TRUE(
        proveConstInt(simplify(substitute("u", Expr(U), Big() + Big())),
                      &Direct));
    ASSERT_TRUE(proveConstInt(simplify(substitute("u", Expr(U), B.Min)), &Min))
        << exprToString(B.Min);
    ASSERT_TRUE(proveConstInt(simplify(substitute("u", Expr(U), B.Max)), &Max))
        << exprToString(B.Max);
    EXPECT_EQ(Min, Direct) << "at u=" << U;
    EXPECT_EQ(Max, Direct) << "at u=" << U;
  }
}

TEST(MonotonicTest, Classification) {
  Expr Y = var("y");
  EXPECT_EQ(isMonotonic(Y, "y"), Monotonic::Increasing);
  EXPECT_EQ(isMonotonic(Y * 2 + 3, "y"), Monotonic::Increasing);
  EXPECT_EQ(isMonotonic(5 - Y, "y"), Monotonic::Decreasing);
  EXPECT_EQ(isMonotonic(Y * -1, "y"), Monotonic::Decreasing);
  EXPECT_EQ(isMonotonic(var("x"), "y"), Monotonic::Constant);
  EXPECT_EQ(isMonotonic(Y / 2, "y"), Monotonic::Increasing);
  EXPECT_EQ(isMonotonic(Y % 3, "y"), Monotonic::Unknown);
  EXPECT_EQ(isMonotonic(min(Y, Y + 2), "y"), Monotonic::Increasing);
  EXPECT_EQ(isMonotonic(Y - Y, "y"), Monotonic::Unknown); // not simplified
  EXPECT_EQ(isMonotonic(max(Y * 2, Y + 1), "y"), Monotonic::Increasing);
  EXPECT_EQ(isMonotonic(select(var("c") == 0, Y, Y + 1), "y"),
            Monotonic::Increasing);
}

TEST(DerivativesTest, VarUsage) {
  Expr E = var("x") + var("y") * 2;
  EXPECT_TRUE(exprUsesVar(E, "x"));
  EXPECT_FALSE(exprUsesVar(E, "z"));
  // Lets shadow.
  Expr L = Let::make("x", Expr(1), var("x") + var("y"));
  EXPECT_FALSE(exprUsesVar(L, "x"));
  EXPECT_TRUE(exprUsesVar(L, "y"));
  auto Free = freeVars(E);
  EXPECT_EQ(Free.size(), 2u);
  EXPECT_TRUE(Free.count("x"));
}

TEST(DerivativesTest, AffineStride) {
  int64_t Stride;
  EXPECT_TRUE(affineStride(var("x") * 3 + var("y"), "x", &Stride));
  EXPECT_EQ(Stride, 3);
  EXPECT_TRUE(affineStride(var("x") * 3 + var("y"), "y", &Stride));
  EXPECT_EQ(Stride, 1);
  EXPECT_TRUE(affineStride(var("y") * 7, "x", &Stride));
  EXPECT_EQ(Stride, 0);
  EXPECT_TRUE(affineStride(var("x") - var("x") * 4, "x", &Stride));
  EXPECT_EQ(Stride, -3);
  EXPECT_FALSE(affineStride(var("x") * var("x"), "x", &Stride));
}

//===----------------------------------------------------------------------===//
// Property: inferred bounds contain every reachable value.
//===----------------------------------------------------------------------===//

namespace {

Expr randomIndexExpr(std::mt19937 &Rng, int Depth) {
  std::uniform_int_distribution<int> Pick(0, Depth <= 0 ? 1 : 7);
  switch (Pick(Rng)) {
  case 0:
    return Expr(int(std::uniform_int_distribution<int>(-8, 8)(Rng)));
  case 1:
    return var("x");
  case 2:
    return randomIndexExpr(Rng, Depth - 1) + randomIndexExpr(Rng, Depth - 1);
  case 3:
    return randomIndexExpr(Rng, Depth - 1) - randomIndexExpr(Rng, Depth - 1);
  case 4:
    return randomIndexExpr(Rng, Depth - 1) *
           Expr(int(std::uniform_int_distribution<int>(-3, 3)(Rng)));
  case 5:
    return min(randomIndexExpr(Rng, Depth - 1),
               randomIndexExpr(Rng, Depth - 1));
  case 6:
    return randomIndexExpr(Rng, Depth - 1) /
           Expr(int(std::uniform_int_distribution<int>(1, 4)(Rng)));
  default:
    return max(randomIndexExpr(Rng, Depth - 1),
               randomIndexExpr(Rng, Depth - 1));
  }
}

} // namespace

class BoundsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundsPropertyTest, BoundsContainAllValues) {
  std::mt19937 Rng(uint32_t(GetParam()) + 1000);
  Expr E = randomIndexExpr(Rng, 4);
  const int Lo = -5, Hi = 7;
  Scope<Interval> S;
  S.push("x", Interval(Expr(Lo), Expr(Hi)));
  Interval B = boundsOfExprInScope(E, S);
  ASSERT_TRUE(B.isBounded()) << exprToString(E);
  int64_t Min = constOf(B.Min), Max = constOf(B.Max);
  for (int X = Lo; X <= Hi; ++X) {
    Expr V = simplify(substitute("x", Expr(X), E));
    int64_t C = 0;
    ASSERT_TRUE(asConstInt(V, &C));
    EXPECT_LE(Min, C) << exprToString(E) << " at x=" << X;
    EXPECT_GE(Max, C) << exprToString(E) << " at x=" << X;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIndexExprs, BoundsPropertyTest,
                         ::testing::Range(0, 60));
