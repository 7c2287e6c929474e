//===-- tests/SimplifyTest.cpp - Simplifier rules & properties --------------===//

#include "transforms/Simplify.h"
#include "ir/IREquality.h"
#include "ir/IROperators.h"
#include "ir/IRPrinter.h"
#include "analysis/Bounds.h"
#include "transforms/Substitute.h"

#include <gtest/gtest.h>
#include <random>

using namespace halide;

namespace {
Expr var(const char *Name) { return Variable::make(Int(32), Name); }
} // namespace

TEST(SimplifyTest, LinearCancellation) {
  Expr Y = var("y");
  // The canonicalization sliding window and storage folding rely on.
  int64_t V;
  EXPECT_TRUE(proveConstInt(simplify((Y * 8 + 7) - (Y * 8)), &V));
  EXPECT_EQ(V, 7);
  EXPECT_TRUE(proveConstInt(simplify((Y + 2) - (Y + 0) + 1), &V));
  EXPECT_EQ(V, 3);
  EXPECT_TRUE(proveConstInt(simplify(Y - Y), &V));
  EXPECT_EQ(V, 0);
  EXPECT_TRUE(proveConstInt(simplify(3 * Y + 2 * Y - 5 * Y), &V));
  EXPECT_EQ(V, 0);
}

TEST(SimplifyTest, MinMaxResolution) {
  Expr Y = var("y");
  EXPECT_TRUE(equal(simplify(min(Y, Y + 3)), Y));
  Expr M = simplify(max(Y, Y + 3));
  EXPECT_TRUE(equal(M, simplify(Y + 3)));
  EXPECT_TRUE(equal(simplify(min(Y, Y)), Y));
  // Symbolic min stays.
  EXPECT_NE(simplify(min(var("a"), var("b"))).as<Min>(), nullptr);
}

TEST(SimplifyTest, ComparisonResolution) {
  Expr Y = var("y");
  EXPECT_TRUE(isProvablyTrue(Y < Y + 1));
  EXPECT_TRUE(isProvablyFalse(Y + 2 < Y));
  EXPECT_TRUE(isProvablyTrue(Y * 4 <= Y * 4));
  EXPECT_TRUE(isProvablyTrue(Y * 2 + 1 != Y * 2));
}

TEST(SimplifyTest, DivisionDistribution) {
  Expr X = var("x");
  // (x*c + r)/c == x + r/c under floor division.
  int64_t V;
  EXPECT_TRUE(equal(simplify((X * 8) / 8), X));
  EXPECT_TRUE(equal(simplify((X * 8 + 3) / 8), X));
  Expr E = simplify((X * 16 + 8) / 8);
  EXPECT_TRUE(equal(E, simplify(X * 2 + 1)));
  // Nested division composes.
  EXPECT_TRUE(equal(simplify((X / 4) / 2), simplify(X / 8)));
  (void)V;
}

TEST(SimplifyTest, ModResolution) {
  Expr X = var("x");
  int64_t V;
  EXPECT_TRUE(proveConstInt(simplify((X * 8) % 8), &V));
  EXPECT_EQ(V, 0);
  EXPECT_TRUE(proveConstInt(simplify((X * 8 + 5) % 8), &V));
  EXPECT_EQ(V, 5);
}

TEST(SimplifyTest, SelectAndLet) {
  Expr X = var("x");
  EXPECT_TRUE(equal(simplify(select(makeTrue(), X, X + 1)), X));
  EXPECT_TRUE(equal(simplify(select(X < X, X, X + 1)), simplify(X + 1)));
  // Equal branches collapse.
  EXPECT_TRUE(equal(simplify(select(var("c") == 0, X, X)), X));
  // Trivial lets inline.
  Expr L = Let::make("t", X, Add::make(var("t"), Expr(1)));
  EXPECT_TRUE(equal(simplify(L), simplify(X + 1)));
}

TEST(SimplifyTest, KeepsAHandBuiltLet) {
  // A let of a non-trivial value used twice: simplify walks the binding
  // instead of re-expanding it, substitute of an unrelated name leaves it
  // in place, and the round trip still evaluates like the expanded tree.
  Expr U = var("u");
  Expr Big = min(U * 2 + 1, min(U * 3 + 2, min(U * 5 + 3, U * 7 + 4)));
  Expr E = Let::make("a", Big, var("a") + var("a"));
  Expr Simplified = simplify(E);
  const Let *L = Simplified.as<Let>();
  ASSERT_NE(L, nullptr) << exprToString(Simplified);
  EXPECT_EQ(L->Name, "a");
  Expr Sub = substitute("unrelated", Expr(1), Simplified);
  ASSERT_NE(Sub.as<Let>(), nullptr) << exprToString(Sub);
  int64_t Final = 0, Direct = 0;
  ASSERT_TRUE(proveConstInt(simplify(substitute("u", Expr(4), Sub)), &Final));
  ASSERT_TRUE(
      proveConstInt(simplify(substitute("u", Expr(4), Big + Big)), &Direct));
  EXPECT_EQ(Final, Direct);
}

TEST(SimplifyTest, StatementCleanup) {
  // Zero-extent loops vanish; extent-1 loops unwrap.
  Stmt Dead = For::make("i", 0, 0, ForType::Serial,
                        Store::make("b", var("i"), var("i")));
  std::string Text = stmtToString(simplify(Dead));
  EXPECT_EQ(Text.find("for"), std::string::npos);

  Stmt One = For::make("i", 5, 1, ForType::Serial,
                       Store::make("b", var("i"), var("i")));
  Text = stmtToString(simplify(One));
  EXPECT_EQ(Text.find("for"), std::string::npos);
  EXPECT_NE(Text.find("b[5] = 5"), std::string::npos);

  // if (false) drops the branch; provably-true asserts vanish.
  Stmt If = IfThenElse::make(makeFalse(), Store::make("b", Expr(1), Expr(0)));
  EXPECT_EQ(stmtToString(simplify(If)).find("b["), std::string::npos);
  Stmt Assert = AssertStmt::make(Expr(1) < Expr(2), "ok");
  EXPECT_EQ(stmtToString(simplify(Assert)).find("assert"),
            std::string::npos);
}

TEST(SimplifyTest, VectorAlgebra) {
  Expr R = Ramp::make(var("x"), 1, 8);
  Expr B = Broadcast::make(Expr(3), 8);
  // Ramp + broadcast folds into the ramp base.
  Expr E = simplify(Add::make(R, B));
  const Ramp *RR = E.as<Ramp>();
  ASSERT_NE(RR, nullptr);
  EXPECT_TRUE(equal(RR->Base, simplify(var("x") + 3)));
  // Broadcast op broadcast folds scalar-wise.
  Expr BB = simplify(Mul::make(B, B));
  const Broadcast *BN = BB.as<Broadcast>();
  ASSERT_NE(BN, nullptr);
  int64_t V;
  EXPECT_TRUE(asConstInt(BN->Value, &V));
  EXPECT_EQ(V, 9);
}

TEST(SimplifyTest, ConstantFoldingAcrossMinMaxSelect) {
  // Constants must fold through arbitrary min/max/select nests — the
  // shapes bounds inference produces for tile and pyramid extents.
  int64_t V;
  EXPECT_TRUE(proveConstInt(simplify(min(Expr(3), max(Expr(7), Expr(5)))),
                            &V));
  EXPECT_EQ(V, 3);
  EXPECT_TRUE(proveConstInt(
      simplify(max(min(Expr(-2), Expr(4)), min(Expr(9), Expr(6)))), &V));
  EXPECT_EQ(V, 6);
  EXPECT_TRUE(proveConstInt(
      simplify(select(Expr(3) < Expr(5), min(Expr(8), Expr(2)),
                      max(Expr(1), Expr(0)))),
      &V));
  EXPECT_EQ(V, 2);
  // A select whose condition depends on a variable folds only when both
  // branches agree after folding.
  Expr X = var("x");
  EXPECT_TRUE(proveConstInt(
      simplify(select(X < 0, min(Expr(4), Expr(9)), Expr(2) + Expr(2))),
      &V));
  EXPECT_EQ(V, 4);
  // min distributed over a shared term cancels symbolically.
  EXPECT_TRUE(proveConstInt(simplify(min(X + 3, X + 7) - X), &V));
  EXPECT_EQ(V, 3);
  EXPECT_TRUE(proveConstInt(simplify(max(X - 5, X - 1) - X), &V));
  EXPECT_EQ(V, -1);
}

TEST(SimplifyTest, PowerOfTwoDivMod) {
  // Floor division and modulo by powers of two (the strength-reduction
  // cases the C backend and vectorizer rely on). Negative numerators must
  // follow floor semantics, not C truncation.
  int64_t V;
  EXPECT_TRUE(proveConstInt(simplify(Expr(-7) / 4), &V));
  EXPECT_EQ(V, -2); // floor(-1.75)
  EXPECT_TRUE(proveConstInt(simplify(Expr(-7) % 4), &V));
  EXPECT_EQ(V, 1); // -7 = -2*4 + 1
  EXPECT_TRUE(proveConstInt(simplify(Expr(-8) / 8), &V));
  EXPECT_EQ(V, -1);
  EXPECT_TRUE(proveConstInt(simplify(Expr(-8) % 8), &V));
  EXPECT_EQ(V, 0);

  Expr X = var("x");
  // x*2^k keeps divisibility through shifts of scale.
  EXPECT_TRUE(equal(simplify((X * 32) / 16), simplify(X * 2)));
  EXPECT_TRUE(proveConstInt(simplify((X * 32) % 16), &V));
  EXPECT_EQ(V, 0);
  EXPECT_TRUE(proveConstInt(simplify((X * 16 + 12) % 4), &V));
  EXPECT_EQ(V, 0);
  // Non-dividing remainders keep the residue.
  EXPECT_TRUE(proveConstInt(simplify((X * 16 + 13) % 4), &V));
  EXPECT_EQ(V, 1);
  // Chained power-of-two divisions collapse into one.
  EXPECT_TRUE(equal(simplify((X / 2) / 2 / 2), simplify(X / 8)));
}

TEST(SimplifyTest, RampBroadcastBounds) {
  // Interval analysis over vector IR: a dense ramp spans
  // [base, base + (lanes-1)*stride] and a broadcast is a single point —
  // the facts dense-load classification builds on (paper section 4.5).
  Scope<Interval> Empty;
  Expr X = var("x");

  Interval RampB =
      boundsOfExprInScope(Ramp::make(X, 1, 8), Empty);
  ASSERT_TRUE(RampB.hasLowerBound());
  ASSERT_TRUE(RampB.hasUpperBound());
  EXPECT_TRUE(equal(simplify(RampB.Min), X));
  EXPECT_TRUE(equal(simplify(RampB.Max), simplify(X + 7)));

  // Negative stride flips which end is the minimum.
  Interval RevB =
      boundsOfExprInScope(Ramp::make(X, -2, 4), Empty);
  EXPECT_TRUE(equal(simplify(RevB.Min), simplify(X - 6)));
  EXPECT_TRUE(equal(simplify(RevB.Max), X));

  Interval BcastB =
      boundsOfExprInScope(Broadcast::make(X + 5, 8), Empty);
  EXPECT_TRUE(equal(simplify(BcastB.Min), simplify(X + 5)));
  EXPECT_TRUE(equal(simplify(BcastB.Max), simplify(X + 5)));

  // Constant ramps fold to constant endpoints.
  Interval ConstB =
      boundsOfExprInScope(Ramp::make(Expr(10), 3, 4), Empty);
  int64_t Lo = 0, Hi = 0;
  EXPECT_TRUE(proveConstInt(simplify(ConstB.Min), &Lo));
  EXPECT_TRUE(proveConstInt(simplify(ConstB.Max), &Hi));
  EXPECT_EQ(Lo, 10);
  EXPECT_EQ(Hi, 19);
}

//===----------------------------------------------------------------------===//
// Property test: simplification preserves value on random expressions.
//===----------------------------------------------------------------------===//

namespace {

Expr randomExpr(std::mt19937 &Rng, int Depth) {
  std::uniform_int_distribution<int> Pick(0, Depth <= 0 ? 1 : 9);
  switch (Pick(Rng)) {
  case 0:
    return Expr(int(std::uniform_int_distribution<int>(-20, 20)(Rng)));
  case 1: {
    const char *Names[3] = {"x", "y", "z"};
    return var(Names[std::uniform_int_distribution<int>(0, 2)(Rng)]);
  }
  case 2:
    return randomExpr(Rng, Depth - 1) + randomExpr(Rng, Depth - 1);
  case 3:
    return randomExpr(Rng, Depth - 1) - randomExpr(Rng, Depth - 1);
  case 4:
    return randomExpr(Rng, Depth - 1) *
           Expr(int(std::uniform_int_distribution<int>(-4, 4)(Rng)));
  case 5:
    return min(randomExpr(Rng, Depth - 1), randomExpr(Rng, Depth - 1));
  case 6:
    return max(randomExpr(Rng, Depth - 1), randomExpr(Rng, Depth - 1));
  case 7:
    return randomExpr(Rng, Depth - 1) /
           Expr(int(std::uniform_int_distribution<int>(1, 8)(Rng)));
  case 8:
    return randomExpr(Rng, Depth - 1) %
           Expr(int(std::uniform_int_distribution<int>(1, 8)(Rng)));
  default:
    return select(randomExpr(Rng, Depth - 1) <
                      randomExpr(Rng, Depth - 1),
                  randomExpr(Rng, Depth - 1), randomExpr(Rng, Depth - 1));
  }
}

int64_t evalToConst(const Expr &E, int X, int Y, int Z) {
  std::map<std::string, Expr> Bindings = {
      {"x", Expr(X)}, {"y", Expr(Y)}, {"z", Expr(Z)}};
  Expr Val = simplify(substitute(Bindings, E));
  int64_t V = 0;
  EXPECT_TRUE(asConstInt(Val, &V)) << "did not fold: " << exprToString(Val);
  return V;
}

} // namespace

class SimplifyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyPropertyTest, SimplifyPreservesValue) {
  std::mt19937 Rng(static_cast<uint32_t>(GetParam()));
  Expr E = randomExpr(Rng, 4);
  Expr S = simplify(E);
  for (int X = -3; X <= 3; X += 3)
    for (int Y = -2; Y <= 2; Y += 2)
      for (int Z : {-1, 5}) {
        ASSERT_EQ(evalToConst(E, X, Y, Z), evalToConst(S, X, Y, Z))
            << "expr: " << exprToString(E)
            << "\nsimplified: " << exprToString(S) << "\nat (" << X << ","
            << Y << "," << Z << ")";
      }
}

INSTANTIATE_TEST_SUITE_P(RandomExprs, SimplifyPropertyTest,
                         ::testing::Range(0, 60));
