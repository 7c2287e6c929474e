//===-- transforms/Simplify.cpp ----------------------------------------------=//

#include "transforms/Simplify.h"
#include "analysis/Derivatives.h"
#include "analysis/Scope.h"
#include "ir/IREquality.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "transforms/Substitute.h"

#include <algorithm>
#include <map>

using namespace halide;

namespace {

/// A canonical linear combination Constant + sum(Coef_i * Atom_i) over
/// non-linear atomic subexpressions. Only built for scalar signed-integer
/// expressions, where the no-overflow assumption licenses reassociation.
struct LinearCombo {
  int64_t Constant = 0;
  std::vector<std::pair<int64_t, Expr>> Terms;
};

bool isCanonicalizableType(Type T) { return T.isInt() && T.isScalar(); }

/// Accumulates E scaled by Scale into Combo. Returns false when the tree
/// contains something that prevents linear decomposition entirely (it never
/// does: unknown nodes become atoms), so the return is used only to abort on
/// overflow hazards.
bool accumulateLinear(const Expr &E, int64_t Scale, LinearCombo *Combo,
                      int Depth = 0) {
  // Keep recursion bounded on adversarial trees.
  if (Depth > 128)
    return false;
  int64_t ConstVal;
  if (asConstInt(E, &ConstVal)) {
    Combo->Constant += Scale * ConstVal;
    return true;
  }
  if (const Add *Op = E.as<Add>())
    return accumulateLinear(Op->A, Scale, Combo, Depth + 1) &&
           accumulateLinear(Op->B, Scale, Combo, Depth + 1);
  if (const Sub *Op = E.as<Sub>())
    return accumulateLinear(Op->A, Scale, Combo, Depth + 1) &&
           accumulateLinear(Op->B, -Scale, Combo, Depth + 1);
  if (const Mul *Op = E.as<Mul>()) {
    int64_t C;
    if (asConstInt(Op->B, &C)) {
      if (C != 0 && std::abs(Scale) > (INT64_MAX / 8) / std::abs(C))
        return false;
      return accumulateLinear(Op->A, Scale * C, Combo, Depth + 1);
    }
    if (asConstInt(Op->A, &C)) {
      if (C != 0 && std::abs(Scale) > (INT64_MAX / 8) / std::abs(C))
        return false;
      return accumulateLinear(Op->B, Scale * C, Combo, Depth + 1);
    }
  }
  Combo->Terms.emplace_back(Scale, E);
  return true;
}

/// Merges equal atoms and sorts terms into the canonical order.
void normalizeCombo(LinearCombo *Combo) {
  std::stable_sort(Combo->Terms.begin(), Combo->Terms.end(),
                   [](const auto &A, const auto &B) {
                     return compareExpr(A.second, B.second) < 0;
                   });
  std::vector<std::pair<int64_t, Expr>> Merged;
  for (const auto &Term : Combo->Terms) {
    if (!Merged.empty() && equal(Merged.back().second, Term.second)) {
      Merged.back().first += Term.first;
      continue;
    }
    Merged.push_back(Term);
  }
  Combo->Terms.clear();
  for (const auto &Term : Merged)
    if (Term.first != 0)
      Combo->Terms.push_back(Term);
}

/// Rebuilds an expression from a canonical linear combination.
Expr rebuildLinear(const LinearCombo &Combo, Type T) {
  Expr Positive, Negative;
  auto addTerm = [&](Expr &Acc, const Expr &Term) {
    Acc = Acc.defined() ? Add::make(Acc, Term) : Term;
  };
  for (const auto &[Coef, Atom] : Combo.Terms) {
    int64_t AbsCoef = Coef < 0 ? -Coef : Coef;
    if (!T.canRepresent(AbsCoef))
      return Expr(); // overflow hazard; caller keeps original
    Expr Term =
        AbsCoef == 1 ? Atom : Mul::make(Atom, makeConst(T, AbsCoef));
    addTerm(Coef > 0 ? Positive : Negative, Term);
  }
  if (!T.canRepresent(Combo.Constant < 0 ? -Combo.Constant : Combo.Constant))
    return Expr();
  if (Combo.Constant > 0)
    addTerm(Positive, makeConst(T, Combo.Constant));
  if (!Positive.defined() && !Negative.defined())
    return makeConst(T, Combo.Constant);
  if (!Positive.defined()) {
    // Everything is negative: emit Constant - Negative (Constant may be 0).
    return Sub::make(makeConst(T, Combo.Constant), Negative);
  }
  Expr Result = Positive;
  if (Negative.defined())
    Result = Sub::make(Result, Negative);
  if (Combo.Constant < 0)
    Result = Sub::make(Result, makeConst(T, -Combo.Constant));
  return Result;
}

/// Canonicalizes an integer-scalar expression as a linear combination.
/// Returns the original expression when canonicalization bails out.
Expr canonicalizeLinear(const Expr &E) {
  if (!isCanonicalizableType(E.type()))
    return E;
  LinearCombo Combo;
  if (!accumulateLinear(E, 1, &Combo))
    return E;
  normalizeCombo(&Combo);
  Expr Rebuilt = rebuildLinear(Combo, E.type());
  return Rebuilt.defined() ? Rebuilt : E;
}

/// simplify(A - B) as a linear combo; returns a constant Expr iff the
/// difference is provably constant.
bool constDifference(const Expr &A, const Expr &B, int64_t *Delta) {
  if (!isCanonicalizableType(A.type()) || A.type() != B.type())
    return false;
  LinearCombo Combo;
  if (!accumulateLinear(A, 1, &Combo) || !accumulateLinear(B, -1, &Combo))
    return false;
  normalizeCombo(&Combo);
  if (!Combo.Terms.empty())
    return false;
  *Delta = Combo.Constant;
  return true;
}

Stmt noOpStmt() { return Evaluate::make(0); }

bool isNoOpStmt(const Stmt &S) {
  if (const Evaluate *E = S.as<Evaluate>())
    return isConst(E->Value);
  return false;
}

class Simplifier : public IRMutator {
public:
  using IRMutator::mutate;

protected:
  Expr visit(const Cast *Op) override {
    Expr Value = mutate(Op->Value);
    // cast folding of immediates and no-op casts.
    Expr Result = cast(Op->NodeType, Value);
    // Collapse cast-of-cast when the inner cast widens within ints.
    if (const Cast *Inner = Result.as<Cast>()) {
      if (const Cast *Inner2 = Inner->Value.as<Cast>()) {
        Type A = Inner2->Value.type(), B = Inner2->NodeType,
             C = Inner->NodeType;
        bool IntsOnly = (A.isInt() || A.isUInt()) &&
                        (B.isInt() || B.isUInt()) &&
                        (C.isInt() || C.isUInt());
        if (IntsOnly && B.Bits >= A.Bits && C.Bits >= B.Bits &&
            (A.isUInt() || B.isInt()))
          return cast(C, Inner2->Value);
      }
    }
    return Result;
  }

  Expr visit(const Add *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    if (Expr V = vectorBinaryRule<Add>(A, B); V.defined())
      return V;
    Expr Raw = A + B; // folds constants and identities
    return canonicalizeLinear(Raw);
  }

  Expr visit(const Sub *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    if (Expr V = vectorBinaryRule<Sub>(A, B); V.defined())
      return V;
    Expr Raw = A - B;
    return canonicalizeLinear(Raw);
  }

  Expr visit(const Mul *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    if (Expr V = vectorBinaryRule<Mul>(A, B); V.defined())
      return V;
    Expr Raw = A * B;
    return canonicalizeLinear(Raw);
  }

  Expr visit(const Div *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    Expr Raw = A / B; // constant folding
    const Div *D = Raw.as<Div>();
    if (!D)
      return Raw;
    int64_t Divisor;
    if (isCanonicalizableType(Raw.type()) && asConstInt(D->B, &Divisor) &&
        Divisor > 0) {
      // (q*c + r) / c == q + r/c under floor division for integer q.
      LinearCombo Combo;
      if (accumulateLinear(D->A, 1, &Combo)) {
        normalizeCombo(&Combo);
        LinearCombo Quotient, Remainder;
        for (const auto &[Coef, Atom] : Combo.Terms) {
          // (x/c1)/c2 == x/(c1*c2) for positive constant divisors.
          if (Coef % Divisor == 0)
            Quotient.Terms.emplace_back(Coef / Divisor, Atom);
          else
            Remainder.Terms.emplace_back(Coef, Atom);
        }
        int64_t ConstQ = Combo.Constant / Divisor;
        int64_t ConstR = Combo.Constant % Divisor;
        if (ConstR < 0) {
          ConstR += Divisor;
          ConstQ -= 1;
        }
        Quotient.Constant = ConstQ;
        Remainder.Constant = ConstR;
        if (Remainder.Terms.empty() && ConstR == 0) {
          Expr Q = rebuildLinear(Quotient, Raw.type());
          if (Q.defined())
            return Q;
        } else if (!Quotient.Terms.empty() || ConstQ != 0) {
          Expr Q = rebuildLinear(Quotient, Raw.type());
          Expr R = rebuildLinear(Remainder, Raw.type());
          if (Q.defined() && R.defined())
            return canonicalizeLinear(
                Add::make(Q, Div::make(R, D->B)));
        }
      }
      // Nested division by positive constants composes.
      if (const Div *InnerDiv = D->A.as<Div>()) {
        int64_t InnerDivisor;
        if (asConstInt(InnerDiv->B, &InnerDivisor) && InnerDivisor > 0 &&
            Divisor <= INT64_MAX / InnerDivisor) {
          Type T = Raw.type();
          if (T.canRepresent(InnerDivisor * Divisor))
            return Div::make(InnerDiv->A,
                             makeConst(T, InnerDivisor * Divisor));
        }
      }
    }
    return Raw;
  }

  Expr visit(const Mod *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    Expr Raw = A % B;
    const Mod *M = Raw.as<Mod>();
    if (!M)
      return Raw;
    int64_t Divisor;
    if (isCanonicalizableType(Raw.type()) && asConstInt(M->B, &Divisor) &&
        Divisor > 0) {
      // (q*c + r) mod c == r mod c.
      LinearCombo Combo;
      if (accumulateLinear(M->A, 1, &Combo)) {
        normalizeCombo(&Combo);
        LinearCombo Remainder;
        bool Dropped = false;
        for (const auto &[Coef, Atom] : Combo.Terms) {
          if (Coef % Divisor == 0) {
            Dropped = true;
            continue;
          }
          Remainder.Terms.emplace_back(Coef, Atom);
        }
        int64_t ConstR = Combo.Constant % Divisor;
        if (ConstR < 0)
          ConstR += Divisor;
        Dropped |= ConstR != Combo.Constant;
        Remainder.Constant = ConstR;
        if (Remainder.Terms.empty())
          return makeConst(Raw.type(), ConstR);
        if (Dropped) {
          Expr R = rebuildLinear(Remainder, Raw.type());
          if (R.defined())
            return Mod::make(R, M->B);
        }
      }
    }
    return Raw;
  }

  Expr visit(const Min *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    if (Expr V = vectorBinaryRule<Min>(A, B); V.defined())
      return V;
    Expr Raw = min(A, B);
    const Min *M = Raw.as<Min>();
    if (!M)
      return Raw;
    if (equal(M->A, M->B))
      return M->A;
    int64_t Delta;
    if (constDifference(M->A, M->B, &Delta))
      return Delta <= 0 ? M->A : M->B;
    // min(min(x, c1), c2) -> min(x, min(c1, c2))
    if (const Min *Inner = M->A.as<Min>()) {
      if (isConst(Inner->B) && isConst(M->B))
        return min(Inner->A, min(Inner->B, M->B));
      if (equal(Inner->A, M->B) || equal(Inner->B, M->B))
        return M->A;
    }
    return Raw;
  }

  Expr visit(const Max *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    if (Expr V = vectorBinaryRule<Max>(A, B); V.defined())
      return V;
    Expr Raw = max(A, B);
    const Max *M = Raw.as<Max>();
    if (!M)
      return Raw;
    if (equal(M->A, M->B))
      return M->A;
    int64_t Delta;
    if (constDifference(M->A, M->B, &Delta))
      return Delta >= 0 ? M->A : M->B;
    if (const Max *Inner = M->A.as<Max>()) {
      if (isConst(Inner->B) && isConst(M->B))
        return max(Inner->A, max(Inner->B, M->B));
      if (equal(Inner->A, M->B) || equal(Inner->B, M->B))
        return M->A;
    }
    return Raw;
  }

  Expr visit(const EQ *Op) override { return compareRule<EQ>(Op); }
  Expr visit(const NE *Op) override { return compareRule<NE>(Op); }
  Expr visit(const LT *Op) override { return compareRule<LT>(Op); }
  Expr visit(const LE *Op) override { return compareRule<LE>(Op); }
  Expr visit(const GT *Op) override { return compareRule<GT>(Op); }
  Expr visit(const GE *Op) override { return compareRule<GE>(Op); }

  Expr visit(const And *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    if (equal(A, B))
      return A;
    return A && B;
  }

  Expr visit(const Or *Op) override {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    if (equal(A, B))
      return A;
    return A || B;
  }

  Expr visit(const Not *Op) override {
    Expr A = mutate(Op->A);
    if (const Not *Inner = A.as<Not>())
      return Inner->A;
    return !A;
  }

  Expr visit(const Select *Op) override {
    Expr Condition = mutate(Op->Condition);
    Expr TrueValue = mutate(Op->TrueValue);
    Expr FalseValue = mutate(Op->FalseValue);
    if (equal(TrueValue, FalseValue))
      return TrueValue;
    return select(Condition, TrueValue, FalseValue);
  }

  Expr visit(const Ramp *Op) override {
    Expr Base = mutate(Op->Base);
    Expr Stride = mutate(Op->Stride);
    if (isConstZero(Stride))
      return Broadcast::make(Base, Op->Lanes);
    if (Base.sameAs(Op->Base) && Stride.sameAs(Op->Stride))
      return Op;
    return Ramp::make(Base, Stride, Op->Lanes);
  }

  // Trivial let values (constants, variable aliases, vector index shapes)
  // are inlined by carrying the binding in a scope consulted at each
  // Variable, not by an eager substitute() — one traversal total, where
  // per-let substitution cost O(lets x body) on the deep preamble chains
  // bounds inference now emits. Dead lets are swept afterwards in one
  // batched pass (removeDeadLets) for the same reason.
  Expr visit(const Variable *Op) override {
    if (InlinedLets.contains(Op->Name)) {
      const Expr &Replacement = InlinedLets.get(Op->Name);
      if (Replacement.defined())
        return Replacement;
    }
    return Op;
  }

  Expr visit(const Let *Op) override {
    SawLet = true;
    Expr Value = mutate(Op->Value);
    if (shouldInlineLet(Value)) {
      // When the value itself references a shadowed outer binding of the
      // same name (splits reuse the old dimension name for the outer loop
      // variable), a scope binding would resolve those references to the
      // value itself while it is being re-visited. Substitute eagerly for
      // this rare shape; carry the binding in scope otherwise.
      if (exprUsesVar(Value, Op->Name))
        return mutate(substitute(Op->Name, Value, Op->Body));
      ScopedBinding<Expr> Bind(InlinedLets, Op->Name, Value);
      return mutate(Op->Body);
    }
    // An undefined binding shadows any enclosing inlined let of this name.
    ScopedBinding<Expr> Shadow(InlinedLets, Op->Name, Expr());
    Expr Body = mutate(Op->Body);
    if (Value.sameAs(Op->Value) && Body.sameAs(Op->Body))
      return Op;
    return Let::make(Op->Name, Value, Body);
  }

  Stmt visit(const LetStmt *Op) override {
    SawLet = true;
    Expr Value = mutate(Op->Value);
    if (shouldInlineLet(Value)) {
      // See visit(Let): self-shadowing values must not ride the scope.
      if (exprUsesVar(Value, Op->Name))
        return mutate(substitute(Op->Name, Value, Op->Body));
      ScopedBinding<Expr> Bind(InlinedLets, Op->Name, Value);
      return mutate(Op->Body);
    }
    ScopedBinding<Expr> Shadow(InlinedLets, Op->Name, Expr());
    Stmt Body = mutate(Op->Body);
    if (Value.sameAs(Op->Value) && Body.sameAs(Op->Body))
      return Op;
    return LetStmt::make(Op->Name, Value, Body);
  }

  Stmt visit(const For *Op) override {
    Expr MinExpr = mutate(Op->MinExpr);
    Expr Extent = mutate(Op->Extent);
    int64_t ConstExtent;
    if (asConstInt(Extent, &ConstExtent)) {
      if (ConstExtent <= 0)
        return noOpStmt();
      if (ConstExtent == 1 && Op->Kind != ForType::Vectorized) {
        Stmt Body = mutate(substitute(Op->Name, MinExpr, Op->Body));
        return Body;
      }
    }
    // The loop variable shadows any enclosing inlined let of its name.
    ScopedBinding<Expr> Shadow(InlinedLets, Op->Name, Expr());
    Stmt Body = mutate(Op->Body);
    if (isNoOpStmt(Body))
      return noOpStmt();
    if (MinExpr.sameAs(Op->MinExpr) && Extent.sameAs(Op->Extent) &&
        Body.sameAs(Op->Body))
      return Op;
    return For::make(Op->Name, MinExpr, Extent, Op->Kind, Body);
  }

  Stmt visit(const IfThenElse *Op) override {
    Expr Condition = mutate(Op->Condition);
    int64_t CondValue;
    if (asConstInt(Condition, &CondValue)) {
      if (CondValue)
        return mutate(Op->ThenCase);
      if (Op->ElseCase.defined())
        return mutate(Op->ElseCase);
      return noOpStmt();
    }
    Stmt ThenCase = mutate(Op->ThenCase);
    Stmt ElseCase = mutate(Op->ElseCase);
    if (ElseCase.defined() && isNoOpStmt(ElseCase))
      ElseCase = Stmt();
    if (isNoOpStmt(ThenCase) && !ElseCase.defined())
      return noOpStmt();
    if (Condition.sameAs(Op->Condition) && ThenCase.sameAs(Op->ThenCase) &&
        ElseCase.sameAs(Op->ElseCase))
      return Op;
    return IfThenElse::make(Condition, ThenCase, ElseCase);
  }

  Stmt visit(const Block *Op) override {
    Stmt First = mutate(Op->First);
    Stmt Rest = mutate(Op->Rest);
    if (isNoOpStmt(First))
      return Rest;
    if (isNoOpStmt(Rest))
      return First;
    if (First.sameAs(Op->First) && Rest.sameAs(Op->Rest))
      return Op;
    return Block::make(First, Rest);
  }

  Stmt visit(const AssertStmt *Op) override {
    Expr Condition = mutate(Op->Condition);
    if (isConstOne(Condition))
      return noOpStmt();
    if (Condition.sameAs(Op->Condition))
      return Op;
    return AssertStmt::make(Condition, Op->Message);
  }

public:
  /// Whether any Let/LetStmt was encountered — when false, the dead-let
  /// sweep has nothing to do and is skipped (simplify() runs on every
  /// endpoint a bounds walk binds, most of which are let-free).
  bool SawLet = false;

private:
  /// Bindings for lets being inlined; an undefined Expr marks a shadowing
  /// (non-inlined) binding of the same name.
  Scope<Expr> InlinedLets;

  static bool shouldInlineLet(const Expr &Value) {
    // Constants, plain variable aliases, and vector index shapes always
    // inline: keeping ramps visible at loads/stores is what lets the
    // back end classify dense accesses (paper section 4.5).
    return isConst(Value) || Value.as<Variable>() != nullptr ||
           Value.as<Broadcast>() != nullptr || Value.as<Ramp>() != nullptr;
  }

  /// Broadcast/Ramp algebra, shared by the elementwise binary visits:
  ///   op(Broadcast(a), Broadcast(b)) -> Broadcast(op(a, b))
  ///   Add/Sub(Ramp, Broadcast)       -> Ramp with adjusted base
  ///   Mul(Ramp, Broadcast)           -> Ramp with scaled base and stride
  template <typename NodeT>
  Expr vectorBinaryRule(const Expr &A, const Expr &B) {
    const Broadcast *BA = A.as<Broadcast>();
    const Broadcast *BB = B.as<Broadcast>();
    if (BA && BB)
      return Broadcast::make(mutate(NodeT::make(BA->Value, BB->Value)),
                             BA->Lanes);
    const Ramp *RA = A.as<Ramp>();
    const Ramp *RB = B.as<Ramp>();
    if constexpr (NodeT::StaticKind == IRNodeKind::Add) {
      if (RA && BB)
        return Ramp::make(mutate(Add::make(RA->Base, BB->Value)),
                          mutate(RA->Stride), RA->Lanes);
      if (BA && RB)
        return Ramp::make(mutate(Add::make(BA->Value, RB->Base)),
                          mutate(RB->Stride), RB->Lanes);
      if (RA && RB)
        return Ramp::make(mutate(Add::make(RA->Base, RB->Base)),
                          mutate(Add::make(RA->Stride, RB->Stride)),
                          RA->Lanes);
    }
    if constexpr (NodeT::StaticKind == IRNodeKind::Sub) {
      if (RA && BB)
        return Ramp::make(mutate(Sub::make(RA->Base, BB->Value)),
                          mutate(RA->Stride), RA->Lanes);
      // Mirrored indices ("W - 1 - x") subtract a ramp from a broadcast;
      // folding to a negative-stride ramp is what lets the back ends
      // classify the access as dense-reversed instead of a gather.
      if (BA && RB)
        return Ramp::make(
            mutate(Sub::make(BA->Value, RB->Base)),
            mutate(Sub::make(makeZero(RB->Stride.type()), RB->Stride)),
            RB->Lanes);
      if (RA && RB)
        return Ramp::make(mutate(Sub::make(RA->Base, RB->Base)),
                          mutate(Sub::make(RA->Stride, RB->Stride)),
                          RA->Lanes);
    }
    if constexpr (NodeT::StaticKind == IRNodeKind::Mul) {
      if (RA && BB)
        return Ramp::make(mutate(Mul::make(RA->Base, BB->Value)),
                          mutate(Mul::make(RA->Stride, BB->Value)),
                          RA->Lanes);
      if (BA && RB)
        return Ramp::make(mutate(Mul::make(BA->Value, RB->Base)),
                          mutate(Mul::make(BA->Value, RB->Stride)),
                          RB->Lanes);
    }
    return Expr();
  }

  template <typename NodeT> Expr compareRule(const NodeT *Op) {
    Expr A = mutate(Op->A), B = mutate(Op->B);
    // Broadcast comparisons become broadcast booleans.
    const Broadcast *BA = A.as<Broadcast>();
    const Broadcast *BB = B.as<Broadcast>();
    if (BA && BB)
      return Broadcast::make(mutate(NodeT::make(BA->Value, BB->Value)),
                             BA->Lanes);
    int64_t Delta;
    if (constDifference(A, B, &Delta)) {
      bool R = false;
      switch (NodeT::StaticKind) {
      case IRNodeKind::EQ:
        R = Delta == 0;
        break;
      case IRNodeKind::NE:
        R = Delta != 0;
        break;
      case IRNodeKind::LT:
        R = Delta < 0;
        break;
      case IRNodeKind::LE:
        R = Delta <= 0;
        break;
      case IRNodeKind::GT:
        R = Delta > 0;
        break;
      case IRNodeKind::GE:
        R = Delta >= 0;
        break;
      default:
        internal_error << "non-comparison in compareRule";
      }
      return makeConst(Bool(A.type().Lanes), int64_t(R));
    }
    // Fall back to the operator (folds matching immediates).
    switch (NodeT::StaticKind) {
    case IRNodeKind::EQ:
      return A == B;
    case IRNodeKind::NE:
      return A != B;
    case IRNodeKind::LT:
      return A < B;
    case IRNodeKind::LE:
      return A <= B;
    case IRNodeKind::GT:
      return A > B;
    case IRNodeKind::GE:
      return A >= B;
    default:
      internal_error << "non-comparison in compareRule";
      return Expr();
    }
  }
};

//===----------------------------------------------------------------------===//
// Batched dead-let elimination: one counting walk plus one removal walk per
// round, instead of a per-let O(body) liveness scan inside the simplifier.
//===----------------------------------------------------------------------===//

/// Counts occurrences of every variable name (aggregated across scopes —
/// a name is only removable when no occurrence anywhere uses it, which is
/// conservative under shadowing).
class CountVarUses : public IRVisitor {
public:
  std::map<std::string, size_t> Counts;
  void visit(const Variable *Op) override { ++Counts[Op->Name]; }
};

/// Drops Let/LetStmt bindings whose name is never referenced.
class DropDeadLets : public IRMutator {
public:
  explicit DropDeadLets(const std::map<std::string, size_t> &Counts)
      : Counts(Counts) {}

  bool Removed = false;

protected:
  Expr visit(const Let *Op) override {
    if (!Counts.count(Op->Name)) {
      Removed = true;
      return mutate(Op->Body);
    }
    return IRMutator::visit(Op);
  }

  Stmt visit(const LetStmt *Op) override {
    if (!Counts.count(Op->Name)) {
      Removed = true;
      return mutate(Op->Body);
    }
    return IRMutator::visit(Op);
  }

private:
  const std::map<std::string, size_t> &Counts;
};

template <typename NodeT> NodeT removeDeadLets(NodeT S) {
  // A removed let can orphan names its value referenced; iterate to a
  // fixpoint, with a cap so pathological chains cost bounded time (any
  // survivors are merely unused bindings).
  for (int Round = 0; Round < 8; ++Round) {
    CountVarUses Uses;
    S.accept(&Uses);
    DropDeadLets Dropper(Uses.Counts);
    NodeT Next = Dropper.mutate(S);
    if (!Dropper.Removed)
      break;
    S = Next;
  }
  return S;
}

} // namespace

namespace {

/// Two Simplifier rounds (rules frequently expose further folding), then
/// the batched dead-let sweep. Removing a let can unblock folds its node
/// was splitting apart (e.g. an ancestor of a body that collapsed to a
/// constant), so a removal triggers one more fold-and-sweep round.
template <typename NodeT> NodeT simplifyImpl(const NodeT &X) {
  Simplifier S;
  NodeT Folded = S.mutate(S.mutate(X));
  if (!S.SawLet)
    return Folded;
  NodeT Swept = removeDeadLets(Folded);
  if (!Swept.sameAs(Folded))
    Swept = removeDeadLets(S.mutate(Swept));
  return Swept;
}

} // namespace

Expr halide::simplify(const Expr &E) {
  if (!E.defined())
    return E;
  return simplifyImpl(E);
}

Stmt halide::simplify(const Stmt &S) {
  if (!S.defined())
    return S;
  return simplifyImpl(S);
}

bool halide::isProvablyTrue(const Expr &E) {
  return isConstOne(simplify(E));
}

bool halide::isProvablyFalse(const Expr &E) {
  Expr S = simplify(E);
  int64_t V;
  return asConstInt(S, &V) && V == 0;
}

bool halide::proveConstInt(const Expr &E, int64_t *Value) {
  return asConstInt(simplify(E), Value);
}
