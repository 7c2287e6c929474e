//===-- transforms/CSE.cpp ------------------------------------------------------=//

#include "transforms/CSE.h"
#include "analysis/Derivatives.h"
#include "ir/IREquality.h"
#include "ir/IRMutator.h"
#include "ir/IRVisitor.h"

#include <map>
#include <set>

using namespace halide;

namespace {

/// Is it worth giving this expression a name? Leaves and casts of leaves
/// are cheaper to recompute than to bind.
bool isNontrivial(const Expr &E) {
  switch (E->Kind) {
  case IRNodeKind::IntImm:
  case IRNodeKind::UIntImm:
  case IRNodeKind::FloatImm:
  case IRNodeKind::StringImm:
  case IRNodeKind::Variable:
  case IRNodeKind::Broadcast:
  case IRNodeKind::Ramp:
    return false;
  case IRNodeKind::Cast:
    return isNontrivial(E.as<Cast>()->Value);
  default:
    return true;
  }
}

/// Counts structural occurrences of every subexpression.
class OccurrenceCounter : public IRVisitor {
public:
  std::map<Expr, int, ExprCompare> Counts;

  void countExpr(const Expr &E) {
    if (!isNontrivial(E)) {
      // still recurse into children
      E.accept(this);
      return;
    }
    int &C = Counts[E];
    ++C;
    // Only recurse the first time: children of repeated expressions are
    // counted once per unique parent occurrence being materialized.
    if (C == 1)
      E.accept(this);
  }

  void visit(const Cast *Op) override { countExpr(Op->Value); }
  void visit(const Add *Op) override { countBinary(Op); }
  void visit(const Sub *Op) override { countBinary(Op); }
  void visit(const Mul *Op) override { countBinary(Op); }
  void visit(const Div *Op) override { countBinary(Op); }
  void visit(const Mod *Op) override { countBinary(Op); }
  void visit(const Min *Op) override { countBinary(Op); }
  void visit(const Max *Op) override { countBinary(Op); }
  void visit(const EQ *Op) override { countBinary(Op); }
  void visit(const NE *Op) override { countBinary(Op); }
  void visit(const LT *Op) override { countBinary(Op); }
  void visit(const LE *Op) override { countBinary(Op); }
  void visit(const GT *Op) override { countBinary(Op); }
  void visit(const GE *Op) override { countBinary(Op); }
  void visit(const And *Op) override { countBinary(Op); }
  void visit(const Or *Op) override { countBinary(Op); }
  void visit(const Not *Op) override { countExpr(Op->A); }
  void visit(const Select *Op) override {
    countExpr(Op->Condition);
    countExpr(Op->TrueValue);
    countExpr(Op->FalseValue);
  }
  void visit(const Load *Op) override { countExpr(Op->Index); }
  void visit(const Call *Op) override {
    for (const Expr &Arg : Op->Args)
      countExpr(Arg);
  }
  // Let values are candidates too: an expression may carry Lets before
  // this pass introduces any.
  void visit(const Let *Op) override {
    countExpr(Op->Value);
    Op->Body.accept(this);
  }

private:
  template <typename T> void countBinary(const T *Op) {
    countExpr(Op->A);
    countExpr(Op->B);
  }
};

/// Replaces counted-repeated subexpressions with variables, collecting the
/// bindings (in dependency order: inner expressions first).
class Replacer : public IRMutator {
public:
  Replacer(const std::map<Expr, int, ExprCompare> &Counts) : Counts(Counts) {}

  std::vector<std::pair<std::string, Expr>> Bindings;

  Expr mutate(const Expr &E) override {
    if (!E.defined())
      return E;
    if (isNontrivial(E)) {
      auto It = Counts.find(E);
      // An expression using a Let-bound variable cannot be hoisted to the
      // binding block at the top of the statement: its name would escape
      // its scope. Leave such subtrees inline.
      if (It != Counts.end() && It->second > 1 && !usesBoundName(E)) {
        auto Cached = Replacements.find(E);
        if (Cached != Replacements.end())
          return Cached->second;
        Expr Inner = IRMutator::mutate(E); // CSE children first
        std::string Name = scopedUniqueName("cse$");
        Bindings.emplace_back(Name, Inner);
        Expr Var = Variable::make(E.type(), Name);
        Replacements[E] = Var;
        return Var;
      }
    }
    return IRMutator::mutate(E);
  }

protected:
  Expr visit(const Let *Op) override {
    Expr Value = mutate(Op->Value);
    if (++BoundCounts[Op->Name] == 1)
      BoundNames.insert(Op->Name);
    Expr Body = mutate(Op->Body);
    if (--BoundCounts[Op->Name] == 0) {
      BoundCounts.erase(Op->Name);
      BoundNames.erase(Op->Name);
    }
    if (Value.sameAs(Op->Value) && Body.sameAs(Op->Body))
      return Op;
    return Let::make(Op->Name, Value, Body);
  }

private:
  bool usesBoundName(const Expr &E) const {
    return !BoundNames.empty() && exprUsesVars(E, BoundNames);
  }

  const std::map<Expr, int, ExprCompare> &Counts;
  std::map<Expr, Expr, ExprCompare> Replacements;
  /// Names of Let bindings currently in scope during the mutation, as a
  /// ready-made set so each hoist-candidate query pays no setup.
  std::map<std::string, int> BoundCounts;
  std::set<std::string> BoundNames;
};

Expr cseOne(const Expr &E) {
  OccurrenceCounter Counter;
  Counter.countExpr(E);
  bool AnyRepeated = false;
  for (const auto &[Sub, Count] : Counter.Counts)
    if (Count > 1)
      AnyRepeated = true;
  if (!AnyRepeated)
    return E;
  Replacer R(Counter.Counts);
  Expr Result = R.mutate(E);
  for (size_t I = R.Bindings.size(); I-- > 0;)
    Result = Let::make(R.Bindings[I].first, R.Bindings[I].second, Result);
  return Result;
}

/// Applies CSE to every statement-level expression: store values and
/// indexes, let/loop/allocation bounds, and branch conditions. Bounds
/// inference can build allocation extents whose repeated subtrees grow
/// exponentially with pipeline depth (each pyramid level references the
/// previous level's bounds twice), so skipping any of these positions
/// lets pathological expressions through to the back ends.
class CSEStmt : public IRMutator {
protected:
  Stmt visit(const Store *Op) override {
    Expr Value = cseOne(Op->Value);
    Expr Index = cseOne(Op->Index);
    if (Value.sameAs(Op->Value) && Index.sameAs(Op->Index))
      return Op;
    return Store::make(Op->Name, Value, Index);
  }

  Stmt visit(const Evaluate *Op) override {
    Expr Value = cseOne(Op->Value);
    if (Value.sameAs(Op->Value))
      return Op;
    return Evaluate::make(Value);
  }

  Stmt visit(const LetStmt *Op) override {
    Expr Value = cseOne(Op->Value);
    Stmt Body = mutate(Op->Body);
    if (Value.sameAs(Op->Value) && Body.sameAs(Op->Body))
      return Op;
    return LetStmt::make(Op->Name, Value, Body);
  }

  Stmt visit(const AssertStmt *Op) override {
    Expr Condition = cseOne(Op->Condition);
    if (Condition.sameAs(Op->Condition))
      return Op;
    return AssertStmt::make(Condition, Op->Message);
  }

  Stmt visit(const For *Op) override {
    Expr Min = cseOne(Op->MinExpr);
    Expr Extent = cseOne(Op->Extent);
    Stmt Body = mutate(Op->Body);
    if (Min.sameAs(Op->MinExpr) && Extent.sameAs(Op->Extent) &&
        Body.sameAs(Op->Body))
      return Op;
    return For::make(Op->Name, Min, Extent, Op->Kind, Body);
  }

  Stmt visit(const Allocate *Op) override {
    bool Changed = false;
    std::vector<Expr> Extents;
    Extents.reserve(Op->Extents.size());
    for (const Expr &E : Op->Extents) {
      Extents.push_back(cseOne(E));
      Changed |= !Extents.back().sameAs(E);
    }
    Stmt Body = mutate(Op->Body);
    if (!Changed && Body.sameAs(Op->Body))
      return Op;
    return Allocate::make(Op->Name, Op->ElemType, std::move(Extents), Body);
  }

  Stmt visit(const IfThenElse *Op) override {
    Expr Condition = cseOne(Op->Condition);
    Stmt ThenCase = mutate(Op->ThenCase);
    Stmt ElseCase =
        Op->ElseCase.defined() ? mutate(Op->ElseCase) : Op->ElseCase;
    if (Condition.sameAs(Op->Condition) && ThenCase.sameAs(Op->ThenCase) &&
        ElseCase.sameAs(Op->ElseCase))
      return Op;
    return IfThenElse::make(Condition, ThenCase, ElseCase);
  }
};

} // namespace

Stmt halide::cse(const Stmt &S) {
  CSEStmt Pass;
  return Pass.mutate(S);
}
