//===-- analysis/Derivatives.cpp ---------------------------------------------=//

#include "analysis/Derivatives.h"
#include "analysis/Scope.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"

using namespace halide;

namespace {

/// Detects free uses of a set of variables.
class VarUseVisitor : public IRVisitor {
public:
  explicit VarUseVisitor(const std::set<std::string> &Targets)
      : Targets(Targets) {}

  bool Found = false;

  void visit(const Variable *Op) override {
    if (Shadowed.contains(Op->Name))
      return;
    if (Targets.count(Op->Name))
      Found = true;
  }

  void visit(const Let *Op) override {
    Op->Value.accept(this);
    ScopedBinding<int> Bind(Shadowed, Op->Name, 0);
    Op->Body.accept(this);
  }

  void visit(const LetStmt *Op) override {
    Op->Value.accept(this);
    ScopedBinding<int> Bind(Shadowed, Op->Name, 0);
    Op->Body.accept(this);
  }

private:
  const std::set<std::string> &Targets;
  Scope<int> Shadowed;
};

/// Collects all free variable names.
class FreeVarVisitor : public IRVisitor {
public:
  std::set<std::string> Names;

  void visit(const Variable *Op) override {
    if (!Shadowed.contains(Op->Name))
      Names.insert(Op->Name);
  }

  void visit(const Let *Op) override {
    Op->Value.accept(this);
    ScopedBinding<int> Bind(Shadowed, Op->Name, 0);
    Op->Body.accept(this);
  }

private:
  Scope<int> Shadowed;
};

} // namespace

bool halide::exprUsesVar(const Expr &E, const std::string &Var) {
  std::set<std::string> Targets = {Var};
  VarUseVisitor Visitor(Targets);
  if (E.defined())
    E.accept(&Visitor);
  return Visitor.Found;
}

bool halide::exprUsesVars(const Expr &E, const std::set<std::string> &Vars) {
  VarUseVisitor Visitor(Vars);
  if (E.defined())
    E.accept(&Visitor);
  return Visitor.Found;
}

std::set<std::string> halide::freeVars(const Expr &E) {
  FreeVarVisitor Visitor;
  if (E.defined())
    E.accept(&Visitor);
  return Visitor.Names;
}

namespace {

/// Recursive affine solver. Returns false when the expression is not
/// provably affine in the variable.
bool solveStride(const Expr &E, const std::string &Var, int64_t *Stride) {
  if (!exprUsesVar(E, Var)) {
    *Stride = 0;
    return true;
  }
  if (const Variable *V = E.as<Variable>()) {
    if (V->Name == Var) {
      *Stride = 1;
      return true;
    }
    *Stride = 0;
    return true;
  }
  if (const Add *Op = E.as<Add>()) {
    int64_t SA, SB;
    if (solveStride(Op->A, Var, &SA) && solveStride(Op->B, Var, &SB)) {
      *Stride = SA + SB;
      return true;
    }
    return false;
  }
  if (const Sub *Op = E.as<Sub>()) {
    int64_t SA, SB;
    if (solveStride(Op->A, Var, &SA) && solveStride(Op->B, Var, &SB)) {
      *Stride = SA - SB;
      return true;
    }
    return false;
  }
  if (const Mul *Op = E.as<Mul>()) {
    int64_t C;
    int64_t S;
    if (asConstInt(Op->A, &C) && solveStride(Op->B, Var, &S)) {
      *Stride = C * S;
      return true;
    }
    if (asConstInt(Op->B, &C) && solveStride(Op->A, Var, &S)) {
      *Stride = C * S;
      return true;
    }
    return false;
  }
  if (const Cast *Op = E.as<Cast>()) {
    // Casts between integer types of sufficient width preserve affinity.
    Type From = Op->Value.type(), To = Op->NodeType;
    if ((From.isInt() || From.isUInt()) && (To.isInt() || To.isUInt()) &&
        To.Bits >= From.Bits)
      return solveStride(Op->Value, Var, Stride);
    return false;
  }
  if (const Let *Op = E.as<Let>()) {
    // Conservative: only handle lets whose value does not use the variable.
    if (!exprUsesVar(Op->Value, Var))
      return solveStride(Op->Body, Var, Stride);
    return false;
  }
  return false;
}

} // namespace

bool halide::affineStride(const Expr &E, const std::string &Var,
                          int64_t *Stride) {
  internal_assert(E.defined()) << "affineStride of undef";
  return solveStride(E, Var, Stride);
}
