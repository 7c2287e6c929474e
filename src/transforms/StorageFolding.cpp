//===-- transforms/StorageFolding.cpp -------------------------------------------=//

#include "transforms/StorageFolding.h"
#include "analysis/Bounds.h"
#include "analysis/Derivatives.h"
#include "analysis/Monotonic.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "transforms/ScheduleFunctions.h"
#include "transforms/Simplify.h"
#include "transforms/Substitute.h"

#include <algorithm>

using namespace halide;

namespace {

int64_t nextPowerOfTwo(int64_t V) {
  int64_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

/// Proves a footprint span constant. The raw span cancels when min and
/// max reference the same ledger names, but a loop range interned as two
/// distinct endpoint names (hint.min/hint.max) hides the cancellation —
/// expand definitions latest-first (so chains resolve transitively) and
/// retry, under a node budget so a pathological chain cannot reintroduce
/// the exponential blowup this proof used to ride on.
bool proveConstSpan(const Expr &Span, const ExprLedger &Ledger,
                    int64_t *Out) {
  Expr S = simplify(Span);
  if (proveConstInt(S, Out))
    return true;
  constexpr size_t ExpandBudget = size_t(1) << 14;
  const auto &Defs = Ledger.defs();
  for (size_t I = Defs.size(); I-- > 0;) {
    if (!exprUsesVar(S, Defs[I].first))
      continue;
    if (irNodeCountExceeds(S, ExpandBudget))
      return false;
    S = simplify(substitute(Defs[I].first, Defs[I].second, S));
    if (proveConstInt(S, Out))
      return true;
  }
  return false;
}

/// Rewrites dimension \p Dim of every access to \p Name modulo \p Factor.
class FoldAccesses : public IRMutator {
public:
  FoldAccesses(const std::string &Name, int Dim, int64_t Factor)
      : Name(Name), Dim(Dim), Factor(Factor) {}

protected:
  Expr visit(const Call *Op) override {
    Expr Mutated = IRMutator::visit(Op);
    const Call *C = Mutated.as<Call>();
    if (!C || C->Name != Name || C->CallKind != CallType::Halide)
      return Mutated;
    std::vector<Expr> Args = C->Args;
    Args[Dim] = Args[Dim] % makeConst(Int(32), Factor);
    return Call::make(C->NodeType, C->Name, std::move(Args), C->CallKind,
                      C->Callee);
  }

  Stmt visit(const Provide *Op) override {
    Stmt Mutated = IRMutator::visit(Op);
    const Provide *P = Mutated.as<Provide>();
    if (!P || P->Name != Name)
      return Mutated;
    std::vector<Expr> Args = P->Args;
    Args[Dim] = Args[Dim] % makeConst(Int(32), Factor);
    return Provide::make(P->Name, P->Value, std::move(Args));
  }

private:
  const std::string &Name;
  int Dim;
  int64_t Factor;
};

class StorageFoldingPass : public IRMutator {
public:
  explicit StorageFoldingPass(const std::map<std::string, Function> &Env)
      : Env(Env) {}

protected:
  Stmt visit(const LetStmt *Op) override {
    ScopedBinding<Expr> Bind(LetValues, Op->Name, Op->Value);
    return IRMutator::visit(Op);
  }

  Stmt visit(const Realize *Op) override {
    Stmt Body = mutate(Op->Body);

    // Fold along the innermost loop between the Realize and the produce
    // node.
    const std::vector<Stmt> Path = pathToProduce(Body, Op->Name).value();
    const For *Loop = nullptr;
    for (const Stmt &S : Path)
      if (const For *F = S.as<For>())
        Loop = F;
    if (!Loop || Loop->Kind != ForType::Serial)
      return rebuild(Op, Body);

    // The per-iteration footprint of this function within the loop body.
    // Keeping the box raw against a ledger lets the span below cancel
    // structurally (max and min referencing the same shared name subtract
    // away) where a materialized copy per endpoint could not.
    Scope<Interval> Empty;
    ExprLedger Ledger;
    Box Reads = boxRequired(Loop->Body, Op->Name, Empty, &Ledger);
    Box Writes = boxProvided(Loop->Body, Op->Name, Empty, &Ledger);
    if (Reads.empty() || Writes.empty() ||
        Reads.size() != Writes.size())
      return rebuild(Op, Body);

    // Loop-variable dependence of each shared definition, in creation
    // order (later definitions may reference earlier ones).
    Scope<Monotonic> DefMono;
    for (const auto &[DefName, Def] : Ledger.defs())
      DefMono.push(DefName, isMonotonic(Def, Loop->Name, DefMono));

    for (int D = 0; D < int(Reads.size()); ++D) {
      if (!Reads[D].isBounded() || !Writes[D].isBounded())
        continue;
      // The footprint must march monotonically with the loop...
      Monotonic ReadMin = isMonotonic(Reads[D].Min, Loop->Name, DefMono);
      Monotonic WriteMin = isMonotonic(Writes[D].Min, Loop->Name, DefMono);
      if (ReadMin != Monotonic::Increasing ||
          WriteMin != Monotonic::Increasing)
        continue;
      // ...and have a constant-boundable extent.
      int64_t ReadSpan, WriteSpan;
      if (!proveConstSpan(Reads[D].Max - Reads[D].Min + 1, Ledger,
                          &ReadSpan) ||
          !proveConstSpan(Writes[D].Max - Writes[D].Min + 1, Ledger,
                          &WriteSpan))
        continue;
      int64_t Factor =
          nextPowerOfTwo(std::max({ReadSpan, WriteSpan, int64_t(1)}));
      // Only fold if it actually shrinks a provably larger allocation. The
      // Realize names its extent: read it through its let.
      Expr Extent = Op->Bounds[D].Extent;
      if (const Variable *V = Extent.as<Variable>();
          V && LetValues.contains(V->Name))
        Extent = LetValues.get(V->Name);
      int64_t AllocExtent;
      if (proveConstInt(Extent, &AllocExtent) && AllocExtent <= Factor)
        continue;

      FoldAccesses Folder(Op->Name, D, Factor);
      Stmt Folded = Folder.mutate(Body);
      Region NewBounds = Op->Bounds;
      NewBounds[D] = Range(0, makeConst(Int(32), Factor));
      return Realize::make(Op->Name, Op->ElemType, std::move(NewBounds),
                           Folded);
    }
    return rebuild(Op, Body);
  }

private:
  static Stmt rebuild(const Realize *Op, const Stmt &Body) {
    if (Body.sameAs(Op->Body))
      return Op;
    return Realize::make(Op->Name, Op->ElemType, Op->Bounds, Body);
  }

  const std::map<std::string, Function> &Env;
  /// The values of the enclosing LetStmts.
  Scope<Expr> LetValues;
};

} // namespace

Stmt halide::storageFolding(const Stmt &S,
                            const std::map<std::string, Function> &Env) {
  StorageFoldingPass Pass(Env);
  return Pass.mutate(S);
}
