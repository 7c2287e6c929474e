//===-- transforms/StorageFolding.cpp -------------------------------------------=//

#include "transforms/StorageFolding.h"
#include "analysis/Bounds.h"
#include "analysis/Monotonic.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "transforms/ScheduleFunctions.h"
#include "transforms/Simplify.h"

#include <algorithm>

using namespace halide;

namespace {

int64_t nextPowerOfTwo(int64_t V) {
  int64_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
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
    Scope<Interval> Empty;
    Box Reads = boxRequired(Loop->Body, Op->Name, Empty);
    Box Writes = boxProvided(Loop->Body, Op->Name, Empty);
    if (Reads.empty() || Writes.empty() ||
        Reads.size() != Writes.size())
      return rebuild(Op, Body);

    for (int D = 0; D < int(Reads.size()); ++D) {
      if (!Reads[D].isBounded() || !Writes[D].isBounded())
        continue;
      // The footprint must march monotonically with the loop...
      Monotonic ReadMin = isMonotonic(Reads[D].Min, Loop->Name);
      Monotonic WriteMin = isMonotonic(Writes[D].Min, Loop->Name);
      if (ReadMin != Monotonic::Increasing ||
          WriteMin != Monotonic::Increasing)
        continue;
      // ...and have a constant-boundable extent.
      int64_t ReadSpan, WriteSpan;
      if (!proveConstInt(simplify(Reads[D].Max - Reads[D].Min + 1),
                         &ReadSpan) ||
          !proveConstInt(simplify(Writes[D].Max - Writes[D].Min + 1),
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
