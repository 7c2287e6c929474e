//===-- transforms/SlidingWindow.cpp --------------------------------------------=//

#include "transforms/SlidingWindow.h"
#include "analysis/Derivatives.h"
#include "analysis/Monotonic.h"
#include "ir/IREquality.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "transforms/ScheduleFunctions.h"
#include "transforms/Simplify.h"
#include "transforms/Substitute.h"

using namespace halide;

namespace {

/// Rewrites the bounds lets ("f.min.d" / "f.extent.d") above the produce
/// node of one function to exclude the region computed by previous
/// iterations of a given serial loop. A dimension whose written extent a
/// split rounds up does not slide: the stage would write past the slid
/// region, which its producers' regions and its storage were not sized
/// for.
class SlideAlongLoop : public IRMutator {
public:
  SlideAlongLoop(const Function &F, const std::string &LoopVar, Expr LoopMin)
      : F(F), FuncName(F.name()), Rank(F.dimensions()), LoopVar(LoopVar),
        LoopMin(LoopMin) {}

  bool Applied = false;

  // The chain this rewrites wraps the unique produce node of FuncName, and
  // expressions hold no statements: skip them, and stop at that node
  // instead of revisiting the stage's consumers.
  Expr mutate(const Expr &E) override { return E; }
  Stmt mutate(const Stmt &S) override {
    return Done ? S : IRMutator::mutate(S);
  }

protected:
  Stmt visit(const ProducerConsumer *Op) override {
    if (Op->Name != FuncName || !Op->IsProducer)
      return IRMutator::visit(Op);
    Done = true;
    return Op;
  }

  Stmt visit(const LetStmt *Op) override {
    // We are looking for the chain of lets directly wrapping the produce
    // node. Collect the whole chain, then decide.
    if (!startsWith(Op->Name, FuncName + ".min.") &&
        !startsWith(Op->Name, FuncName + ".extent.")) {
      // Not part of the chain. Record the binding — the chain names its
      // consumers' region lets, so its dependence on the loop variable
      // may only be visible through them.
      Monotonic M = isMonotonic(Op->Value, LoopVar, LetMono);
      ScopedBinding<Monotonic> BindMono(LetMono, Op->Name, M);
      ActiveLets.push_back({Op->Name, Op->Value, M != Monotonic::Constant});
      Stmt Body = mutate(Op->Body);
      ActiveLets.pop_back();
      if (Body.sameAs(Op->Body))
        return Op;
      return LetStmt::make(Op->Name, Op->Value, Body);
    }

    // Gather the full let chain and the statement under it.
    std::vector<std::pair<std::string, Expr>> Chain;
    Stmt Inner(Op);
    while (const LetStmt *L = Inner.as<LetStmt>()) {
      if (!startsWith(L->Name, FuncName + ".min.") &&
          !startsWith(L->Name, FuncName + ".extent."))
        break;
      Chain.emplace_back(L->Name, L->Value);
      Inner = L->Body;
    }
    const ProducerConsumer *PC = Inner.as<ProducerConsumer>();
    if (!PC || PC->Name != FuncName || !PC->IsProducer)
      return IRMutator::visit(Op);

    // Reconstruct min/extent expressions per dimension.
    std::vector<Expr> Mins(Rank), Extents(Rank);
    for (const auto &[Name, Value] : Chain) {
      for (int D = 0; D < Rank; ++D) {
        if (Name == funcMinName(FuncName, D))
          Mins[D] = Value;
        if (Name == funcExtentName(FuncName, D))
          Extents[D] = Value;
      }
    }
    for (int D = 0; D < Rank; ++D)
      if (!Mins[D].defined() || !Extents[D].defined())
        return IRMutator::visit(Op);

    // Find the single dimension that marches with the loop; all others must
    // be loop-invariant for the rewrite to be sound. The analysis sees
    // through the enclosing region lets via LetMono.
    int SlideDim = -1;
    for (int D = 0; D < Rank; ++D) {
      Monotonic MinMono = isMonotonic(Mins[D], LoopVar, LetMono);
      Monotonic MaxMono =
          isMonotonic(simplify(Mins[D] + Extents[D] - 1), LoopVar, LetMono);
      if (MinMono == Monotonic::Constant && MaxMono == Monotonic::Constant)
        continue;
      if (MinMono == Monotonic::Increasing &&
          MaxMono == Monotonic::Increasing && SlideDim < 0 &&
          !splitRoundsUp(D)) {
        SlideDim = D;
        continue;
      }
      return IRMutator::visit(Op); // some dimension moves unpredictably
    }
    if (SlideDim < 0)
      return IRMutator::visit(Op);

    // New minimum: skip everything computed by the previous iteration. The
    // first iteration computes the full region (select on LoopVar==LoopMin).
    // The previous iteration's maximum shifts the loop variable back by
    // one, which must reach loop-variable dependence hidden inside the
    // enclosing region lets — expand exactly those before substituting.
    Expr OldMin = Mins[SlideDim];
    Expr OldMax = simplify(OldMin + Extents[SlideDim] - 1);
    Expr PrevMax = substitute(
        LoopVar, Variable::make(Int(32), LoopVar) - 1,
        expandLoopDependentLets(OldMax));
    Expr LoopVarExpr = Variable::make(Int(32), LoopVar);
    Expr NewMin = select(LoopVarExpr == LoopMin, OldMin,
                         max(OldMin, PrevMax + 1));
    Expr NewExtent = simplify(OldMax - NewMin + 1);

    std::vector<std::pair<std::string, Expr>> NewChain = Chain;
    for (auto &[Name, Value] : NewChain) {
      if (Name == funcMinName(FuncName, SlideDim))
        Value = NewMin;
      if (Name == funcExtentName(FuncName, SlideDim))
        Value = NewExtent;
    }
    Applied = Done = true;
    Stmt Result = Inner;
    for (size_t I = NewChain.size(); I-- > 0;)
      Result = LetStmt::make(NewChain[I].first, NewChain[I].second, Result);
    return Result;
  }

private:
  bool splitRoundsUp(int D) const {
    Expr Extent = Variable::make(Int(32), funcExtentName(FuncName, D));
    return !equal(simplify(writtenExtent(F, D, Extent)), Extent);
  }

  /// An enclosing LetStmt seen on the way down to the chain.
  struct ActiveLet {
    std::string Name;
    Expr Value;
    bool LoopDependent;
  };

  /// Substitutes away every active let whose value depends on the loop
  /// variable (innermost first, so values referencing other such lets
  /// resolve transitively). Loop-invariant lets stay by name: they remain
  /// in scope at the rewritten chain and need no copy.
  Expr expandLoopDependentLets(Expr E) const {
    for (size_t I = ActiveLets.size(); I-- > 0;) {
      const ActiveLet &L = ActiveLets[I];
      if (L.LoopDependent && exprUsesVar(E, L.Name))
        E = substitute(L.Name, L.Value, E);
    }
    return E;
  }

  const Function &F;
  std::string FuncName;
  int Rank;
  std::string LoopVar;
  Expr LoopMin;
  Scope<Monotonic> LetMono;
  std::vector<ActiveLet> ActiveLets;
  bool Done = false;
};

/// Walks the tree looking for Realize nodes; within each, finds serial
/// loops between the Realize and the produce node and attempts to slide
/// along the innermost such loop.
class SlidingWindowPass : public IRMutator {
public:
  explicit SlidingWindowPass(const std::map<std::string, Function> &Env)
      : Env(Env) {}

protected:
  Stmt visit(const Realize *Op) override {
    Stmt Body = mutate(Op->Body); // inner realizations first
    auto It = Env.find(Op->Name);
    internal_assert(It != Env.end()) << "realize of unknown " << Op->Name;

    // Sliding is only sound along the innermost loop between the Realize
    // and the produce node, and only when it is serial: a single unique
    // first iteration must exist for every point (paper section 3.2).
    const std::vector<Stmt> Path = pathToProduce(Body, Op->Name).value();
    const For *Loop = nullptr;
    for (const Stmt &S : Path)
      if (const For *F = S.as<For>())
        Loop = F;
    if (Loop && Loop->Kind == ForType::Serial) {
      SlideAlongLoop Slider(It->second, Loop->Name, Loop->MinExpr);
      Stmt NewBody = Slider.mutate(Body);
      if (Slider.Applied)
        Body = NewBody;
    }
    if (Body.sameAs(Op->Body))
      return Op;
    return Realize::make(Op->Name, Op->ElemType, Op->Bounds, Body);
  }

private:
  const std::map<std::string, Function> &Env;
};

} // namespace

Stmt halide::slidingWindow(const Stmt &S,
                           const std::map<std::string, Function> &Env) {
  SlidingWindowPass Pass(Env);
  return Pass.mutate(S);
}
