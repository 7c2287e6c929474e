//===-- transforms/BoundsInference.cpp ------------------------------------------=//

#include "transforms/BoundsInference.h"
#include "analysis/Bounds.h"
#include "analysis/Derivatives.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "ir/IRPrinter.h"
#include "ir/IRVisitor.h"
#include "transforms/ScheduleFunctions.h"
#include "transforms/Simplify.h"
#include "transforms/Substitute.h"

#include <set>

using namespace halide;

namespace {

/// Prefixes \p Lets with the ledger definitions their values
/// (transitively) reference, in creation order, dropping definitions
/// nothing uses.
std::vector<std::pair<std::string, Expr>>
prependLedgerDefs(const ExprLedger &Ledger,
                  std::vector<std::pair<std::string, Expr>> Lets) {
  const auto &Defs = Ledger.defs();
  if (Defs.empty())
    return Lets;
  std::set<std::string> Needed;
  auto CollectFrom = [&](const Expr &E) {
    for (const std::string &V : freeVars(E))
      if (Ledger.contains(V))
        Needed.insert(V);
  };
  for (const auto &[Name, Value] : Lets)
    CollectFrom(Value);
  std::vector<char> Keep(Defs.size(), 0);
  for (size_t I = Defs.size(); I-- > 0;) {
    if (!Needed.count(Defs[I].first))
      continue;
    Keep[I] = 1;
    CollectFrom(Defs[I].second);
  }
  std::vector<std::pair<std::string, Expr>> Result;
  for (size_t I = 0; I < Defs.size(); ++I)
    if (Keep[I])
      Result.push_back(Defs[I]);
  Result.insert(Result.end(), std::make_move_iterator(Lets.begin()),
                std::make_move_iterator(Lets.end()));
  return Result;
}

/// Finds the unique produce / consume ProducerConsumer nodes for a name.
class FindProduceConsume : public IRVisitor {
public:
  explicit FindProduceConsume(const std::string &Name) : Name(Name) {}

  Stmt Produce, Consume;

  void visit(const ProducerConsumer *Op) override {
    if (Op->Name == Name) {
      if (Op->IsProducer) {
        internal_assert(!Produce.defined())
            << "multiple produce nodes for " << Name;
        Produce = Stmt(Op);
      } else {
        internal_assert(!Consume.defined())
            << "multiple consume nodes for " << Name;
        Consume = Stmt(Op);
      }
      // Do not recurse into this function's own nodes looking for more of
      // them, but do recurse for nested content.
    }
    IRVisitor::visit(Op);
  }

  // Expressions hold no statements: skip the ones that grow with the
  // pipeline (bounds preambles, loop bounds, stage values), so checking
  // the whole consume body stays a walk over its statements.
  void visit(const LetStmt *Op) override { Op->Body.accept(this); }
  void visit(const For *Op) override { Op->Body.accept(this); }
  void visit(const Provide *) override {}

private:
  const std::string &Name;
};

/// Collects the For loops and LetStmts on the path from a statement down to
/// the produce node of a name (the "intervening" loops between the storage
/// and compute levels) in a single pass: a DFS snapshots the ancestor
/// chain when it reaches the produce node. Each binding on the chain is
/// then ranged exactly once, raw against the caller's ledger, so
/// everything downstream references shared results by name.
class PathToProduce : public IRVisitor {
public:
  PathToProduce(const std::string &Name, ExprLedger *Ledger)
      : Ledger(Ledger), Name(Name) {}

  /// Loop-name -> interval, plus let bounds, accumulated along the path.
  Scope<Interval> PathScope;
  bool Found = false;

  void walk(const Stmt &S) {
    S.accept(this);
    if (!Found)
      return;
    for (const Stmt &Node : Chain) {
      if (const For *Loop = Node.as<For>()) {
        Interval MinB = boundsOfExprInScope(Loop->MinExpr, PathScope, Ledger);
        Interval ExtB = boundsOfExprInScope(Loop->Extent, PathScope, Ledger);
        Interval LoopRange;
        LoopRange.Min = MinB.Min;
        if (MinB.hasUpperBound() && ExtB.hasUpperBound())
          LoopRange.Max = simplify(MinB.Max + ExtB.Max - 1);
        PathScope.push(Loop->Name, Ledger->shared(LoopRange, Loop->Name));
      } else if (const LetStmt *L = Node.as<LetStmt>()) {
        PathScope.push(
            L->Name,
            Ledger->shared(boundsOfExprInScope(L->Value, PathScope, Ledger),
                           L->Name));
      }
    }
  }

  void visit(const ProducerConsumer *Op) override {
    if (Found)
      return;
    if (Op->Name == Name && Op->IsProducer) {
      Found = true;
      Chain = Stack;
      return;
    }
    IRVisitor::visit(Op);
  }

  void visit(const For *Op) override {
    if (Found)
      return;
    Stack.push_back(Stmt(Op));
    IRVisitor::visit(Op);
    if (!Found)
      Stack.pop_back();
  }

  void visit(const LetStmt *Op) override {
    if (Found)
      return;
    Stack.push_back(Stmt(Op));
    IRVisitor::visit(Op);
    if (!Found)
      Stack.pop_back();
  }

private:
  ExprLedger *Ledger;
  const std::string &Name;
  std::vector<Stmt> Stack, Chain;
};

/// Wraps the produce node for \p Name in the given LetStmts. Expressions
/// hold no statements, and the produce node is unique, so the rebuild
/// skips every expression and stops once the node is wrapped instead of
/// revisiting the stage's whole consume body.
class WrapProduce : public IRMutator {
public:
  WrapProduce(const std::string &Name, std::vector<std::pair<std::string, Expr>> Lets)
      : Name(Name), Lets(std::move(Lets)) {}

  Expr mutate(const Expr &E) override { return E; }
  Stmt mutate(const Stmt &S) override {
    return Wrapped ? S : IRMutator::mutate(S);
  }

protected:
  Stmt visit(const ProducerConsumer *Op) override {
    if (Op->Name != Name || !Op->IsProducer)
      return IRMutator::visit(Op);
    Stmt Result = Stmt(Op);
    for (size_t I = Lets.size(); I-- > 0;)
      Result = LetStmt::make(Lets[I].first, Lets[I].second, Result);
    Wrapped = true;
    return Result;
  }

private:
  const std::string &Name;
  std::vector<std::pair<std::string, Expr>> Lets;
  bool Wrapped = false;
};

class BoundsInferencePass : public IRMutator {
public:
  explicit BoundsInferencePass(const std::map<std::string, Function> &Env)
      : Env(Env) {}

protected:
  Stmt visit(const Realize *Op) override {
    // Consumers first: process realizations nested inside this one so that
    // their bounds lets are in place before we analyze this stage.
    Stmt Body = mutate(Op->Body);

    auto It = Env.find(Op->Name);
    internal_assert(It != Env.end())
        << "realize of unknown function " << Op->Name;
    const Function &F = It->second;
    int Rank = F.dimensions();

    FindProduceConsume Finder(Op->Name);
    Body.accept(&Finder);
    internal_assert(Finder.Produce.defined() && Finder.Consume.defined())
        << "realize of " << Op->Name << " missing produce/consume nodes";

    // Region required by consumers (paper: "the region produced of each
    // stage [must] be at least as large as the region consumed by
    // subsequent stages"). The consume body holds every downstream stage,
    // but the walk ranges only the lets and loops enclosing a call to this
    // one, so each stage's cost follows its own call sites. The walk
    // shares subexpressions through a per-stage ledger: the returned
    // intervals are raw references into it, and the definitions are
    // emitted below as LetStmts above the stage's min/extent chain — one
    // binding per reused bounds subtree, however many stages or
    // dimensions reference it.
    Scope<Interval> Empty;
    ExprLedger Ledger;
    Box Consumer = boxRequired(Finder.Consume.as<ProducerConsumer>()->Body,
                               Op->Name, Empty, &Ledger);
    internal_assert(int(Consumer.size()) == Rank ||
                    Consumer.empty())
        << "consumer box of " << Op->Name << " has wrong rank";

    // Region touched by the function's own update stages (scatters and
    // recursive reads), expressed in terms of the still-symbolic required
    // region; resolved by substituting the consumer box.
    Box Self = boxTouched(Finder.Produce, Op->Name, Empty, &Ledger);

    std::vector<std::pair<std::string, Expr>> Lets;
    std::vector<Expr> MinExprs(Rank), MaxExprs(Rank);
    std::map<std::string, Expr> SelfSubstitution;
    for (int D = 0; D < Rank; ++D) {
      internal_assert(D < int(Consumer.size()) &&
                      Consumer[D].isBounded())
          << "bounds inference: required region of " << Op->Name
          << " dimension " << D
          << " is unbounded; clamp data-dependent coordinates";
      MinExprs[D] = simplify(Consumer[D].Min);
      MaxExprs[D] = simplify(Consumer[D].Max);
      SelfSubstitution[funcMinName(Op->Name, D)] = MinExprs[D];
      SelfSubstitution[funcExtentName(Op->Name, D)] =
          simplify(MaxExprs[D] - MinExprs[D] + 1);
    }
    if (!Self.empty()) {
      internal_assert(int(Self.size()) == Rank);
      // The self region (and any ledger definitions it pulled in) is
      // expressed in terms of the stage's own still-symbolic region
      // variables; resolve both against the consumer region.
      Ledger.substituteInDefs(SelfSubstitution);
      for (int D = 0; D < Rank; ++D) {
        internal_assert(Self[D].isBounded())
            << "bounds inference: self region of " << Op->Name
            << " dimension " << D << " is unbounded";
        Expr SelfMin =
            simplify(substitute(SelfSubstitution, Self[D].Min));
        Expr SelfMax =
            simplify(substitute(SelfSubstitution, Self[D].Max));
        MinExprs[D] = simplify(min(MinExprs[D], SelfMin));
        MaxExprs[D] = simplify(max(MaxExprs[D], SelfMax));
      }
    }
    for (int D = 0; D < Rank; ++D) {
      // Programmer-declared bounds override inference for this dimension.
      for (const BoundConstraint &BC : F.schedule().Bounds) {
        if (BC.Var == F.args()[D]) {
          MinExprs[D] = BC.Min;
          MaxExprs[D] = simplify(BC.Min + BC.Extent - 1);
        }
      }
      Lets.emplace_back(funcMinName(Op->Name, D), MinExprs[D]);
      // Built from the raw endpoints so that shared terms cancel: the
      // extent of a dimension whose min and max ride the same ledger
      // names frequently folds to a constant here.
      Lets.emplace_back(funcExtentName(Op->Name, D),
                        simplify(MaxExprs[D] - MinExprs[D] + 1));
    }

    // The ledger definitions the min/extent chain (transitively) uses
    // become real LetStmts above it, in creation order — later
    // definitions may reference earlier ones, never the reverse.
    Lets = prependLedgerDefs(Ledger, std::move(Lets));

    WrapProduce Wrapper(Op->Name, Lets);
    Body = Wrapper.mutate(Body);

    // Allocation bounds: the compute-site region bounded over the loops
    // between the storage level (here) and the compute level, with the
    // extent rounded up to the traversed extent of split dimensions. The
    // path walk and the per-dimension ranging share one ledger, so each
    // preamble binding is bounded once; min and max then cancel
    // structurally in the extent, and only the final expressions are
    // materialized (the Realize sits outside the preamble lets and must
    // stay self-contained).
    ExprLedger PathLedger;
    PathToProduce Path(Op->Name, &PathLedger);
    Path.walk(Body);
    internal_assert(Path.Found) << "lost produce node for " << Op->Name;
    Region RealizeBounds;
    for (int D = 0; D < Rank; ++D) {
      Interval MinB =
          boundsOfExprInScope(MinExprs[D], Path.PathScope, &PathLedger);
      Interval MaxB =
          boundsOfExprInScope(MaxExprs[D], Path.PathScope, &PathLedger);
      internal_assert(MinB.hasLowerBound() && MaxB.hasUpperBound())
          << "allocation bounds of " << Op->Name << " dimension " << D
          << " are unbounded over the loops between store and compute "
             "levels";
      Expr AllocMin = simplify(MinB.Min);
      Expr RequiredExtent = simplify(MaxB.Max - MinB.Min + 1);
      Expr AllocExtent = simplify(writtenExtent(F, D, RequiredExtent));
      RealizeBounds.emplace_back(simplify(PathLedger.materialize(AllocMin)),
                                 simplify(PathLedger.materialize(AllocExtent)));
    }
    return Realize::make(Op->Name, Op->ElemType, std::move(RealizeBounds),
                         Body);
  }

private:
  const std::map<std::string, Function> &Env;
};

} // namespace

Stmt halide::boundsInference(const Stmt &S,
                             const std::map<std::string, Function> &Env) {
  BoundsInferencePass Pass(Env);
  return Pass.mutate(S);
}
