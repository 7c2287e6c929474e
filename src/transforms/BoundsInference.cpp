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
#include "transforms/StorageFlattening.h"
#include "transforms/Substitute.h"

#include <set>

using namespace halide;

namespace {

/// Finds the unique produce / consume ProducerConsumer nodes for a name.
class FindProduceConsume : public IRVisitor {
public:
  explicit FindProduceConsume(const std::string &Name) : Name(Name) {}

  Stmt Produce, Consume;
  /// Whether the produce node lies inside a loop of the walked statement.
  bool ProduceInLoop = false;

  void visit(const ProducerConsumer *Op) override {
    if (Op->Name == Name) {
      if (Op->IsProducer) {
        internal_assert(!Produce.defined())
            << "multiple produce nodes for " << Name;
        Produce = Stmt(Op);
        ProduceInLoop = Loops > 0;
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
  void visit(const For *Op) override {
    ++Loops;
    Op->Body.accept(this);
    --Loops;
  }
  void visit(const Provide *) override {}

private:
  const std::string &Name;
  int Loops = 0;
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

  /// The region lets of every stage computed outside all loops, and the
  /// ledger definitions they use, consumers first: bound once above the
  /// whole statement, so each root stage's region names its consumers'
  /// region lets instead of ranging them again.
  std::vector<std::pair<std::string, Expr>> RootLets;

protected:
  Stmt visit(const For *Op) override {
    ++Loops;
    Stmt Result = IRMutator::visit(Op);
    --Loops;
    return Result;
  }

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
    std::vector<Expr> Values;
    for (const auto &[Name, Value] : Lets)
      Values.push_back(Value);
    std::vector<std::pair<std::string, Expr>> Used = Ledger.defsUsedBy(Values);
    Lets.insert(Lets.begin(), Used.begin(), Used.end());

    // A stage computed outside every loop is stored where it is computed,
    // so its allocation is its region.
    if (Loops == 0 && !Finder.ProduceInLoop) {
      RootLets.insert(RootLets.end(), Lets.begin(), Lets.end());
      Region RealizeBounds;
      for (int D = 0; D < Rank; ++D) {
        Expr Extent = Variable::make(Int(32), funcExtentName(Op->Name, D));
        RealizeBounds.emplace_back(
            Variable::make(Int(32), funcMinName(Op->Name, D)),
            simplify(writtenExtent(F, D, Extent)));
      }
      return Realize::make(Op->Name, Op->ElemType, std::move(RealizeBounds),
                           Body);
    }

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
  int Loops = 0;
};

} // namespace

Stmt halide::boundsInference(const Stmt &S,
                             const std::map<std::string, Function> &Env,
                             const std::set<std::string> &Images) {
  BoundsInferencePass Pass(Env);
  Stmt Body = Pass.mutate(S);

  // Every input image must cover the region read from it. An image is the
  // outermost consumer: its box comes from the walk a root stage's consumer
  // box uses, beneath the root region lets, which the checks name. Taking
  // it before sliding window and storage folding is sound because neither
  // ever widens a read. A dimension read over an unbounded region stays
  // unchecked, and lowering's simplification drops a condition that folds
  // to true (a reduction over the image's own domain).
  ExprLedger Ledger;
  std::vector<Expr> Conditions;
  std::vector<Stmt> Checks;
  for (const std::string &Name : Images) {
    const Box Read = boxRequired(Body, Name, Scope<Interval>(), &Ledger);
    for (int D = 0; D < int(Read.size()); ++D) {
      if (!Read[D].isBounded())
        continue;
      Expr Min = Variable::make(Int(32), bufferMinName(Name, D), true);
      Expr Extent = Variable::make(Int(32), bufferExtentName(Name, D), true);
      Expr Ok = Min <= Read[D].Min && Read[D].Max < Min + Extent;
      Conditions.push_back(Ok);
      Checks.push_back(AssertStmt::make(
          Ok, "input image " + Name + " does not cover the region the "
              "pipeline reads in dimension " + std::to_string(D)));
    }
  }
  if (!Checks.empty())
    Body = Block::make(Block::make(Checks), Body);
  std::vector<std::pair<std::string, Expr>> Lets = std::move(Pass.RootLets);
  for (auto &Def : Ledger.defsUsedBy(Conditions))
    Lets.push_back(std::move(Def));
  for (size_t I = Lets.size(); I-- > 0;)
    Body = LetStmt::make(Lets[I].first, Lets[I].second, Body);
  return Body;
}
