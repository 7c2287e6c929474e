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

#include <algorithm>
#include <set>

using namespace halide;

namespace {

/// \p Body inside \p Lets, the first outermost.
Stmt wrapInLets(const std::vector<std::pair<std::string, Expr>> &Lets,
                Stmt Body) {
  for (size_t I = Lets.size(); I-- > 0;)
    Body = LetStmt::make(Lets[I].first, Lets[I].second, Body);
  return Body;
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
    Wrapped = true;
    return wrapInLets(Lets, Op);
  }

private:
  const std::string &Name;
  std::vector<std::pair<std::string, Expr>> Lets;
  bool Wrapped = false;
};

/// Names of the region a stage stored above its compute level allocates.
std::string storedMinName(const std::string &Func, int D) {
  return Func + ".stored_min." + std::to_string(D);
}
std::string storedExtentName(const std::string &Func, int D) {
  return Func + ".stored_extent." + std::to_string(D);
}

class BoundsInferencePass : public IRMutator {
public:
  explicit BoundsInferencePass(const std::map<std::string, Function> &Env)
      : Levels(1), Env(Env) {}

  /// What the stages stored at one level (the top of the statement, or one
  /// loop's body) bind there, consumers first.
  struct Level {
    /// Their stored regions' lets.
    std::vector<std::pair<std::string, Expr>> Lets;
    /// Their stored regions by coordinate name ("f.x"): the interval that
    /// a walk at this level ranges the coordinate over.
    Scope<StoredCoordinate> Stored;
  };
  /// The top of the statement, then one level per enclosing loop.
  std::vector<Level> Levels;

protected:
  Stmt visit(const For *Op) override {
    Levels.emplace_back();
    Stmt Body = mutate(Op->Body);
    std::vector<std::pair<std::string, Expr>> Lets =
        std::move(Levels.back().Lets);
    Levels.pop_back();
    if (Body.sameAs(Op->Body) && Lets.empty())
      return Op;
    return For::make(Op->Name, Op->MinExpr, Op->Extent, Op->Kind,
                     wrapInLets(Lets, Body));
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
    const std::vector<Stmt> Path = pathToProduce(Body, Op->Name).value();
    bool StoredAtCompute = std::none_of(
        Path.begin(), Path.end(),
        [](const Stmt &S) { return S.as<For>() != nullptr; });

    // Region required by consumers (paper: "the region produced of each
    // stage [must] be at least as large as the region consumed by
    // subsequent stages"). The consume body holds every downstream stage,
    // but the walk ranges only the lets and loops enclosing a call to this
    // one, so each stage's cost follows its own call sites. A stage stored
    // where it is computed is read at that level, so the walk ranges the
    // stages stored there over their stored regions, whose lets lie
    // outside the walk: the region names them.
    Scope<Interval> Empty;
    Box Consumer = boxRequired(Finder.Consume.as<ProducerConsumer>()->Body,
                               Op->Name, Empty,
                               StoredAtCompute ? &Levels.back().Stored
                                               : nullptr);
    internal_assert(int(Consumer.size()) == Rank ||
                    Consumer.empty())
        << "consumer box of " << Op->Name << " has wrong rank";

    // Region touched by the function's own update stages (scatters and
    // recursive reads), expressed in terms of the still-symbolic required
    // region; resolved by substituting the consumer box.
    Box Self = boxTouched(Finder.Produce, Op->Name, Empty);

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
      // The self region is expressed in terms of the stage's own
      // still-symbolic region variables; resolve it against the consumer
      // region.
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
      Lets.emplace_back(funcExtentName(Op->Name, D),
                        simplify(MaxExprs[D] - MinExprs[D] + 1));
    }

    // Where the stage's coordinate ranges at each compute site: its region,
    // split dimensions rounded up to the written extent.
    Box Computed(Rank);
    for (int D = 0; D < Rank; ++D) {
      Expr Min = Variable::make(Int(32), funcMinName(Op->Name, D));
      Expr Extent = Variable::make(Int(32), funcExtentName(Op->Name, D));
      Computed[D] =
          Interval(Min, simplify(Min + writtenExtent(F, D, Extent) - 1));
    }
    Level &Here = Levels.back();
    if (StoredAtCompute) {
      // Stored where it is computed: the region lets, bound at this level,
      // are the stored region.
      Here.Lets.insert(Here.Lets.end(), Lets.begin(), Lets.end());
    } else {
      // Stored above its compute level: the region lets stay at the
      // produce node, where sliding window rewrites them, and the stored
      // region is their union over the loops between the two levels.
      Body = WrapProduce(Op->Name, Lets).mutate(Body);
      Box Union = boxOverPath(pathToProduce(Body, Op->Name).value(), Computed,
                              Here.Stored);
      std::vector<std::pair<std::string, Expr>> StoredLets;
      for (int D = 0; D < Rank; ++D) {
        internal_assert(Union[D].isBounded())
            << "allocation bounds of " << Op->Name << " dimension " << D
            << " are unbounded over the loops between store and compute "
               "levels";
        Expr Min = Variable::make(Int(32), storedMinName(Op->Name, D));
        Expr Extent = Variable::make(Int(32), storedExtentName(Op->Name, D));
        StoredLets.emplace_back(storedMinName(Op->Name, D),
                                simplify(Union[D].Min));
        StoredLets.emplace_back(storedExtentName(Op->Name, D),
                                simplify(Union[D].Max - Union[D].Min + 1));
        Computed[D] = Interval(Min, Min + Extent - 1);
      }
      Here.Lets.insert(Here.Lets.end(), StoredLets.begin(), StoredLets.end());
    }
    // The Realize and every later walk at this level name the stored region.
    Region RealizeBounds;
    const std::vector<Split> &Splits = F.schedule().Splits;
    for (int D = 0; D < Rank; ++D) {
      bool IsLet = std::any_of(
          Splits.begin(), Splits.end(),
          [&](const Split &S) { return S.Old == F.args()[D]; });
      Here.Stored.push(loopVarName(Op->Name, F.args()[D]),
                       {Computed[D], IsLet});
      RealizeBounds.emplace_back(
          Computed[D].Min, simplify(Computed[D].Max - Computed[D].Min + 1));
    }
    return Realize::make(Op->Name, Op->ElemType, std::move(RealizeBounds),
                         Body);
  }

private:
  const std::map<std::string, Function> &Env;
};

} // namespace

Stmt halide::boundsInference(const Stmt &S,
                             const std::map<std::string, Function> &Env,
                             const std::set<std::string> &Images) {
  BoundsInferencePass Pass(Env);
  Stmt Body = Pass.mutate(S);
  BoundsInferencePass::Level &Root = Pass.Levels.front();

  // Every input image must cover the region read from it. An image is the
  // outermost consumer: its box comes from the walk a root stage's consumer
  // box uses, beneath the root region lets, which the checks name. Taking
  // it before sliding window and storage folding is sound because neither
  // ever widens a read. A dimension read over an unbounded region stays
  // unchecked, and lowering's simplification drops a condition that folds
  // to true (a reduction over the image's own domain).
  std::vector<Stmt> Checks;
  for (const std::string &Name : Images) {
    const Box Read = boxRequired(Body, Name, Scope<Interval>(), &Root.Stored);
    for (int D = 0; D < int(Read.size()); ++D) {
      if (!Read[D].isBounded())
        continue;
      Expr Min = Variable::make(Int(32), bufferMinName(Name, D), true);
      Expr Extent = Variable::make(Int(32), bufferExtentName(Name, D), true);
      Expr Ok = Min <= Read[D].Min && Read[D].Max < Min + Extent;
      Checks.push_back(AssertStmt::make(
          Ok, "input image " + Name + " does not cover the region the "
              "pipeline reads in dimension " + std::to_string(D)));
    }
  }
  if (!Checks.empty())
    Body = Block::make(Block::make(Checks), Body);
  return wrapInLets(Root.Lets, Body);
}
