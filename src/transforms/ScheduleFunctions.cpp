//===-- transforms/ScheduleFunctions.cpp ---------------------------------------=//

#include "transforms/ScheduleFunctions.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "transforms/Substitute.h"

#include <algorithm>

using namespace halide;

namespace {

std::string loopMinName(const std::string &QualifiedVar) {
  return QualifiedVar + ".loop_min";
}
std::string loopExtentName(const std::string &QualifiedVar) {
  return QualifiedVar + ".loop_extent";
}

Expr loopMinVar(const std::string &QualifiedVar) {
  return Variable::make(Int(32), loopMinName(QualifiedVar));
}
Expr loopExtentVar(const std::string &QualifiedVar) {
  return Variable::make(Int(32), loopExtentName(QualifiedVar));
}

/// A (name, value) pair for a pending LetStmt.
struct PendingLet {
  std::string Name;
  Expr Value;
};

/// Builds the loop nest for the pure definition of \p F.
Stmt buildPureNest(const Function &F) {
  const Schedule &S = F.schedule();
  const std::string &Name = F.name();

  // The innermost statement: writing one point of the function. Pure
  // variables are referenced under their loop-qualified names.
  std::map<std::string, Expr> VarMap;
  for (const std::string &Arg : F.args())
    VarMap[Arg] = Variable::make(Int(32), loopVarName(Name, Arg));
  Expr Value = substitute(VarMap, F.value());
  std::vector<Expr> ProvideArgs;
  for (const std::string &Arg : F.args())
    ProvideArgs.push_back(VarMap[Arg]);
  Stmt Nest = Provide::make(Name, Value, ProvideArgs);

  // Split index reconstruction, innermost: each split defines the old index
  // from its outer and inner components. Wrapping in split order places
  // later splits' definitions outside earlier ones, so a re-split outer
  // variable is defined before it is used. The original dimension's minimum
  // is captured under a dedicated ".base" name outside the split's own
  // loop-bound lets, because the outer or inner variable may reuse the old
  // name (e.g. split(y, ty, y, 8)), shadowing its loop_min.
  for (size_t I = 0; I < S.Splits.size(); ++I) {
    const Split &Sp = S.Splits[I];
    std::string Old = loopVarName(Name, Sp.Old);
    std::string Outer = loopVarName(Name, Sp.Outer);
    std::string Inner = loopVarName(Name, Sp.Inner);
    std::string Base = Old + ".base" + std::to_string(I);
    Expr Index = Variable::make(Int(32), Outer) * Sp.Factor +
                 Variable::make(Int(32), Inner) +
                 Variable::make(Int(32), Base);
    Nest = LetStmt::make(Old, Index, Nest);
  }

  // The loops themselves, innermost last in Dims.
  for (size_t I = S.Dims.size(); I-- > 0;) {
    const Dim &D = S.Dims[I];
    std::string QV = loopVarName(Name, D.Var);
    Nest = For::make(QV, loopMinVar(QV), loopExtentVar(QV), D.Kind, Nest);
  }

  // Bounds definitions: root dimensions range over the function's required
  // region; splits derive outer/inner ranges, rounding the traversed domain
  // up to a multiple of the factor (paper section 4.1).
  std::vector<PendingLet> Lets;
  for (size_t D = 0; D < F.args().size(); ++D) {
    std::string QV = loopVarName(Name, F.args()[D]);
    Lets.push_back({loopMinName(QV),
                    Variable::make(Int(32), funcMinName(Name, int(D)))});
    Lets.push_back({loopExtentName(QV),
                    Variable::make(Int(32), funcExtentName(Name, int(D)))});
  }
  for (size_t I = 0; I < S.Splits.size(); ++I) {
    const Split &Sp = S.Splits[I];
    std::string Old = loopVarName(Name, Sp.Old);
    std::string Outer = loopVarName(Name, Sp.Outer);
    std::string Inner = loopVarName(Name, Sp.Inner);
    // Capture the old dimension's bounds before the outer/inner lets can
    // shadow them (outer or inner may reuse the old name).
    Lets.push_back({Old + ".base" + std::to_string(I), loopMinVar(Old)});
    Expr OldExtent = loopExtentVar(Old);
    Lets.push_back({Old + ".oldextent" + std::to_string(I), OldExtent});
    Expr OldExtentVar = Variable::make(
        Int(32), Old + ".oldextent" + std::to_string(I));
    Lets.push_back({loopMinName(Outer), 0});
    Lets.push_back({loopExtentName(Outer),
                    (OldExtentVar + Sp.Factor - 1) / Sp.Factor});
    Lets.push_back({loopMinName(Inner), 0});
    Lets.push_back({loopExtentName(Inner), Sp.Factor});
  }
  for (size_t I = Lets.size(); I-- > 0;)
    Nest = LetStmt::make(Lets[I].Name, Lets[I].Value, Nest);
  return Nest;
}

/// Builds the loop nest for update stage \p Idx of \p F.
Stmt buildUpdateNest(const Function &F, size_t Idx) {
  const UpdateDefinition &U = F.updates()[Idx];
  const std::string &Name = F.name();
  std::string StagePrefix = Name + ".s" + std::to_string(Idx + 1) + ".";

  // Update loops are qualified with the stage prefix to keep them distinct
  // from the pure stage's loops.
  std::map<std::string, Expr> VarMap;
  for (const Dim &D : U.Dims)
    VarMap[D.Var] = Variable::make(Int(32), StagePrefix + D.Var);

  Expr Value = substitute(VarMap, U.Value);
  std::vector<Expr> ProvideArgs;
  for (const Expr &Arg : U.Args)
    ProvideArgs.push_back(substitute(VarMap, Arg));
  Stmt Nest = Provide::make(Name, Value, ProvideArgs);

  for (size_t I = U.Dims.size(); I-- > 0;) {
    const Dim &D = U.Dims[I];
    std::string QV = StagePrefix + D.Var;
    Nest = For::make(QV, loopMinVar(QV), loopExtentVar(QV), D.Kind, Nest);
  }

  // Bounds: pure dimensions of the update cover the function's required
  // region; reduction dimensions use the RDom's explicit bounds (paper
  // section 2).
  std::vector<PendingLet> Lets;
  for (const Dim &D : U.Dims) {
    std::string QV = StagePrefix + D.Var;
    if (D.IsRVar) {
      const ReductionVariable *RV = nullptr;
      for (const ReductionVariable &Candidate : U.RVars)
        if (Candidate.Name == D.Var)
          RV = &Candidate;
      internal_assert(RV) << "update dim " << D.Var << " not in RDom";
      Lets.push_back({loopMinName(QV), RV->Min});
      Lets.push_back({loopExtentName(QV), RV->Extent});
      continue;
    }
    // Which pure argument is this?
    auto It = std::find(F.args().begin(), F.args().end(), D.Var);
    internal_assert(It != F.args().end())
        << "update dim " << D.Var << " is not a pure argument";
    int ArgIdx = int(It - F.args().begin());
    Lets.push_back({loopMinName(QV),
                    Variable::make(Int(32), funcMinName(Name, ArgIdx))});
    Lets.push_back({loopExtentName(QV),
                    Variable::make(Int(32), funcExtentName(Name, ArgIdx))});
  }
  for (size_t I = Lets.size(); I-- > 0;)
    Nest = LetStmt::make(Lets[I].Name, Lets[I].Value, Nest);
  return Nest;
}

} // namespace

Stmt halide::buildProduceNest(const Function &F) {
  internal_assert(F.hasPureDefinition())
      << "cannot lower undefined function " << F.name();
  Stmt Nest = buildPureNest(F);
  for (size_t I = 0; I < F.updates().size(); ++I)
    Nest = Block::make(Nest, buildUpdateNest(F, I));
  return ProducerConsumer::make(F.name(), /*IsProducer=*/true, Nest);
}

Expr halide::writtenExtent(const Function &F, int D, Expr RequiredExtent) {
  // Walk the split tree of dimension D, computing the product of leaf loop
  // extents. requiredOf maps each live dimension name to its traversed
  // extent expression.
  const Schedule &S = F.schedule();
  internal_assert(D >= 0 && D < int(F.args().size()));
  std::map<std::string, Expr> ExtentOf;
  ExtentOf[F.args()[D]] = RequiredExtent;
  for (const Split &Sp : S.Splits) {
    auto It = ExtentOf.find(Sp.Old);
    if (It == ExtentOf.end())
      continue; // split of some other original dimension
    Expr OldExtent = It->second;
    ExtentOf.erase(It);
    ExtentOf[Sp.Outer] = (OldExtent + Sp.Factor - 1) / Sp.Factor;
    ExtentOf[Sp.Inner] = Sp.Factor;
  }
  Expr Product;
  for (const auto &[VarName, Extent] : ExtentOf)
    Product = Product.defined() ? Product * Extent : Extent;
  internal_assert(Product.defined());
  return Product;
}

namespace {

/// Injects the produce nest of a function at its compute level, splitting
/// the target loop body into produce and consume halves.
class InjectProduce : public IRMutator {
public:
  InjectProduce(const Function &F, const LoopLevel &Level)
      : F(F), Level(Level) {}

  bool Injected = false;

  Stmt inject(const Stmt &Body) {
    Stmt Produce = buildProduceNest(F);
    Stmt Consume = ProducerConsumer::make(F.name(), /*IsProducer=*/false,
                                          Body);
    Injected = true;
    return Block::make(Produce, Consume);
  }

protected:
  Stmt visit(const For *Op) override {
    if (!Injected && Level.isAt() && Op->Name == Level.loopName()) {
      Stmt Body = mutate(Op->Body); // handle inner recurrences first
      return For::make(Op->Name, Op->MinExpr, Op->Extent, Op->Kind,
                       inject(Body));
    }
    return IRMutator::visit(Op);
  }

private:
  const Function &F;
  const LoopLevel &Level;
};

/// Wraps the loop body at the store level (which must contain the produce
/// node) in a Realize allocation marker.
class InjectRealize : public IRMutator {
public:
  InjectRealize(const Function &F, const LoopLevel &Level)
      : F(F), Level(Level) {}

  bool Injected = false;

  Stmt wrap(const Stmt &Body) {
    internal_assert(pathToProduce(Body, F.name()))
        << "store level of " << F.name()
        << " does not enclose its compute level";
    Region Bounds;
    for (int D = 0; D < F.dimensions(); ++D) {
      // Placeholder bounds; bounds inference replaces them.
      Bounds.emplace_back(
          Variable::make(Int(32), F.name() + ".realize_min." +
                                      std::to_string(D)),
          Variable::make(Int(32), F.name() + ".realize_extent." +
                                      std::to_string(D)));
    }
    Injected = true;
    return Realize::make(F.name(), F.outputType(), std::move(Bounds), Body);
  }

protected:
  Stmt visit(const For *Op) override {
    if (!Injected && Level.isAt() && Op->Name == Level.loopName() &&
        pathToProduce(Op->Body, F.name())) {
      Stmt Body = mutate(Op->Body);
      return For::make(Op->Name, Op->MinExpr, Op->Extent, Op->Kind,
                       wrap(Body));
    }
    return IRMutator::visit(Op);
  }

private:
  const Function &F;
  const LoopLevel &Level;
};

} // namespace

Stmt halide::scheduleFunctions(const Function &Output,
                               const std::vector<std::string> &Order,
                               const std::map<std::string, Function> &Env) {
  // Start with the output's own nest (conceptually computed at root).
  Stmt S = buildProduceNest(Output);

  // Inject every other non-inlined function, consumers before producers.
  for (size_t I = Order.size(); I-- > 0;) {
    const std::string &Name = Order[I];
    if (Name == Output.name())
      continue;
    const Function &F = Env.at(Name);
    LoopLevel Compute = F.schedule().ComputeLevel;
    LoopLevel Store = F.schedule().StoreLevel;
    // Functions with update definitions have state and cannot be inlined.
    if (Compute.isInlined() && F.hasUpdateDefinition())
      Compute = LoopLevel::root();
    if (Compute.isInlined())
      continue; // stays as Call nodes; resolved by the inline pass
    if (Store.isInlined())
      Store = Compute;

    if (Compute.isRoot()) {
      user_assert(Store.isRoot())
          << "store level of " << Name
          << " must be root when compute level is root";
      InjectProduce Producer(F, Compute);
      S = Producer.inject(S);
      InjectRealize Realizer(F, Store);
      S = Realizer.wrap(S);
      continue;
    }

    InjectProduce Producer(F, Compute);
    S = Producer.mutate(S);
    user_assert(Producer.Injected)
        << "compute level " << Compute.str() << " of " << Name
        << " was not found in the loop nest";

    InjectRealize Realizer(F, Store);
    if (Store.isRoot())
      S = Realizer.wrap(S);
    else
      S = Realizer.mutate(S);
    user_assert(Realizer.Injected)
        << "store level " << Store.str() << " of " << Name
        << " was not found in the loop nest (it must enclose the compute "
           "level)";
  }
  return S;
}

namespace {

bool appendPathToProduce(const Stmt &S, const std::string &Name,
                         std::vector<Stmt> *Path) {
  if (const ProducerConsumer *PC = S.as<ProducerConsumer>())
    return (PC->IsProducer && PC->Name == Name) ||
           appendPathToProduce(PC->Body, Name, Path);
  if (const Block *B = S.as<Block>())
    return appendPathToProduce(B->First, Name, Path) ||
           appendPathToProduce(B->Rest, Name, Path);
  if (const IfThenElse *I = S.as<IfThenElse>())
    return appendPathToProduce(I->ThenCase, Name, Path) ||
           (I->ElseCase.defined() &&
            appendPathToProduce(I->ElseCase, Name, Path));
  if (const Realize *R = S.as<Realize>())
    return appendPathToProduce(R->Body, Name, Path);
  Stmt Body;
  if (const For *Loop = S.as<For>())
    Body = Loop->Body;
  else if (const LetStmt *L = S.as<LetStmt>())
    Body = L->Body;
  else
    return false;
  Path->push_back(S);
  if (appendPathToProduce(Body, Name, Path))
    return true;
  Path->pop_back();
  return false;
}

} // namespace

std::optional<std::vector<Stmt>>
halide::pathToProduce(const Stmt &S, const std::string &Name) {
  std::vector<Stmt> Path;
  if (!appendPathToProduce(S, Name, &Path))
    return std::nullopt;
  return Path;
}
