//===-- lang/Func.cpp ----------------------------------------------------------=//

#include "lang/Func.h"
#include "ir/IREquality.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"

#include <algorithm>
#include <map>
#include <set>

using namespace halide;

namespace {

/// Collects the reduction variables an update definition mentions, with
/// the domains they carry.
class RVarCollector : public IRVisitor {
public:
  explicit RVarCollector(const std::string &Stage) : Stage(Stage) {}

  std::map<std::string, ReductionVariable> RVars;

  void visit(const Variable *Op) override {
    if (!Op->isReduction())
      return;
    auto [It, Inserted] = RVars.emplace(
        Op->Name,
        ReductionVariable{Op->Name, Op->ReductionMin, Op->ReductionExtent});
    user_assert(Inserted || (equal(It->second.Min, Op->ReductionMin) &&
                             equal(It->second.Extent, Op->ReductionExtent)))
        << "update of " << Stage << " uses two different reduction domains "
        << "named " << Op->Name;
  }

private:
  const std::string &Stage;
};

} // namespace

FuncRef::operator Expr() const {
  user_assert(F.hasPureDefinition())
      << "cannot call " << F.name() << " before it is defined";
  std::vector<Expr> CallArgs;
  CallArgs.reserve(Args.size());
  for (const Expr &Arg : Args)
    CallArgs.push_back(cast(Int(32), Arg));
  return Call::make(F.outputType(), F.name(), std::move(CallArgs),
                    CallType::Halide, F.ptr());
}

void FuncRef::operator=(Expr Value) {
  if (!F.hasPureDefinition()) {
    // Pure definition: arguments must be distinct plain Vars.
    std::vector<std::string> ArgNames;
    std::set<std::string> Seen;
    for (const Expr &Arg : Args) {
      const Variable *V = Arg.as<Variable>();
      user_assert(V && !V->IsParam)
          << "pure definition of " << F.name()
          << " requires plain Var arguments";
      user_assert(!V->isReduction())
          << "pure definition of " << F.name()
          << " may not use reduction variables";
      user_assert(Seen.insert(V->Name).second)
          << "pure definition of " << F.name() << " repeats argument "
          << V->Name;
      ArgNames.push_back(V->Name);
    }
    F.define(ArgNames, Value);
    return;
  }
  defineUpdateFromExpr(Value);
}

void FuncRef::operator=(const FuncRef &Other) { *this = Expr(Other); }

void FuncRef::operator+=(Expr Value) {
  *this = Expr(*this) + Value;
}
void FuncRef::operator-=(Expr Value) {
  *this = Expr(*this) - Value;
}
void FuncRef::operator*=(Expr Value) {
  *this = Expr(*this) * Value;
}

void FuncRef::defineUpdateFromExpr(Expr Value) {
  std::vector<Expr> UpdateArgs;
  UpdateArgs.reserve(Args.size());
  for (const Expr &Arg : Args)
    UpdateArgs.push_back(cast(Int(32), Arg));
  Value = cast(F.outputType(), Value);

  // Infer the reduction domain from the reduction variables mentioned,
  // ordered by name (an RDom's dimensions share its name, so x < y).
  RVarCollector Collector(F.name());
  for (const Expr &Arg : UpdateArgs)
    Arg.accept(&Collector);
  Value.accept(&Collector);
  std::vector<ReductionVariable> RVars;
  for (const auto &[Name, RV] : Collector.RVars)
    RVars.push_back(RV);
  F.defineUpdate(UpdateArgs, Value, RVars);
}

Func::Func() : F(Function(uniqueName("f"))) {}
Func::Func(const std::string &Name) : F(Function(Name)) {}

FuncRef Func::operator()(std::vector<Expr> Args) const {
  return FuncRef(F, std::move(Args));
}

Func &Func::split(const Var &Old, const Var &Outer, const Var &Inner,
                  Expr Factor) {
  Schedule &S = F.schedule();
  Dim *OldDim = S.findDim(Old.name());
  user_assert(OldDim) << "split: " << F.name() << " has no dimension "
                      << Old.name();
  user_assert(!OldDim->IsRVar)
      << "split of reduction dimension " << Old.name() << " is unsupported";
  user_assert(Outer.name() != Inner.name())
      << "split: outer and inner must have distinct names";
  user_assert(Outer.name() == Old.name() || !S.hasDim(Outer.name()))
      << "split: outer name " << Outer.name() << " already in use";
  user_assert(Inner.name() == Old.name() || !S.hasDim(Inner.name()))
      << "split: inner name " << Inner.name() << " already in use";
  user_assert(Factor.defined()) << "split with undefined factor";
  int64_t ConstFactor;
  if (asConstInt(Factor, &ConstFactor)) {
    user_assert(ConstFactor >= 1) << "split factor must be positive";
  }

  ForType OldKind = OldDim->Kind;
  OldDim->Var = Outer.name();
  OldDim->Kind = OldKind;
  // Insert the inner dimension immediately after (i.e. inside) the outer.
  for (size_t I = 0; I < S.Dims.size(); ++I) {
    if (S.Dims[I].Var == Outer.name()) {
      S.Dims.insert(S.Dims.begin() + I + 1,
                    Dim{Inner.name(), ForType::Serial, false});
      break;
    }
  }
  S.Splits.push_back({Old.name(), Outer.name(), Inner.name(),
                      cast(Int(32), Factor)});
  return *this;
}

Func &Func::reorder(const std::vector<Var> &Vars) {
  Schedule &S = F.schedule();
  std::vector<size_t> Positions;
  std::set<std::string> Names;
  for (const Var &V : Vars) {
    user_assert(Names.insert(V.name()).second)
        << "reorder repeats dimension " << V.name();
    bool Found = false;
    for (size_t I = 0; I < S.Dims.size(); ++I) {
      if (S.Dims[I].Var == V.name()) {
        Positions.push_back(I);
        Found = true;
        break;
      }
    }
    user_assert(Found) << "reorder: " << F.name() << " has no dimension "
                       << V.name();
  }
  std::vector<size_t> Sorted = Positions;
  std::sort(Sorted.begin(), Sorted.end());
  // Vars are given innermost-first; the latest listed var goes outermost.
  std::vector<Dim> NewDims = S.Dims;
  for (size_t K = 0; K < Vars.size(); ++K) {
    const std::string &Name = Vars[Vars.size() - 1 - K].name();
    for (const Dim &D : S.Dims) {
      if (D.Var == Name) {
        NewDims[Sorted[K]] = D;
        break;
      }
    }
  }
  S.Dims = NewDims;
  return *this;
}

namespace {

Func &markDim(Func &Self, Function &F, const std::string &Name,
              ForType Kind) {
  Dim *D = F.schedule().findDim(Name);
  user_assert(D) << forTypeName(Kind) << ": " << F.name()
                 << " has no dimension " << Name;
  if (D->IsRVar) {
    user_assert(Kind == ForType::Serial)
        << "reduction dimension " << Name
        << " may only be serial (associativity is not analyzed)";
  }
  D->Kind = Kind;
  return Self;
}

} // namespace

Func &Func::parallel(const Var &V) {
  return markDim(*this, F, V.name(), ForType::Parallel);
}

Func &Func::vectorize(const Var &V) {
  return markDim(*this, F, V.name(), ForType::Vectorized);
}

Func &Func::vectorize(const Var &V, int Factor) {
  Var Inner(V.name() + "$vi");
  split(V, V, Inner, Factor);
  return vectorize(Inner);
}

Func &Func::unroll(const Var &V) {
  return markDim(*this, F, V.name(), ForType::Unrolled);
}

Func &Func::unroll(const Var &V, int Factor) {
  Var Inner(V.name() + "$ui");
  split(V, V, Inner, Factor);
  return unroll(Inner);
}

Func &Func::tile(const TileSpec &Spec) {
  user_assert(Spec.XFactor.defined() && Spec.YFactor.defined())
      << "tile of " << F.name() << ": TileSpec::factors(...) was not set";
  split(Spec.X, Spec.XOuter, Spec.XInner, Spec.XFactor);
  split(Spec.Y, Spec.YOuter, Spec.YInner, Spec.YFactor);
  return reorder({Spec.XInner, Spec.YInner, Spec.XOuter, Spec.YOuter});
}

Func &Func::bound(const Var &V, Expr Min, Expr Extent) {
  bool IsArg = std::find(F.args().begin(), F.args().end(), V.name()) !=
               F.args().end();
  user_assert(IsArg) << "bound: " << V.name() << " is not a pure argument of "
                     << F.name();
  F.schedule().Bounds.push_back(
      {V.name(), cast(Int(32), Min), cast(Int(32), Extent)});
  return *this;
}

Func &Func::gpuBlocks(const Var &V) {
  return markDim(*this, F, V.name(), ForType::GPUBlock);
}

Func &Func::gpuThreads(const Var &V) {
  return markDim(*this, F, V.name(), ForType::GPUThread);
}

Func &Func::gpuTile(const TileSpec &Spec) {
  tile(Spec);
  gpuBlocks(Spec.YOuter);
  gpuBlocks(Spec.XOuter);
  gpuThreads(Spec.YInner);
  gpuThreads(Spec.XInner);
  return *this;
}

Func &Func::computeRoot() {
  F.schedule().ComputeLevel = LoopLevel::root();
  F.schedule().StoreLevel = LoopLevel::root();
  return *this;
}

Func &Func::computeAt(const Func &Consumer, const Var &V) {
  F.schedule().ComputeLevel = LoopLevel::at(Consumer.name(), V.name());
  return *this;
}

Func &Func::computeInline() {
  F.schedule().ComputeLevel = LoopLevel::inlined();
  F.schedule().StoreLevel = LoopLevel::inlined();
  return *this;
}

Func &Func::storeRoot() {
  F.schedule().StoreLevel = LoopLevel::root();
  return *this;
}

Func &Func::storeAt(const Func &Consumer, const Var &V) {
  F.schedule().StoreLevel = LoopLevel::at(Consumer.name(), V.name());
  return *this;
}

Func &Func::updateParallel(int Idx, const Var &V) {
  auto &Updates = F.updates();
  user_assert(Idx >= 0 && size_t(Idx) < Updates.size())
      << "no update definition " << Idx << " on " << F.name();
  for (Dim &D : Updates[Idx].Dims) {
    if (D.Var == V.name()) {
      user_assert(!D.IsRVar) << "cannot parallelize reduction dimension";
      D.Kind = ForType::Parallel;
      return *this;
    }
  }
  user_error << "update " << Idx << " of " << F.name()
             << " has no dimension " << V.name();
  return *this;
}

Func &Func::updateVectorize(int Idx, const Var &V) {
  auto &Updates = F.updates();
  user_assert(Idx >= 0 && size_t(Idx) < Updates.size())
      << "no update definition " << Idx << " on " << F.name();
  for (Dim &D : Updates[Idx].Dims) {
    if (D.Var == V.name()) {
      user_assert(!D.IsRVar) << "cannot vectorize reduction dimension";
      D.Kind = ForType::Vectorized;
      return *this;
    }
  }
  user_error << "update " << Idx << " of " << F.name()
             << " has no dimension " << V.name();
  return *this;
}
