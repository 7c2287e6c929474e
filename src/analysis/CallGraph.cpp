//===-- analysis/CallGraph.cpp -------------------------------------------------=//

#include "analysis/CallGraph.h"
#include "ir/IREquality.h"
#include "ir/IRVisitor.h"

#include <algorithm>
#include <set>

using namespace halide;

namespace {

/// Collects the stages an expression's Halide calls hold and the
/// parameters it reads and, unless built for the environment alone, the
/// called names and the distinct argument vectors of every Halide and
/// image call.
class CallCollector : public IRVisitor {
public:
  /// \p CallSites false skips FuncCalls and CallArgs: buildEnvironment,
  /// which runs on every realize through the schedule fingerprint, reads
  /// neither, and deduplicating the arguments compares every pair.
  explicit CallCollector(bool CallSites = true) : CallSites(CallSites) {}

  std::set<std::string> FuncCalls;
  /// The stages the calls hold; a stage's calls to itself hold none.
  std::vector<Function> Callees;
  /// The parameters its Variables and image calls read.
  std::vector<ParameterPtr> Params;
  /// All distinct argument vectors per callee (for stencil counting).
  std::map<std::string, std::vector<std::vector<Expr>>> CallArgs;

  void visit(const Call *Op) override {
    IRVisitor::visit(Op);
    if (Op->CallKind == CallType::Halide) {
      if (Op->Callee.defined())
        Callees.push_back(Function(Op->Callee));
      if (CallSites) {
        FuncCalls.insert(Op->Name);
        recordArgs(Op);
      }
    } else if (Op->CallKind == CallType::Image) {
      if (Op->Param.defined())
        Params.push_back(Op->Param);
      if (CallSites)
        recordArgs(Op);
    }
  }

  void visit(const Variable *Op) override {
    if (Op->Param.defined())
      Params.push_back(Op->Param);
  }

private:
  const bool CallSites;

  void recordArgs(const Call *Op) {
    auto &Seen = CallArgs[Op->Name];
    for (const auto &Existing : Seen) {
      if (Existing.size() != Op->Args.size())
        continue;
      bool Same = true;
      for (size_t I = 0; I < Existing.size() && Same; ++I)
        Same = equal(Existing[I], Op->Args[I]);
      if (Same)
        return;
    }
    Seen.push_back(Op->Args);
  }
};

void collectFromFunction(const Function &F, CallCollector *Collector) {
  if (F.hasPureDefinition())
    F.value().accept(Collector);
  for (const UpdateDefinition &U : F.updates()) {
    U.Value.accept(Collector);
    for (const Expr &Arg : U.Args)
      Arg.accept(Collector);
    for (const ReductionVariable &RV : U.RVars) {
      if (RV.Min.defined())
        RV.Min.accept(Collector);
      if (RV.Extent.defined())
        RV.Extent.accept(Collector);
    }
  }
}

void buildEnvHelper(const Function &F, std::map<std::string, Function> *Env,
                    std::map<std::string, ParameterPtr> *Params) {
  auto [It, Inserted] = Env->emplace(F.name(), F);
  if (!Inserted) {
    user_assert(It->second.sameAs(F))
        << "two different stages of one pipeline are named " << F.name()
        << "; give each stage its own name";
    return;
  }
  CallCollector Collector(/*CallSites=*/false);
  collectFromFunction(F, &Collector);
  // Split factors and bounds may read parameters too.
  for (const Split &S : F.schedule().Splits)
    S.Factor.accept(&Collector);
  for (const BoundConstraint &B : F.schedule().Bounds) {
    B.Min.accept(&Collector);
    B.Extent.accept(&Collector);
  }
  for (const ParameterPtr &P : Collector.Params) {
    auto [PIt, PInserted] = Params->emplace(P->Name, P);
    user_assert(PInserted || PIt->second.get() == P.get())
        << "two different parameters of one pipeline are named " << P->Name
        << "; give each parameter its own name";
  }
  for (const Function &Callee : Collector.Callees)
    buildEnvHelper(Callee, Env, Params);
}

} // namespace

std::map<std::string, Function>
halide::buildEnvironment(const Function &Output,
                         std::map<std::string, ParameterPtr> *Params) {
  std::map<std::string, Function> Env;
  std::map<std::string, ParameterPtr> Unused;
  buildEnvHelper(Output, &Env, Params ? Params : &Unused);
  return Env;
}

std::vector<std::string> halide::directCallees(const Function &F) {
  CallCollector Collector;
  collectFromFunction(F, &Collector);
  std::vector<std::string> Result;
  for (const std::string &Name : Collector.FuncCalls)
    if (Name != F.name())
      Result.push_back(Name);
  return Result;
}

std::map<std::string, int> halide::calleeSiteCounts(const Function &F) {
  CallCollector Collector;
  collectFromFunction(F, &Collector);
  std::map<std::string, int> Counts;
  for (const auto &[Callee, ArgSets] : Collector.CallArgs)
    if (Collector.FuncCalls.count(Callee) && Callee != F.name())
      Counts[Callee] = int(ArgSets.size());
  return Counts;
}

namespace {

void topoVisit(const std::string &Name,
               const std::map<std::string, Function> &Env,
               std::set<std::string> *Visited, std::set<std::string> *OnStack,
               std::vector<std::string> *Order) {
  if (Visited->count(Name))
    return;
  internal_assert(!OnStack->count(Name))
      << "cycle in pipeline call graph through " << Name;
  OnStack->insert(Name);
  auto It = Env.find(Name);
  internal_assert(It != Env.end()) << "function " << Name
                                   << " missing from environment";
  for (const std::string &Callee : directCallees(It->second))
    topoVisit(Callee, Env, Visited, OnStack, Order);
  OnStack->erase(Name);
  Visited->insert(Name);
  Order->push_back(Name);
}

} // namespace

std::vector<std::string> halide::realizationOrder(
    const Function &Output, const std::map<std::string, Function> &Env) {
  std::vector<std::string> Order;
  std::set<std::string> Visited, OnStack;
  topoVisit(Output.name(), Env, &Visited, &OnStack, &Order);
  return Order;
}

int halide::countStencils(const Function &Output) {
  std::map<std::string, Function> Env = buildEnvironment(Output);
  int Stencils = 0;
  for (const auto &[Name, F] : Env) {
    CallCollector Collector;
    collectFromFunction(F, &Collector);
    bool IsStencil = false;
    for (const auto &[Callee, ArgSets] : Collector.CallArgs)
      if (ArgSets.size() > 1)
        IsStencil = true;
    if (IsStencil)
      ++Stencils;
  }
  return Stencils;
}
