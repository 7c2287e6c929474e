//===-- lang/Function.cpp -----------------------------------------------------=//

#include "lang/Function.h"
#include "analysis/Derivatives.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"

#include <algorithm>
#include <atomic>
#include <set>

using namespace halide;

// Counted with the memory orders of IntrusivePtr (support/Util.h).
void halide::retainContents(FunctionContents *P) {
  P->RefCount.fetch_add(1, std::memory_order_relaxed);
}

void halide::releaseContents(FunctionContents *P) {
  if (P->RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
    delete P;
}

namespace {

/// Drops the callee reference from calls to one stage. A stage's update
/// definitions may read the stage itself (recursive scans); if those
/// calls owned it, the stage would own itself and never be freed.
class DropSelfReferences : public IRMutator {
public:
  explicit DropSelfReferences(const FunctionContents *Self) : Self(Self) {}

protected:
  Expr visit(const Call *Op) override {
    Expr Mutated = IRMutator::visit(Op);
    const Call *C = Mutated.as<Call>();
    if (C->Callee.get() != Self)
      return Mutated;
    return Call::make(C->NodeType, C->Name, C->Args, C->CallKind);
  }

private:
  const FunctionContents *Self;
};

} // namespace

Function::Function(const std::string &Name) {
  internal_assert(!Name.empty()) << "Function with empty name";
  internal_assert(Name.find('.') == std::string::npos)
      << "Function names may not contain '.': " << Name;
  FunctionContents *FC = new FunctionContents;
  FC->Name = Name;
  static std::atomic<int64_t> NextId{0};
  FC->Id = ++NextId;
  C = FunctionPtr(FC);
}

bool Function::defined() const { return C.get() != nullptr; }

bool Function::hasPureDefinition() const {
  return defined() && C->Value.defined();
}

bool Function::hasUpdateDefinition() const {
  return defined() && !C->Updates.empty();
}

const std::string &Function::name() const {
  internal_assert(defined()) << "name() of undefined Function";
  return C->Name;
}

int64_t Function::id() const {
  internal_assert(defined()) << "id() of undefined Function";
  return C->Id;
}

const std::vector<std::string> &Function::args() const {
  internal_assert(defined()) << "args() of undefined Function";
  return C->Args;
}

Type Function::outputType() const {
  internal_assert(hasPureDefinition()) << "outputType() before definition";
  return C->Value.type();
}

const Expr &Function::value() const {
  internal_assert(hasPureDefinition()) << "value() before definition";
  return C->Value;
}

const std::vector<UpdateDefinition> &Function::updates() const {
  internal_assert(defined()) << "updates() of undefined Function";
  return C->Updates;
}

std::vector<UpdateDefinition> &Function::updates() {
  internal_assert(defined()) << "updates() of undefined Function";
  return C->Updates;
}

Schedule &Function::schedule() {
  internal_assert(defined()) << "schedule() of undefined Function";
  return C->Sched;
}

const Schedule &Function::schedule() const {
  internal_assert(defined()) << "schedule() of undefined Function";
  return C->Sched;
}

void Function::define(const std::vector<std::string> &Args, Expr Value) {
  internal_assert(defined()) << "define() of undefined Function";
  user_assert(!C->Value.defined())
      << "function " << C->Name << " already has a pure definition";
  user_assert(Value.defined()) << "definition of " << C->Name
                               << " with undefined value";
  user_assert(Value.type().isScalar())
      << "pure definitions must be scalar-typed";
  C->Args = Args;
  C->Value = Value;
  // Default domain order: row-major over the pure args, i.e. the first arg
  // (conventionally x) is the innermost loop. Dims are outermost-first.
  C->Sched.Dims.clear();
  for (size_t I = Args.size(); I-- > 0;)
    C->Sched.Dims.push_back({Args[I], ForType::Serial, /*IsRVar=*/false});
}

void Function::defineUpdate(const std::vector<Expr> &Args, Expr Value,
                            const std::vector<ReductionVariable> &RVars) {
  internal_assert(defined()) << "defineUpdate() of undefined Function";
  user_assert(C->Value.defined())
      << "update of " << C->Name << " before its pure definition";
  user_assert(Args.size() == C->Args.size())
      << "update of " << C->Name << " has wrong dimensionality";
  user_assert(Value.defined() && Value.type() == C->Value.type())
      << "update of " << C->Name << " must match the pure definition's type";

  DropSelfReferences Drop(C.get());
  UpdateDefinition Update;
  for (const Expr &Arg : Args)
    Update.Args.push_back(Drop.mutate(Arg));
  Update.Value = Drop.mutate(Value);
  for (const ReductionVariable &RV : RVars)
    Update.RVars.push_back(
        {RV.Name, Drop.mutate(RV.Min), Drop.mutate(RV.Extent)});

  // Loop order for the update stage: free pure vars (outermost, in reverse
  // arg order for row-major traversal) then reduction vars in declaration
  // order with the last one innermost (lexicographic, paper section 2).
  std::set<std::string> RVarNames;
  for (const ReductionVariable &RV : RVars)
    RVarNames.insert(RV.Name);
  std::set<std::string> Used;
  for (const Expr &Arg : Args)
    for (const std::string &V : freeVars(Arg))
      Used.insert(V);
  for (const std::string &V : freeVars(Value))
    Used.insert(V);
  for (size_t I = C->Args.size(); I-- > 0;) {
    const std::string &PureVar = C->Args[I];
    if (Used.count(PureVar))
      Update.Dims.push_back({PureVar, ForType::Serial, /*IsRVar=*/false});
  }
  for (const ReductionVariable &RV : RVars)
    Update.Dims.push_back({RV.Name, ForType::Serial, /*IsRVar=*/true});

  // Pure vars used on the right-hand side or in Args must appear literally
  // as the corresponding pure argument position or be reduction vars.
  for (size_t I = 0; I < Args.size(); ++I) {
    for (const std::string &V : freeVars(Args[I])) {
      user_assert(RVarNames.count(V) ||
                  std::find(C->Args.begin(), C->Args.end(), V) !=
                      C->Args.end())
          << "update of " << C->Name << " uses unknown variable " << V;
    }
  }
  C->Updates.push_back(std::move(Update));
}

void Function::resetSchedule() {
  internal_assert(hasPureDefinition()) << "resetSchedule before definition";
  Schedule Fresh;
  for (size_t I = C->Args.size(); I-- > 0;)
    Fresh.Dims.push_back({C->Args[I], ForType::Serial, /*IsRVar=*/false});
  C->Sched = Fresh;
  for (UpdateDefinition &U : C->Updates)
    for (Dim &D : U.Dims)
      D.Kind = ForType::Serial;
}
