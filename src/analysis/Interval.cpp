//===-- analysis/Interval.cpp -----------------------------------------------=//

#include "analysis/Interval.h"
#include "ir/IREquality.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "transforms/Simplify.h"
#include "transforms/Substitute.h"

#include <set>

using namespace halide;

bool Interval::isSinglePoint() const {
  return Min.defined() && Max.defined() && equal(Min, Max);
}

void Interval::include(const Interval &Other) { *this = intervalUnion(*this, Other); }

void Interval::intersect(const Interval &Other) {
  *this = intervalIntersection(*this, Other);
}

Interval halide::intervalUnion(const Interval &A, const Interval &B) {
  Interval Result;
  if (A.hasLowerBound() && B.hasLowerBound())
    Result.Min = min(A.Min, B.Min);
  if (A.hasUpperBound() && B.hasUpperBound())
    Result.Max = max(A.Max, B.Max);
  return Result;
}

Interval halide::intervalIntersection(const Interval &A, const Interval &B) {
  Interval Result;
  if (A.hasLowerBound() && B.hasLowerBound())
    Result.Min = max(A.Min, B.Min);
  else
    Result.Min = A.hasLowerBound() ? A.Min : B.Min;
  if (A.hasUpperBound() && B.hasUpperBound())
    Result.Max = min(A.Max, B.Max);
  else
    Result.Max = A.hasUpperBound() ? A.Max : B.Max;
  return Result;
}

void Box::include(const Box &Other) {
  // A rank-0 box means "nothing accumulated yet": adopt the other box whole.
  if (Dims.empty()) {
    Dims = Other.Dims;
    return;
  }
  if (Other.Dims.empty())
    return;
  internal_assert(Dims.size() == Other.Dims.size())
      << "union of boxes of different rank";
  for (size_t I = 0; I < Dims.size(); ++I)
    Dims[I].include(Other.Dims[I]);
}

//===----------------------------------------------------------------------===//
// ExprLedger: the bounds-sharing layer.
//===----------------------------------------------------------------------===//

BoundsStatistics &halide::detail::boundsSharingCounters() {
  static BoundsStatistics Counters;
  return Counters;
}

namespace {

/// Endpoints at or under this many IR nodes are duplicated at each use
/// site; anything larger gets a ledger name. Small expressions must stay
/// inline so the classic folding patterns (constant spans, monotonic
/// marching mins) keep firing for shallow pipelines exactly as before the
/// sharing layer existed.
constexpr size_t InlineNodeLimit = 16;

/// Collects the ledger names an expression references (without respecting
/// Let shadowing: ledger names are globally unique, so a shadowed
/// occurrence can only rebind the same definition).
class LedgerNameCollector : public IRVisitor {
public:
  LedgerNameCollector(const std::map<std::string, size_t> &Index,
                      std::set<std::string> *Used)
      : Index(Index), Used(Used) {}

  void visit(const Variable *Op) override {
    if (Index.count(Op->Name))
      Used->insert(Op->Name);
  }

private:
  const std::map<std::string, size_t> &Index;
  std::set<std::string> *Used;
};

} // namespace

bool ExprLedger::smallEnoughToInline(const Expr &E) {
  // Capped walk: deciding "bigger than the limit?" costs O(limit) even on
  // the enormous first-encounter endpoints this layer exists to tame.
  return !irNodeCountExceeds(E, InlineNodeLimit);
}

std::string ExprLedger::intern(const Expr &E, const std::string &Hint) {
  auto It = Memo.find(E);
  if (It != Memo.end()) {
    ++detail::boundsSharingCounters().CacheHits;
    return It->second;
  }
  ++detail::boundsSharingCounters().CacheMisses;
  std::string Name = scopedUniqueName(Hint + ".shared$");
  Memo.emplace(E, Name);
  IndexByName[Name] = Defs.size();
  Defs.emplace_back(Name, E);
  return Name;
}

Expr ExprLedger::shared(const Expr &E, const std::string &Hint) {
  if (!E.defined())
    return E;
  // Canonicalize before the size check and the memo lookup: simplification
  // both shrinks borderline expressions under the inline threshold and
  // makes structurally different spellings of the same value collide.
  Expr Canon = simplify(E);
  if (smallEnoughToInline(Canon)) {
    ++detail::boundsSharingCounters().EndpointsInlined;
    return Canon;
  }
  return Variable::make(Canon.type(), intern(Canon, Hint));
}

Interval ExprLedger::shared(const Interval &I, const std::string &Hint) {
  Interval Result;
  if (I.isSinglePoint()) {
    Result.Min = shared(I.Min, Hint);
    Result.Max = Result.Min;
    return Result;
  }
  Result.Min = shared(I.Min, Hint + ".min");
  Result.Max = shared(I.Max, Hint + ".max");
  return Result;
}

Expr ExprLedger::materialize(const Expr &E) const {
  if (!E.defined() || Defs.empty())
    return E;
  std::set<std::string> Needed;
  LedgerNameCollector Collector(IndexByName, &Needed);
  E.accept(&Collector);
  if (Needed.empty())
    return E;
  // Wrap latest-created definitions innermost: a definition may reference
  // earlier names, which the backward walk then discovers and wraps
  // further out.
  Expr Result = E;
  for (size_t I = Defs.size(); I-- > 0;) {
    const auto &[Name, Def] = Defs[I];
    if (!Needed.count(Name))
      continue;
    Result = Let::make(Name, Def, Result);
    ++detail::boundsSharingCounters().LetsEmitted;
    Def.accept(&Collector);
  }
  return Result;
}

Interval ExprLedger::materialize(const Interval &I) const {
  return Interval(materialize(I.Min), materialize(I.Max));
}

void ExprLedger::substituteInDefs(const std::map<std::string, Expr> &Bindings) {
  if (Bindings.empty())
    return;
  for (auto &Entry : Defs)
    Entry.second = substitute(Bindings, Entry.second);
  Memo.clear();
}
