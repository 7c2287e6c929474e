//===-- analysis/Interval.cpp -----------------------------------------------=//

#include "analysis/Interval.h"
#include "ir/IREquality.h"
#include "ir/IROperators.h"

using namespace halide;

bool Interval::isSinglePoint() const {
  return Min.defined() && Max.defined() && equal(Min, Max);
}

void Interval::include(const Interval &Other) { *this = intervalUnion(*this, Other); }

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
