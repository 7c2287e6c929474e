//===-- analysis/Monotonic.h - Monotonicity classification ------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies how an expression varies as one variable increases. The
/// sliding window optimization (paper section 4.3) may only shrink the
/// per-iteration compute region when the region's bounds march monotonically
/// with the intervening serial loop; this analysis proves that.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_ANALYSIS_MONOTONIC_H
#define HALIDE_ANALYSIS_MONOTONIC_H

#include "analysis/Scope.h"
#include "ir/Expr.h"

#include <string>

namespace halide {

/// Result of monotonicity analysis. "Increasing"/"Decreasing" are weak
/// (non-strict): the expression never moves the other way.
enum class Monotonic {
  Constant,   ///< Does not depend on the variable.
  Increasing, ///< Non-decreasing in the variable.
  Decreasing, ///< Non-increasing in the variable.
  Unknown,    ///< Could not be classified.
};

/// Classifies \p E as a function of the scalar variable \p Var.
Monotonic isMonotonic(const Expr &E, const std::string &Var);

/// Same, with known classifications for free variables bound outside the
/// expression (e.g. the shared bounds definitions the sharing layer emits
/// as enclosing LetStmts: their dependence on the loop variable is only
/// visible through \p Known). Unlisted variables are treated as constant.
Monotonic isMonotonic(const Expr &E, const std::string &Var,
                      const Scope<Monotonic> &Known);

} // namespace halide

#endif // HALIDE_ANALYSIS_MONOTONIC_H
