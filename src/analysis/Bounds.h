//===-- analysis/Bounds.h - Bounds of expressions and regions ---*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval analysis over arbitrary expressions (paper section 4.2): computes
/// symbolic [min, max] bounds of an expression given intervals for the free
/// variables, and the axis-aligned boxes of regions read from / written to a
/// given stage within a statement. Bounds inference, sliding window
/// optimization, and storage folding are all built on these entry points.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_ANALYSIS_BOUNDS_H
#define HALIDE_ANALYSIS_BOUNDS_H

#include "analysis/Interval.h"
#include "analysis/Scope.h"

#include <string>

namespace halide {

/// Per-thread observability for the bounds-sharing layer (the ExprLedger
/// in Interval.h): how often interval endpoints were interned, reused, or
/// left inline on the calling thread. Tests assert on these counters to
/// keep the sharing layer honest; they are diagnostics, not part of any
/// result.
class Bounds {
public:
  static BoundsStatistics statistics();
  static void resetStatistics();
};

/// Computes a symbolic interval containing every value \p E can take, given
/// intervals for free variables in \p VarScope. Variables not in scope are
/// treated as unknown points: they appear symbolically in the result, which
/// is what lets bounds inference emit per-loop-level preambles. Results are
/// conservative (may over-approximate) but never under-approximate.
///
/// All entry points below share subexpressions while they infer: every let
/// binding and loop range crossed is bound to a ledger name instead of
/// being re-expanded at each use, which keeps result sizes polynomial in
/// pipeline depth. With \p Ledger null the result is materialized into a
/// self-contained expression (ledger definitions become Let wrappers).
/// Passing a ledger returns *raw* intervals that may reference its names;
/// the caller decides where the definitions land — bounds inference emits
/// them once as real LetStmts wrapping each stage's produce node.
Interval boundsOfExprInScope(const Expr &E, const Scope<Interval> &VarScope,
                             ExprLedger *Ledger = nullptr);

/// The region of the Func or image named \p Name read by calls within \p S.
/// Loop variables and lets bound inside \p S are ranged over; variables
/// bound outside remain symbolic in the result. Only the lets and loops
/// that enclose a call to \p Name are ranged, so the cost follows the
/// accesses to this one name, not the size of \p S.
Box boxRequired(const Stmt &S, const std::string &Name,
                const Scope<Interval> &VarScope, ExprLedger *Ledger = nullptr);

/// The region of \p Name written by Provide nodes within \p S.
Box boxProvided(const Stmt &S, const std::string &Name,
                const Scope<Interval> &VarScope, ExprLedger *Ledger = nullptr);

/// The union of the regions of \p Name read and written within \p S (a
/// stage's own update definitions: scatters and recursive reads).
Box boxTouched(const Stmt &S, const std::string &Name,
               const Scope<Interval> &VarScope, ExprLedger *Ledger = nullptr);

} // namespace halide

#endif // HALIDE_ANALYSIS_BOUNDS_H
