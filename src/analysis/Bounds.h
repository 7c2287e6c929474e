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
/// A region walk can range a stored stage's coordinates over its stored
/// region, bound outside the walk, so its result names those lets instead
/// of deriving the stage's region again from its loop nest.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_ANALYSIS_BOUNDS_H
#define HALIDE_ANALYSIS_BOUNDS_H

#include "analysis/Interval.h"
#include "analysis/Scope.h"

#include <string>
#include <vector>

namespace halide {

/// The stored region of a stored stage's coordinate "f.x", and which
/// binding is the coordinate: a split's reconstruction let, whose outer
/// loop may reuse the name for the loop's own variable, or else the loop.
struct StoredCoordinate {
  Interval Range;
  bool IsLet = false;
};

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
/// being re-expanded at each use, so a result stays small however often it
/// reuses an endpoint. With \p Ledger null the result is materialized into
/// a self-contained expression (ledger definitions become Let wrappers).
/// Passing a ledger returns *raw* intervals that may reference its names;
/// the caller decides where the definitions land — bounds inference binds
/// them as LetStmts just before the region lets that use them.
Interval boundsOfExprInScope(const Expr &E, const Scope<Interval> &VarScope,
                             ExprLedger *Ledger = nullptr);

/// The region of the Func or image named \p Name read by calls within \p S.
/// Loop variables and lets bound inside \p S are ranged over; variables
/// bound outside remain symbolic in the result. Only the lets and loops
/// that enclose a call to \p Name are ranged, so the cost follows the
/// accesses to this one name, not the size of \p S. The coordinate "f.x"
/// of a stage in \p Stored, whose stored region is bound outside \p S,
/// ranges over that region instead of over its loop or value, so the
/// result names the stored region.
Box boxRequired(const Stmt &S, const std::string &Name,
                const Scope<Interval> &VarScope, ExprLedger *Ledger = nullptr,
                const Scope<StoredCoordinate> *Stored = nullptr);

/// The union of \p Region over the loops and lets of \p Path, nested For
/// and LetStmt nodes outermost first (pathToProduce from a stage's Realize
/// body: the loops between its storage and compute levels), raw against
/// \p Ledger. The coordinates in \p Stored range as in boxRequired.
Box boxOverPath(const std::vector<Stmt> &Path, const Box &Region,
                const Scope<StoredCoordinate> &Stored, ExprLedger *Ledger);

/// The region of \p Name written by Provide nodes within \p S.
Box boxProvided(const Stmt &S, const std::string &Name,
                const Scope<Interval> &VarScope, ExprLedger *Ledger = nullptr);

/// The union of the regions of \p Name read and written within \p S (a
/// stage's own update definitions: scatters and recursive reads).
Box boxTouched(const Stmt &S, const std::string &Name,
               const Scope<Interval> &VarScope, ExprLedger *Ledger = nullptr);

} // namespace halide

#endif // HALIDE_ANALYSIS_BOUNDS_H
