//===-- analysis/Interval.h - Symbolic intervals ----------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic intervals [Min, Max] whose endpoints are Exprs (possibly
/// undefined, meaning unbounded in that direction). This is the "simple
/// interval analysis" the paper (sections 1.2, 4.2) uses in place of the
/// polyhedral model: less expressive — only axis-aligned boxes — but able to
/// bound a much wider class of expressions.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_ANALYSIS_INTERVAL_H
#define HALIDE_ANALYSIS_INTERVAL_H

#include "ir/Expr.h"
#include "ir/IREquality.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace halide {

/// A closed symbolic interval. An undefined endpoint means unbounded on that
/// side; Interval() is the "everything" interval.
struct Interval {
  Expr Min, Max;

  Interval() = default;
  Interval(Expr Min, Expr Max) : Min(Min), Max(Max) {}

  /// The degenerate interval containing exactly one point.
  static Interval single(Expr Point) { return Interval(Point, Point); }
  /// The unbounded interval.
  static Interval everything() { return Interval(); }

  bool hasLowerBound() const { return Min.defined(); }
  bool hasUpperBound() const { return Max.defined(); }
  bool isBounded() const { return hasLowerBound() && hasUpperBound(); }
  /// True if both bounds are defined and structurally identical.
  bool isSinglePoint() const;
  /// True if neither bound is defined.
  bool isEverything() const { return !Min.defined() && !Max.defined(); }

  /// Widens this interval to include \p Other (set union, conservatively).
  void include(const Interval &Other);
};

/// Union of two intervals (smallest interval containing both).
Interval intervalUnion(const Interval &A, const Interval &B);
/// Intersection of two intervals.
Interval intervalIntersection(const Interval &A, const Interval &B);

/// Counters for the bounds-sharing layer; read through Bounds::statistics().
struct BoundsStatistics {
  /// intern() found a structurally identical definition and reused its name.
  uint64_t CacheHits = 0;
  /// intern() recorded a new shared definition.
  uint64_t CacheMisses = 0;
  /// Endpoints small enough to duplicate instead of name.
  uint64_t EndpointsInlined = 0;
  /// Let nodes wrapped around results by materialize().
  uint64_t LetsEmitted = 0;
};

namespace detail {
/// The calling thread's counters behind Bounds::statistics(); reset
/// through Bounds::resetStatistics().
BoundsStatistics &boundsSharingCounters();
} // namespace detail

/// The hash-consing/memo layer under interval analysis. Every let binding
/// and loop range a bounds walk crosses registers its endpoint expressions
/// here; anything larger than a hand-countable expression is replaced by a
/// fresh Variable whose definition the ledger records, and structurally
/// identical values (keyed on their canonicalized form) resolve to the same
/// name. Intervals built on top of these names stay small no matter how
/// often an endpoint is reused, which is what keeps bounds inference
/// polynomial in pipeline depth: the repeated subtrees that used to grow
/// exponentially on deep pyramids (paper section 4.2) become references
/// into this ledger instead.
///
/// Expressions returned while a ledger is in play are "raw": they may
/// reference ledger names. materialize() makes them self-contained again by
/// wrapping them in Let definitions, emitted in creation order (a later
/// definition may reference an earlier one, never the reverse).
class ExprLedger {
public:
  /// Returns a stand-in for \p E: the expression itself when it is small
  /// enough that duplicating beats naming, otherwise a Variable bound to a
  /// ledger definition. Structurally identical values share one name (a
  /// cache hit). \p Hint seeds the generated name for readable IR.
  Expr shared(const Expr &E, const std::string &Hint);

  /// Endpoint-wise shared(); single-point intervals intern one definition
  /// and reference it from both ends. Undefined endpoints stay undefined.
  Interval shared(const Interval &I, const std::string &Hint);

  /// Wraps \p E in Let bindings for every ledger definition it transitively
  /// references, producing a self-contained expression.
  Expr materialize(const Expr &E) const;
  Interval materialize(const Interval &I) const;

  /// Rewrites every recorded definition through the given substitution
  /// (bounds inference resolves a stage's self-referential region
  /// variables this way). Invalidates the structural memo.
  void substituteInDefs(const std::map<std::string, Expr> &Bindings);

  bool contains(const std::string &Name) const {
    return IndexByName.count(Name) != 0;
  }

  /// Definitions in creation order.
  const std::vector<std::pair<std::string, Expr>> &defs() const {
    return Defs;
  }
  /// The definitions \p Roots reference, directly or through other
  /// definitions, in creation order.
  std::vector<std::pair<std::string, Expr>>
  defsUsedBy(const std::vector<Expr> &Roots) const;

  /// True when \p E is cheaper to duplicate at each use site than to bind
  /// to a name (node count at or under a small threshold). Exposed so
  /// passes that pattern-match bounds expressions can predict which values
  /// the sharing layer leaves inline.
  static bool smallEnoughToInline(const Expr &E);

private:
  std::string intern(const Expr &E, const std::string &Hint);

  std::vector<std::pair<std::string, Expr>> Defs;
  std::map<std::string, size_t> IndexByName;
  std::map<Expr, std::string, ExprCompare> Memo;
};

/// A multidimensional box: one interval per dimension. The unit of region
/// reasoning in bounds inference ("axis-aligned bounding regions", paper
/// section 3.2).
struct Box {
  std::vector<Interval> Dims;

  Box() = default;
  explicit Box(size_t N) : Dims(N) {}

  size_t size() const { return Dims.size(); }
  bool empty() const { return Dims.empty(); }
  Interval &operator[](size_t I) { return Dims[I]; }
  const Interval &operator[](size_t I) const { return Dims[I]; }

  /// Dimension-wise union, resizing to the larger rank.
  void include(const Box &Other);
};

} // namespace halide

#endif // HALIDE_ANALYSIS_INTERVAL_H
