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
/// bound a much wider class of expressions. Endpoints stay small because
/// bounds inference writes each stage's region in its consumers' region
/// lets, so an interval names those lets instead of repeating their values.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_ANALYSIS_INTERVAL_H
#define HALIDE_ANALYSIS_INTERVAL_H

#include "ir/Expr.h"

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
