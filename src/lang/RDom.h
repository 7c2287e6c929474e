//===-- lang/RDom.h - Reduction domains -------------------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduction domains (paper section 2, "Reduction functions"): explicit
/// bounded iteration spaces over which update definitions recurse in
/// lexicographic order. An RDom's dimensions appear in update definitions
/// as RVars.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_RDOM_H
#define HALIDE_LANG_RDOM_H

#include "ir/Expr.h"

#include <string>
#include <vector>

namespace halide {

/// One dimension of a reduction domain.
struct ReductionVariable {
  std::string Name;
  Expr Min, Extent;
};

/// One dimension of an RDom. Converts to a Variable that carries the
/// dimension's bounds (Variable::ReductionMin/ReductionExtent), which is
/// how an update definition learns its reduction domain.
class RVar {
public:
  RVar() = default;
  explicit RVar(ReductionVariable Dim) : Dim(std::move(Dim)) {}

  const std::string &name() const { return Dim.Name; }
  operator Expr() const;

private:
  ReductionVariable Dim;
};

/// A multidimensional reduction domain. Dimensions are iterated in
/// lexicographic order, later dimensions innermost: for a 2-D RDom r,
/// r.y is the outer loop and r.x the inner one. An RDom named "r" names
/// its dimensions "r$x", "r$y"; an unnamed one takes a fresh name.
class RDom {
public:
  RDom() = default;

  /// 1-D domain over [Min, Min+Extent).
  RDom(Expr Min, Expr Extent, const std::string &Name = "");
  /// 2-D domain; (MinX, ExtentX) is dimension x, (MinY, ExtentY) is y.
  RDom(Expr MinX, Expr ExtentX, Expr MinY, Expr ExtentY,
       const std::string &Name = "");
  /// General constructor from explicit dimensions.
  explicit RDom(const std::vector<ReductionVariable> &Dims);

  bool defined() const { return !Dims.empty(); }
  size_t dimensions() const { return Dims.size(); }
  const std::vector<ReductionVariable> &domain() const { return Dims; }

  /// Dimension accessors in the style of the paper (r.x, r.y, ...).
  RVar x, y, z, w;

  /// 1-D RDoms convert directly to their single variable.
  operator Expr() const;
  operator RVar() const;

private:
  void initAccessors();
  std::vector<ReductionVariable> Dims;
};

} // namespace halide

#endif // HALIDE_LANG_RDOM_H
