//===-- analysis/Derivatives.h - Affine structure of exprs ------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variable-usage queries and an affine stride solver. The vectorizer uses
/// stride information to classify vector loads as dense, strided, or
/// gathers (paper section 4.5); storage folding uses it to verify that
/// footprints march at a constant rate.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_ANALYSIS_DERIVATIVES_H
#define HALIDE_ANALYSIS_DERIVATIVES_H

#include "ir/Expr.h"

#include <set>
#include <string>

namespace halide {

/// True if the variable named \p Var occurs free in \p E (Let bindings
/// shadow).
bool exprUsesVar(const Expr &E, const std::string &Var);

/// True if any of the variables in \p Vars occurs free in \p E.
bool exprUsesVars(const Expr &E, const std::set<std::string> &Vars);

/// Collects the names of all free variables in \p E.
std::set<std::string> freeVars(const Expr &E);

/// If \p E is affine in \p Var with a constant integer coefficient — i.e.
/// E = Stride * Var + (terms not using Var) — stores the coefficient and
/// returns true. Returns true with *Stride == 0 when E does not use Var.
bool affineStride(const Expr &E, const std::string &Var, int64_t *Stride);

} // namespace halide

#endif // HALIDE_ANALYSIS_DERIVATIVES_H
