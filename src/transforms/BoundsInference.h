//===-- transforms/BoundsInference.h - Region inference ---------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounds inference (paper section 4.2): for every Realize node, computes
/// the region of the function required by its consumers (plus the region its
/// own update stages touch) using interval analysis, and binds it as
/// "f.min.d" / "f.extent.d" lets. Stages are processed consumers-first, so
/// each region is written in its consumers' region variables, bottoming out
/// at the output buffer's metadata (section 4). A stage computed outside
/// every loop binds its region once, at the top of the statement, and
/// allocates exactly that; any other stage binds its region at its produce
/// site and allocates it bounded over the loops between its storage and
/// compute levels. Split dimensions round allocations up to the traversed
/// (written) extent. Beneath the root regions, each input image is asserted
/// to cover the region read from it.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_TRANSFORMS_BOUNDSINFERENCE_H
#define HALIDE_TRANSFORMS_BOUNDSINFERENCE_H

#include "lang/Function.h"

#include <map>
#include <set>
#include <string>

namespace halide {

/// Runs bounds inference over the scheduled pipeline statement. \p Env maps
/// function names to Functions (for split/roundup information); \p Images
/// names the input images whose coverage is asserted.
Stmt boundsInference(const Stmt &S,
                     const std::map<std::string, Function> &Env,
                     const std::set<std::string> &Images);

} // namespace halide

#endif // HALIDE_TRANSFORMS_BOUNDSINFERENCE_H
