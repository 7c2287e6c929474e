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
/// at the output buffer's metadata (section 4).
///
/// Each stage binds its stored region once, at its store level (the top of
/// the statement, or the top of one loop's body), after the stages stored
/// there that consume it, and its Realize names those lets. A stage stored
/// where it is computed stores its region, so its region lets are bound
/// there. A stage stored above its compute level keeps its region lets at
/// its produce node, where sliding window rewrites them, and binds
/// "f.stored_min.d" / "f.stored_extent.d": the region's union over the
/// loops between the two levels. Split dimensions round the stored region
/// up to the traversed (written) extent. A walk at a store level (the
/// consumer box of a stage stored where it is computed, an allocation over
/// the loops between two levels, and the input checks at the top) ranges
/// the coordinate "f.x" of every stage stored at that level over its
/// stored region instead of over its loop nest, so the result names the
/// stored region instead of deriving it again. Beneath the root lets, each
/// input image is asserted to cover the region read from it.
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
