//===-- transforms/ScheduleFunctions.h - Loop synthesis ---------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop synthesis (paper section 4.1): builds the loop nest realizing each
/// function according to its schedule's domain order, and recursively
/// injects the storage (Realize) and computation (ProducerConsumer) of each
/// non-inlined function at the loop levels given by its call schedule.
///
/// Loop bounds are left as symbolic variables ("f.v.loop_min" etc.) defined
/// by LetStmts in terms of the function's required-region variables
/// ("f.min.d", "f.extent.d"), which the subsequent bounds inference pass
/// (section 4.2) defines. Split dimensions round the traversed domain up to
/// the next multiple of the split factor, exactly as the paper describes.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_TRANSFORMS_SCHEDULEFUNCTIONS_H
#define HALIDE_TRANSFORMS_SCHEDULEFUNCTIONS_H

#include "lang/Function.h"

#include <map>
#include <string>
#include <vector>

namespace halide {

/// Canonical name of the loop variable for dimension \p Var of \p Func.
inline std::string loopVarName(const std::string &Func,
                               const std::string &Var) {
  return Func + "." + Var;
}

/// Names of the required-region variables of dimension \p D of \p Func.
inline std::string funcMinName(const std::string &Func, int D) {
  return Func + ".min." + std::to_string(D);
}
inline std::string funcExtentName(const std::string &Func, int D) {
  return Func + ".extent." + std::to_string(D);
}

/// Builds the complete initial statement for the pipeline: the output
/// function's loop nest with every non-inlined function's Realize and
/// produce/consume nest injected at its scheduled levels. Calls to inlined
/// functions remain as Call nodes (resolved by the inline pass).
Stmt scheduleFunctions(const Function &Output,
                       const std::vector<std::string> &Order,
                       const std::map<std::string, Function> &Env);

/// Builds just the produce/update loop nest for one function (used by
/// scheduleFunctions and by tests).
Stmt buildProduceNest(const Function &F);

/// The extent actually written for dimension \p D when the loops of \p F
/// traverse a required extent of \p RequiredExtent: the product of leaf
/// loop extents after all splits, i.e. the round-up the paper describes.
Expr writtenExtent(const Function &F, int D, Expr RequiredExtent);

/// True if \p S contains the produce node of \p Name. The search stops at
/// the first one and skips let values, loop bounds and stage values, so
/// asking about a subtree that holds a stage's produce node does not also
/// walk its consumers.
bool containsProduceOf(const Stmt &S, const std::string &Name);

} // namespace halide

#endif // HALIDE_TRANSFORMS_SCHEDULEFUNCTIONS_H
