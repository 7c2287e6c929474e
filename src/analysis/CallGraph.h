//===-- analysis/CallGraph.h - Pipeline environment & order -----*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the environment of all Functions reachable from a pipeline's
/// output and a realization order (reverse topological: producers before
/// consumers). Lowering walks this order from the output inward (paper
/// section 4.1); the autotuner walks it to enumerate schedules.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_ANALYSIS_CALLGRAPH_H
#define HALIDE_ANALYSIS_CALLGRAPH_H

#include "lang/Function.h"
#include "lang/Param.h"

#include <map>
#include <string>
#include <vector>

namespace halide {

/// All functions reachable from \p Output (including Output), keyed by name,
/// found through the stages their calls hold (Call::Callee). When \p Params
/// is given, it receives the parameters those stages' definitions and
/// schedules read, keyed by name. Two different stages, or two different
/// parameters, with one name are a user error.
std::map<std::string, Function>
buildEnvironment(const Function &Output,
                 std::map<std::string, ParameterPtr> *Params = nullptr);

/// Producers-before-consumers order over the environment; Output is last.
/// Asserts the call graph is acyclic.
std::vector<std::string> realizationOrder(
    const Function &Output, const std::map<std::string, Function> &Env);

/// Names of the Funcs (CallType::Halide) called directly by \p F's
/// definitions (pure and updates), excluding itself.
std::vector<std::string> directCallees(const Function &F);

/// Number of distinct call sites (distinct argument vectors) per callee in
/// \p F's definitions. A callee consumed at a single site is pointwise:
/// inlining it into F duplicates no work, whereas inlining a stage read
/// through a multi-point stencil multiplies its cost by the site count
/// (and chains of such inlinings compound exponentially, e.g. across an
/// image pyramid's downsample stages).
std::map<std::string, int> calleeSiteCounts(const Function &F);

/// Counts the stencil stages of a pipeline: stages that read a neighborhood
/// (more than one distinct point) of at least one producer. Reproduces the
/// "# stencils" column of the paper's Figure 6.
int countStencils(const Function &Output);

} // namespace halide

#endif // HALIDE_ANALYSIS_CALLGRAPH_H
