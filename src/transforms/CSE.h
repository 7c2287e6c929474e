//===-- transforms/CSE.h - Common subexpression elimination -----*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifts repeated non-trivial subexpressions into Let bindings. Mainly
/// benefits the reference interpreter (a C compiler re-does CSE on the
/// generated source); run near the end of lowering.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_TRANSFORMS_CSE_H
#define HALIDE_TRANSFORMS_CSE_H

#include "ir/Expr.h"

namespace halide {

/// Eliminates common subexpressions within every statement-level
/// expression in \p S.
Stmt cse(const Stmt &S);

} // namespace halide

#endif // HALIDE_TRANSFORMS_CSE_H
