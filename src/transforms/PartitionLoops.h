//===-- transforms/PartitionLoops.h - Clamp-free steady states --*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop partitioning for clamped boundary reads. The paper's applications
/// write boundary conditions as clamps inside the algorithm
/// (`In(clamp(x, 0, W-1), y)`); in a scalar innermost loop every iteration
/// then pays a min/max per tap, and the clamp hides a contiguous read from
/// the host compiler's vectorizer. This pass splits such a loop into a
/// prologue, a steady state and an epilogue, and drops the clamps from the
/// steady state, where they provably do nothing.
///
/// A serial innermost loop over x is partitioned when its body is scalar,
/// its min and extent read no memory, and a load in it reads at an index
/// containing a clamp (`max(min(e, hi), lo)`, either nesting, or one side
/// alone) of an affine `e = c*x + b` against loop-invariant bounds, and the
/// index has stride +-1 in x once those clamps are replaced by `e`.
/// Vectorized loops are left to the backends' clamped dense loads:
/// partitioning them too made tuned frames faster but cost 40-130% more
/// host-compiler time. Clamps whose read stays strided (a row index in a
/// column loop) are left in place: partitioning them cost host-compiler
/// time without making frames faster.
///
/// The three loops run in the original order over the original range, so
/// every load and store happens in the same order at the same address:
/// outputs, ExecutionStats and value traces are unchanged. The steady
/// range is computed once per loop entry, in 64-bit arithmetic so clamp
/// bounds at the int32 limits cannot overflow it.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_TRANSFORMS_PARTITIONLOOPS_H
#define HALIDE_TRANSFORMS_PARTITIONLOOPS_H

#include "ir/Expr.h"

namespace halide {

/// Partitions every eligible innermost loop of \p S (see file comment).
Stmt partitionLoops(const Stmt &S);

} // namespace halide

#endif // HALIDE_TRANSFORMS_PARTITIONLOOPS_H
