//===-- transforms/Lower.h - The lowering driver ----------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the full compilation of a scheduled pipeline into an imperative
/// statement, in the paper's pass order (Figure 5): loop synthesis, bounds
/// inference, sliding window optimization and storage folding, flattening,
/// vectorization and unrolling, then simplification. The result plus its
/// argument signature is what the back ends consume.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_TRANSFORMS_LOWER_H
#define HALIDE_TRANSFORMS_LOWER_H

#include "lang/Function.h"
#include "lang/Target.h"

#include <map>
#include <string>
#include <vector>

namespace halide {

/// A buffer argument of the compiled pipeline.
struct BufferArg {
  std::string Name;
  Type ElemType;
  int Dimensions = 0;
  bool IsOutput = false;
};

/// A scalar argument of the compiled pipeline.
struct ScalarArg {
  std::string Name;
  Type ArgType;
};

/// A fully lowered pipeline: the statement plus its argument signature.
/// It holds no stage: a cached lowering keeps no Function, and so no
/// parameter or bound image, alive.
struct LoweredPipeline {
  /// The output stage's name.
  std::string Name;
  Stmt Body;
  /// Buffer arguments: the output buffer first, then input images in name
  /// order. Metadata parameters "<name>.min.<d>" / ".extent.<d>" /
  /// ".stride.<d>" are bound from these buffers.
  std::vector<BufferArg> Buffers;
  /// User scalar parameters, in name order.
  std::vector<ScalarArg> Scalars;
  /// The number of update definitions of each stage that has any, by
  /// name (instrument() brackets each update as its own sub-stage).
  std::map<std::string, size_t> UpdateCounts;
};

/// Lowers the pipeline producing \p Output. Only the Target's feature
/// flags steer lowering; the backend choice is applied later, when the
/// lowered pipeline is handed to a back end (codegen/Executable.h).
LoweredPipeline lower(const Function &Output, const Target &T = Target());

} // namespace halide

#endif // HALIDE_TRANSFORMS_LOWER_H
