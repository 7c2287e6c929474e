//===-- codegen/Interpreter.h - Reference executor --------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct tree-walking executor for lowered pipeline statements: the
/// semantic reference the two engines (the bytecode VM and the C backend)
/// are tested against. It is no Target backend; the tests and the
/// differential harness call interpret() directly, after instrument() when
/// they trace or profile. It gathers the same execution statistics as the
/// VM (stores per buffer, peak memory, parallel iterations). Execution is
/// serial and deterministic; parallel loop types are counted, not
/// threaded.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_CODEGEN_INTERPRETER_H
#define HALIDE_CODEGEN_INTERPRETER_H

#include "runtime/ExecutionStats.h"
#include "runtime/Runtime.h"
#include "transforms/Lower.h"

namespace halide {

/// Executes a lowered pipeline against concrete parameter bindings,
/// returning execution statistics. Aborts (via user_error) on failed
/// pipeline assertions or out-of-bounds accesses.
ExecutionStats interpret(const LoweredPipeline &P,
                         const ParamBindings &Params);

} // namespace halide

#endif // HALIDE_CODEGEN_INTERPRETER_H
