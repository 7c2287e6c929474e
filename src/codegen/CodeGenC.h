//===-- codegen/CodeGenC.h - C source backend -------------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a lowered pipeline as a self-contained C99 translation unit
/// (DESIGN.md substitution 1: the host C compiler stands in for the paper's
/// LLVM backend). Vector IR is emitted through fixed-width vector structs
/// with per-lane helper functions that the host compiler re-vectorizes;
/// dense stride-1 ramp loads/stores become contiguous memcpys, strided and
/// gathered accesses are classified exactly as in paper section 4.5.
/// Parallel loops compile to closure structs plus a body function handed to
/// the runtime's work-stealing task scheduler (section 4.6); GPU block loops
/// compile to simulated-device kernel launches.
///
/// The generated entry point is:
///   int32_t <name>(const hl_vtable *rt, void **bufs,
///                  const int64_t *iargs, const double *fargs);
/// with buffers and metadata packed by codegen/Jit.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_CODEGEN_CODEGENC_H
#define HALIDE_CODEGEN_CODEGENC_H

#include "transforms/Lower.h"

#include <string>

namespace halide {

/// Renders the complete C source for \p P. \p FnName must be a valid C
/// identifier.
std::string codegenC(const LoweredPipeline &P, const std::string &FnName);

} // namespace halide

#endif // HALIDE_CODEGEN_CODEGENC_H
