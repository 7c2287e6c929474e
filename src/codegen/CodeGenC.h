//===-- codegen/CodeGenC.h - C source backend -------------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a lowered pipeline as a self-contained C99 translation unit
/// (DESIGN.md substitution 1: the host C compiler stands in for the paper's
/// LLVM backend). Vector IR is emitted as GCC/clang native vectors through
/// small helper functions; a lane count that is not a power of two is
/// held in the native vector of the next one, whose extra lanes no load,
/// store or trace event touches. Each vector load index is classified as
/// in paper section 4.5: dense and reversed ramps become contiguous loads,
/// stride ±2 ramps two overlapping loads and a shuffle, clamped stride
/// ±1/±2 ramps a dense or shuffled load guarded by an inline interior
/// test (the edge groups load exactly their span and shuffle it), and
/// anything else a gather, the AVX2 gather instruction for 4 or 8 native
/// lanes of 32 bits where the host compiler targets AVX2.
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

/// The vector loads of C that codegenC emitted, by the shape each index
/// was classified as, counted from the helper calls outside the helper
/// definitions: gathers (`_gather_`), clamped loads (`_load_clamped`, any
/// stride) and strided loads (`_load_s2`, `_load_rev_s2`, or
/// `_load_strided` for any other stride). Dense loads are not counted.
struct VectorLoadCounts {
  int Gathers = 0, Clamped = 0, Strided = 0;
};
VectorLoadCounts countVectorLoads(const std::string &Source);

} // namespace halide

#endif // HALIDE_CODEGEN_CODEGENC_H
