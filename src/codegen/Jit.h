//===-- codegen/Jit.h - Compile-and-load native pipelines -------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JIT execution of lowered pipelines: the C backend's output is compiled
/// with the host C compiler into a shared object and loaded with dlopen
/// (DESIGN.md substitution 1 for the paper's LLVM JIT). The entry point
/// receives the runtime vtable, so the shared object is self-contained:
/// it is linked without libc, and its few library calls (memcpy, memset,
/// libm) bind to the host process when it is loaded.
/// CompiledPipeline implements the common Executable interface. GPU-block
/// loops launch on the simulated device (runtime/GpuSim.h), and each run
/// reports its own launch statistics through ExecutionStats.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_CODEGEN_JIT_H
#define HALIDE_CODEGEN_JIT_H

#include "codegen/Executable.h"

#include <memory>
#include <string>

namespace halide {

/// A natively compiled pipeline, ready to run.
class CompiledPipeline final : public Executable {
public:
  /// Executes the pipeline; all buffers and scalars must be bound in
  /// \p Params. Returns the pipeline's exit code (0 on success). \p Stats
  /// receives this run's simulated-GPU kernel launches and blocks.
  int run(const ParamBindings &Params,
          ExecutionStats *Stats = nullptr) const override;

  /// The generated C source (for inspection and tests).
  const std::string &source() const override { return Source; }

private:
  friend std::shared_ptr<CompiledPipeline> jitCompile(const LoweredPipeline &,
                                                      const Target &);

  CompiledPipeline(LoweredPipeline P, Target T)
      : Executable(std::move(P), std::move(T)) {}

  using EntryPoint = int32_t (*)(const RuntimeVTable *, void **,
                                 const int64_t *, const double *);

  std::shared_ptr<void> Handle; // dlopen handle, closed on destruction
  EntryPoint Fn = nullptr;
  std::string Source;
};

/// Emits C for \p P, compiles it with the host compiler (\p T.JitFlags,
/// split on whitespace, follow the default flags), and loads it. Aborts
/// (user_error) if the host compiler fails, with its diagnostics.
std::shared_ptr<CompiledPipeline> jitCompile(const LoweredPipeline &P,
                                             const Target &T = Target::jit());

} // namespace halide

#endif // HALIDE_CODEGEN_JIT_H
