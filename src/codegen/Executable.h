//===-- codegen/Executable.h - Common backend interface ---------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between the compiler and the back ends: an Executable is a
/// lowered pipeline made runnable for one Target, whether by the reference
/// interpreter, the bytecode VM, or native code from the C-source JIT.
/// Pipeline::compile
/// caches Executables by schedule fingerprint so a pipeline is compiled
/// once and run over many frames (paper section 4, Figure 5).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_CODEGEN_EXECUTABLE_H
#define HALIDE_CODEGEN_EXECUTABLE_H

#include "lang/Target.h"
#include "runtime/ExecutionStats.h"
#include "runtime/Runtime.h"
#include "transforms/Lower.h"

#include <memory>
#include <string>

namespace halide {

/// A pipeline compiled for a concrete Target, ready to run any number of
/// times. All buffers (output and inputs) and scalar parameters must be
/// bound in the ParamBindings passed to run(); Pipeline::realize builds
/// those bindings from Param<T>/ImageParam values automatically.
class Executable {
public:
  virtual ~Executable() = default;

  /// Executes the pipeline. Returns the pipeline's exit code (0 on
  /// success; nonzero when a pipeline assertion failed on a backend that
  /// reports through the exit code). When \p Stats is non-null it receives
  /// whatever counters the backend gathers (the interpreter: stores,
  /// loads, peak memory; GpuSim: kernel launches).
  virtual int run(const ParamBindings &Params,
                  ExecutionStats *Stats = nullptr) const = 0;

  /// The generated source for inspection, empty for backends that do not
  /// generate any (the interpreter).
  virtual const std::string &source() const;

  const LoweredPipeline &pipeline() const { return P; }
  const Target &target() const { return T; }

protected:
  Executable(LoweredPipeline P, Target T) : P(std::move(P)), T(std::move(T)) {}

  LoweredPipeline P;
  Target T;
};

/// Makes \p P runnable on the backend \p T names. For JitC/GpuSim this
/// invokes the host C compiler (aborts via user_error if it fails);
/// VmBytecode compiles the IR to bytecode in-process; the interpreter
/// backend returns a thin wrapper with no compile cost.
std::shared_ptr<const Executable> makeExecutable(const LoweredPipeline &P,
                                                 const Target &T);

} // namespace halide

#endif // HALIDE_CODEGEN_EXECUTABLE_H
