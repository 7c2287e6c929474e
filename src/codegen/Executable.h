//===-- codegen/Executable.h - Common backend interface ---------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between the compiler and the back ends: an Executable is a
/// lowered pipeline made runnable, either as bytecode for the VM or as
/// native code from the C-source JIT. A run's buffers, scalars and thread
/// request are passed to run(), never compiled in, so Pipeline::compile
/// caches one Executable per program and runs it over many frames (paper
/// section 4, Figure 5). run() binds the arguments in one step for both
/// engines (bindArguments), which then read only the packed arguments.
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
#include <vector>

namespace halide {

/// One run's arguments in the layout LoweredPipeline defines, plus each
/// buffer's size in elements for executors that bounds-check.
struct BoundArgs {
  std::vector<void *> Bufs;
  std::vector<int64_t> IntArgs;
  std::vector<double> FloatArgs;
  std::vector<int64_t> BufElems;
};

/// Checks \p Params against \p P's signature and packs them. Every buffer
/// must be bound, of the pipeline's element type and rank, and dense in
/// dimension 0; every scalar must be bound as the integer or float the
/// pipeline declares. Fails with a user_error naming the argument.
BoundArgs bindArguments(const LoweredPipeline &P, const ParamBindings &Params);

/// A compiled pipeline, ready to run any number of times. All buffers
/// (output and inputs) and scalar parameters must be bound in the
/// ParamBindings passed to run(); Pipeline::realize builds those bindings
/// from Param<T>/ImageParam values automatically.
class Executable {
public:
  virtual ~Executable() = default;

  /// Binds \p Params and executes the pipeline. Returns its exit code (0
  /// on success; nonzero when a pipeline assertion failed on a backend
  /// that reports through the exit code). When \p Stats is non-null it
  /// receives whatever counters the backend gathers (the VM: stores,
  /// loads, peak memory, span; the JIT: this run's simulated-GPU
  /// launches). \p NumThreads is the run's thread request (taskChunkBudget
  /// in runtime/TaskScheduler.h): 0 the pool's size, 1 serial.
  int run(const ParamBindings &Params, ExecutionStats *Stats = nullptr,
          int NumThreads = 0) const;

  /// The generated source for inspection: the VM's disassembly or the
  /// JIT's C.
  virtual const std::string &source() const = 0;

  const LoweredPipeline &pipeline() const { return P; }

protected:
  explicit Executable(LoweredPipeline P) : P(std::move(P)) {}

  /// Executes on bound arguments, with \p MaxTasks chunks per parallel
  /// loop.
  virtual int execute(const BoundArgs &Args, int MaxTasks,
                      ExecutionStats *Stats) const = 0;

  LoweredPipeline P;
};

/// Makes \p P runnable on the backend \p T names. JitC invokes the host C
/// compiler (aborts via user_error if it fails); VmBytecode compiles the
/// IR to bytecode in-process. \p T may carry no thread request.
std::shared_ptr<const Executable> makeExecutable(const LoweredPipeline &P,
                                                 const Target &T);

} // namespace halide

#endif // HALIDE_CODEGEN_EXECUTABLE_H
