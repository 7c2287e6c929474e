//===-- codegen/Executable.cpp --------------------------------------------===//

#include "codegen/Executable.h"

#include "codegen/Interpreter.h"
#include "codegen/Jit.h"
#include "transforms/Instrument.h"
#include "vm/VmExecutable.h"

using namespace halide;

const std::string &Executable::source() const {
  static const std::string Empty;
  return Empty;
}

namespace {

/// The interpreter backend: no compilation, just a handle that walks the
/// lowered statement on every run. Pipeline assertions abort via
/// user_error, so a completed run always returns 0.
class InterpretedPipeline final : public Executable {
public:
  InterpretedPipeline(LoweredPipeline P, Target T)
      : Executable(std::move(P), std::move(T)) {}

  int run(const ParamBindings &Params,
          ExecutionStats *Stats) const override {
    ExecutionStats S = interpret(P, Params);
    if (Stats)
      *Stats = std::move(S);
    return 0;
  }
};

} // namespace

std::shared_ptr<const Executable> halide::makeExecutable(
    const LoweredPipeline &P, const Target &T) {
  // Observability instrumentation happens here, after the lowering cache:
  // profile-on / trace-on targets get instrumented copies of the shared
  // lowered pipeline, so the lowering fingerprint never changes and
  // off-target executables are built from byte-identical IR.
  LoweredPipeline Instrumented = instrument(P, T);
  if (T.TargetBackend == Backend::Interpreter)
    return std::make_shared<InterpretedPipeline>(std::move(Instrumented), T);
  if (T.TargetBackend == Backend::VmBytecode)
    return vmCompile(Instrumented, T);
  return jitCompile(Instrumented, T);
}
