//===-- codegen/Executable.cpp --------------------------------------------===//

#include "codegen/Executable.h"

#include "codegen/Jit.h"
#include "transforms/Instrument.h"
#include "vm/VmExecutable.h"

using namespace halide;

std::shared_ptr<const Executable> halide::makeExecutable(
    const LoweredPipeline &P, const Target &T) {
  // Observability instrumentation happens here, after the lowering cache:
  // profile-on / trace-on targets get instrumented copies of the shared
  // lowered pipeline, so the lowering fingerprint never changes and
  // off-target executables are built from byte-identical IR.
  LoweredPipeline Instrumented = instrument(P, T);
  if (T.TargetBackend == Backend::VmBytecode)
    return vmCompile(Instrumented, T);
  return jitCompile(Instrumented, T);
}
