//===-- codegen/Executable.cpp --------------------------------------------===//

#include "codegen/Executable.h"

#include "codegen/Jit.h"
#include "transforms/Instrument.h"
#include "vm/VmExecutable.h"

using namespace halide;

BoundArgs halide::bindArguments(const LoweredPipeline &P,
                                const ParamBindings &Params) {
  BoundArgs Args;
  Args.IntArgs.resize(
      size_t(LoweredPipeline::metadataSlot(P.Buffers.size(), 0)));
  for (size_t I = 0; I < P.Buffers.size(); ++I) {
    const BufferArg &Arg = P.Buffers[I];
    const char *Role = Arg.IsOutput ? "output buffer '" : "input buffer '";
    const RawBuffer *B = Params.buffer(Arg.Name);
    user_assert(B && B->defined())
        << (Arg.IsOutput ? "output buffer '" : "input image '") << Arg.Name
        << "' is unbound: "
        << (Arg.IsOutput ? "realize into it"
                         : "call ImageParam::set(buffer) before realize")
        << ", or bind it explicitly in the ParamBindings";
    user_assert(B->ElemType == Arg.ElemType)
        << Role << Arg.Name << "' has element type " << B->ElemType.str()
        << " but the pipeline expects " << Arg.ElemType.str();
    user_assert(B->Dimensions == Arg.Dimensions)
        << Role << Arg.Name << "' is " << B->Dimensions
        << "-dimensional but the pipeline expects " << Arg.Dimensions
        << " dimensions";
    user_assert(B->Dim[0].Stride == 1)
        << Role << Arg.Name << "' must be dense in dimension 0 (stride 1)";
    Args.Bufs.push_back(B->Host);
    int64_t MaxIndex = 0;
    for (int D = 0; D < MaxBufferDims; ++D) {
      // A dimension past the rank is [0, 1).
      const BufferDim Dim = D < B->Dimensions ? B->Dim[D] : BufferDim{0, 1, 0};
      int64_t *Meta =
          &Args.IntArgs[size_t(LoweredPipeline::metadataSlot(I, D))];
      Meta[0] = Dim.Min;
      Meta[1] = Dim.Extent;
      Meta[2] = Dim.Stride;
      MaxIndex += int64_t(Dim.Extent - 1) * Dim.Stride;
    }
    Args.BufElems.push_back(MaxIndex + 1);
  }

  const std::vector<ArgSlot> Slots = P.scalarSlots();
  for (size_t I = 0; I < P.Scalars.size(); ++I) {
    const ScalarArg &Arg = P.Scalars[I];
    const int64_t *Int = Params.intScalar(Arg.Name);
    const double *Float = Params.floatScalar(Arg.Name);
    user_assert(Int || Float)
        << "scalar parameter '" << Arg.Name
        << "' is unbound: call set() on its Param before realize, or bind "
           "it explicitly in the ParamBindings";
    user_assert(Slots[I].IsFloat ? Float != nullptr : Int != nullptr)
        << "scalar parameter '" << Arg.Name << "' is bound to "
        << (Int ? "an integer" : "a float") << " but the pipeline expects "
        << Arg.ArgType.str();
    if (Slots[I].IsFloat)
      Args.FloatArgs.push_back(*Float);
    else
      Args.IntArgs.push_back(*Int);
  }
  return Args;
}

int Executable::run(const ParamBindings &Params, ExecutionStats *Stats,
                    int NumThreads) const {
  return execute(bindArguments(P, Params), taskChunkBudget(NumThreads),
                 Stats);
}

std::shared_ptr<const Executable> halide::makeExecutable(
    const LoweredPipeline &P, const Target &T) {
  user_assert(T.NumThreads == 0)
      << "cannot compile " << P.Name << " for a thread request ("
      << T.str() << "): pass the request to Executable::run";
  // Observability instrumentation happens here, after the lowering cache:
  // profile-on / trace-on targets get instrumented copies of the shared
  // lowered pipeline, so the lowering fingerprint never changes and
  // off-target executables are built from byte-identical IR.
  LoweredPipeline Instrumented = instrument(P, T);
  if (T.TargetBackend == Backend::VmBytecode)
    return vmCompile(Instrumented);
  return jitCompile(Instrumented, T);
}
