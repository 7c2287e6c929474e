//===-- codegen/Jit.cpp ---------------------------------------------------===//

#include "codegen/Jit.h"
#include "codegen/CodeGenC.h"
#include "runtime/Buffer.h"
#include "runtime/GpuSim.h"

#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <unistd.h>

using namespace halide;

int CompiledPipeline::run(const ParamBindings &Params,
                          ExecutionStats *Stats) const {
  internal_assert(Fn) << "run of invalid CompiledPipeline";
  std::vector<void *> Bufs;
  std::vector<int64_t> IntArgs;
  std::vector<double> FloatArgs;

  for (const BufferArg &Arg : P.Buffers) {
    const RawBuffer &Raw = Params.buffer(Arg.Name);
    user_assert(Raw.defined()) << "buffer " << Arg.Name << " is unbound";
    user_assert(Raw.ElemType == Arg.ElemType)
        << "buffer " << Arg.Name << " has element type "
        << Raw.ElemType.str() << ", pipeline expects " << Arg.ElemType.str();
    user_assert(Raw.Dim[0].Stride == 1)
        << "buffer " << Arg.Name
        << " must be dense in dimension 0 (stride 1)";
    Bufs.push_back(Raw.Host);
    for (int D = 0; D < MaxBufferDims; ++D) {
      if (D < Raw.Dimensions) {
        IntArgs.push_back(Raw.Dim[D].Min);
        IntArgs.push_back(Raw.Dim[D].Extent);
        IntArgs.push_back(Raw.Dim[D].Stride);
      } else {
        IntArgs.push_back(0);
        IntArgs.push_back(1);
        IntArgs.push_back(0);
      }
    }
  }
  for (const ScalarArg &Arg : P.Scalars) {
    double Value;
    user_assert(Params.lookupScalar(Arg.Name, &Value))
        << "scalar parameter " << Arg.Name << " is unbound";
    if (Arg.ArgType.isFloat())
      FloatArgs.push_back(Value);
    else
      IntArgs.push_back(int64_t(Value));
  }
  // Never pass null array pointers.
  IntArgs.push_back(0);
  FloatArgs.push_back(0);

  // On the GpuSim target, report the run's launch statistics as the delta
  // of the process-wide device counters (runs are serialized per device).
  GpuStats Before;
  if (T.TargetBackend == Backend::GpuSim && Stats)
    Before = gpuSim().stats();
  int Rc = Fn(runtimeVTable(), Bufs.data(), IntArgs.data(), FloatArgs.data());
  if (T.TargetBackend == Backend::GpuSim && Stats) {
    const GpuStats &After = gpuSim().stats();
    Stats->GpuKernelLaunches = After.KernelLaunches - Before.KernelLaunches;
    Stats->GpuBlocksExecuted = After.BlocksExecuted - Before.BlocksExecuted;
  }
  return Rc;
}

namespace {

/// Owns one compile's $TMPDIR/hl_jit_XXXXXX scratch directory (/tmp when
/// TMPDIR is unset). The destructor removes the known artifacts and the
/// directory on every exit path — concurrent serving compiles many
/// pipelines, so leaked scratch dirs would otherwise accumulate per frame
/// shape. keep() disarms the cleanup when the host compiler fails,
/// preserving the generated source the error message points at.
class JitTempDir {
public:
  JitTempDir() {
    std::string Template = tempDirectory() + "/hl_jit_XXXXXX";
    user_assert(mkdtemp(Template.data()))
        << "could not create JIT temp directory " << Template;
    Dir = Template.c_str(); // an interposed mkdtemp may shorten the path
  }
  ~JitTempDir() {
    if (Kept)
      return;
    std::remove(path("pipeline.c").c_str());
    std::remove(path("cc.log").c_str());
    std::remove(path("pipeline.so").c_str());
    rmdir(Dir.c_str());
  }
  JitTempDir(const JitTempDir &) = delete;
  JitTempDir &operator=(const JitTempDir &) = delete;

  std::string path(const char *Name) const { return Dir + "/" + Name; }
  void keep() { Kept = true; }

private:
  std::string Dir;
  bool Kept = false;
};

/// \p S as one single-quoted shell word.
std::string shellQuote(const std::string &S) {
  std::string Quoted = "'";
  for (char C : S)
    Quoted += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Quoted + "'";
}

} // namespace

std::shared_ptr<CompiledPipeline> halide::jitCompile(const LoweredPipeline &P,
                                                     const Target &T) {
  user_assert(T.usesJit()) << "jitCompile on an interpreter Target";
  std::shared_ptr<CompiledPipeline> Result(new CompiledPipeline(P, T));

  std::string FnName = "hl_pipeline";
  Result->Source = codegenC(P, FnName);

  JitTempDir Temp;
  std::string CPath = Temp.path("pipeline.c");
  std::string SoPath = Temp.path("pipeline.so");
  {
    std::ofstream Out(CPath);
    Out << Result->Source;
  }

  // -ffp-contract=off keeps float results bit-identical across schedules
  // (FMA contraction would otherwise round differently per loop shape),
  // preserving the paper's "all valid schedules generate correct code"
  // property at the bit level.
  std::string Cmd = "cc -O3 -march=native -fno-math-errno "
                    "-ffp-contract=off -fPIC -shared " +
                    T.JitFlags + " -o " + shellQuote(SoPath) + " " +
                    shellQuote(CPath) + " -lm 2> " +
                    shellQuote(Temp.path("cc.log"));
  int Rc = std::system(Cmd.c_str());
  if (Rc != 0) {
    std::string Log;
    {
      std::ifstream In(Temp.path("cc.log"));
      std::string Line;
      while (std::getline(In, Line))
        Log += Line + "\n";
    }
    Temp.keep();
    user_error << "host C compiler failed on generated code:\n"
               << Log << "\nsource left at " << CPath;
  }

  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  user_assert(Handle) << "dlopen failed: " << dlerror();
  Result->Handle = std::shared_ptr<void>(Handle, [](void *H) { dlclose(H); });
  Result->Fn = reinterpret_cast<CompiledPipeline::EntryPoint>(
      dlsym(Handle, FnName.c_str()));
  user_assert(Result->Fn) << "generated entry point not found";

  // The artifacts can be removed once loaded (Temp's destructor); the
  // source stays in memory on the CompiledPipeline.
  return Result;
}
