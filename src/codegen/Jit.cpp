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
    checkBoundaryBuffer(Arg.Name, Raw, Arg.ElemType);
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

  // The run gets its own copy of the vtable carrying its own GPU counters
  // and its Target's chunk budget: generated code credits every launch to
  // the `rt` it was handed, so concurrent frames never see each other's
  // launches, and sizes every parallel loop and launch by rt->MaxTasks.
  GpuCounters Gpu;
  RuntimeVTable Rt = *runtimeVTable();
  Rt.GpuRun = &Gpu;
  Rt.MaxTasks = taskChunkBudget(T.NumThreads);
  int Rc = Fn(&Rt, Bufs.data(), IntArgs.data(), FloatArgs.data());
  if (Stats) {
    ExecutionStats S;
    S.GpuKernelLaunches = Gpu.KernelLaunches;
    S.GpuBlocksExecuted = Gpu.BlocksExecuted;
    *Stats = std::move(S);
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
  user_assert(T.TargetBackend == Backend::JitC)
      << "jitCompile on a " << backendName(T.TargetBackend) << " Target";
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

  // The schedule already made the loop decisions, so -O2 rather than -O3:
  // -O3 made tuned programs' object code up to 2.3x larger and some of
  // them slower. The explicit vectorizer with -O3's dynamic cost model
  // keeps the auto-vectorized clamp-free loops that breadth-first
  // schedules rely on (GCC's -O2 default cost model drops them).
  // -ffp-contract=off keeps float results bit-identical across schedules
  // (FMA contraction would otherwise round differently per loop shape),
  // preserving the paper's "all valid schedules generate correct code"
  // property at the bit level. JitFlags come last, so they win.
  std::string Cmd = "cc -O2 -ftree-vectorize -fvect-cost-model=dynamic "
                    "-march=native -fno-math-errno "
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
