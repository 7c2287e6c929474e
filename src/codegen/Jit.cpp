//===-- codegen/Jit.cpp ---------------------------------------------------===//

#include "codegen/Jit.h"
#include "codegen/CodeGenC.h"
#include "runtime/GpuSim.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <fcntl.h>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace halide;

int CompiledPipeline::execute(const BoundArgs &Args, int MaxTasks,
                              ExecutionStats *Stats) const {
  // The run gets its own copy of the vtable carrying its own GPU counters
  // and chunk budget: generated code credits every launch to the `rt` it
  // was handed, so concurrent frames never see each other's launches, and
  // sizes every parallel loop and launch by rt->MaxTasks.
  GpuCounters Gpu;
  RuntimeVTable Rt = *runtimeVTable();
  Rt.GpuRun = &Gpu;
  Rt.MaxTasks = MaxTasks;
  int Rc = Fn(&Rt, Args.Bufs.data(), Args.IntArgs.data(),
              Args.FloatArgs.data());
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

/// Runs the host C compiler with \p Args (argv[0] included), its stderr
/// written to \p LogPath. No shell runs, so each argument reaches cc
/// as one word whatever it contains. Returns whether cc exited with
/// status 0; aborts if it could not be started.
bool runHostCompiler(const std::vector<std::string> &Args,
                     const std::string &LogPath) {
  std::vector<char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid;
  posix_spawn_file_actions_t Actions;
  int Err = posix_spawn_file_actions_init(&Actions);
  if (Err == 0) {
    Err = posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO,
                                           LogPath.c_str(),
                                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Err == 0)
      Err = posix_spawnp(&Pid, Argv[0], &Actions, nullptr, Argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&Actions);
  }
  user_assert(Err == 0) << "could not start the host C compiler " << Args[0]
                        << ": " << std::strerror(Err);
  int Status;
  while (waitpid(Pid, &Status, 0) < 0)
    user_assert(errno == EINTR)
        << "waiting for the host C compiler: " << std::strerror(errno);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

} // namespace

std::shared_ptr<CompiledPipeline> halide::jitCompile(const LoweredPipeline &P,
                                                     const Target &T) {
  user_assert(T.TargetBackend == Backend::JitC)
      << "jitCompile on a " << backendName(T.TargetBackend) << " Target";
  std::shared_ptr<CompiledPipeline> Result(new CompiledPipeline(P));

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
  // property at the bit level. -nostdlib links no crt files, libc or
  // libm: the source includes no header (CodeGenC's prelude), and its few
  // undefined symbols (memcpy, memset, libm) resolve against the host
  // process at dlopen. JitFlags come last, so they win.
  std::vector<std::string> Args = {
      "cc", "-O2", "-ftree-vectorize", "-fvect-cost-model=dynamic",
      "-march=native", "-fno-math-errno", "-ffp-contract=off", "-fPIC",
      "-shared", "-nostdlib"};
  std::istringstream Flags(T.JitFlags);
  for (std::string Flag; Flags >> Flag;)
    Args.push_back(Flag);
  Args.insert(Args.end(), {"-o", SoPath, CPath});
  std::string LogPath = Temp.path("cc.log");
  if (!runHostCompiler(Args, LogPath)) {
    std::string Log;
    {
      std::ifstream In(LogPath);
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
