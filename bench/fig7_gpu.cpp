//===-- bench/fig7_gpu.cpp - Paper Figure 7 (CUDA table, simulated) -----------===//
//
// Regenerates the structure of the paper's Figure 7 GPU comparison (E6 in
// DESIGN.md) on the simulated GPU device: for each app with a GPU
// schedule, the hybrid CPU/GPU-sim program is JIT-compiled from the *same
// algorithm* with a different schedule (its GPU-block loops launch on the
// simulated device), and the kernel-graph size the paper highlights (e.g.
// 58 distinct kernels for local Laplacian) is reported from the device's
// launch statistics. Absolute times are not comparable to real CUDA (see
// DESIGN.md substitution 2).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "metrics/ScheduleMetrics.h"
#include "runtime/GpuSim.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace halide;

namespace {

RawBuffer makeOutput(const App &A, int W, int H,
                     std::shared_ptr<void> *Keep) {
  const Function &F = A.Output.function();
  Type T = F.outputType();
  int Dims = F.dimensions();
  int C = Dims >= 3 ? 3 : 1;
  auto Storage = std::make_shared<std::vector<uint8_t>>(
      size_t(int64_t(W) * H * C * T.bytes()), uint8_t(0));
  *Keep = Storage;
  RawBuffer Raw;
  Raw.Host = Storage->data();
  Raw.ElemType = T;
  Raw.Dimensions = Dims;
  Raw.Dim[0] = {0, W, 1};
  Raw.Dim[1] = {0, H, W};
  if (Dims >= 3)
    Raw.Dim[2] = {0, C, W * H};
  Raw.Owner = Storage;
  return Raw;
}

} // namespace

int main() {
  const int W = 512, H = 384;
  std::printf("=== Figure 7 (GPU, SIMULATED device): hybrid schedules ===\n");
  std::printf("(one frame per app at %dx%d; kernel counts from the "
              "simulator)\n\n",
              W, H);
  std::printf("%-16s %12s %12s %10s %10s\n", "app", "gpu-sim(ms)",
              "cpu-tuned(ms)", "kernels", "blocks");

  std::vector<App> Apps = paperApps(/*LocalLaplacianLevels=*/4);
  for (App &A : Apps) {
    if (!A.ScheduleGpu)
      continue;
    ParamBindings Inputs = A.MakeInputs(W, H);
    std::shared_ptr<void> Keep;
    RawBuffer Out = makeOutput(A, W, H, &Keep);
    ParamBindings Params = Inputs;
    Params.bind(A.Output.name(), Out);

    A.ScheduleTuned();
    double CpuMs =
        benchmarkMs(*Pipeline(A.Output).compile(Target::jit()), Params, 2);

    A.ScheduleGpu();
    auto Gpu = Pipeline(A.Output).compile(Target::jit());
    Gpu->run(Params); // warm-up
    gpuSim().resetStats();
    double GpuMs = benchmarkMs(*Gpu, Params, 2);
    // Stats accumulate over warm-up + timed runs; report per-frame.
    int64_t Frames = 3; // 1 warm-up inside benchmarkMs + 2 timed
    int64_t Kernels = gpuSim().stats().KernelLaunches / Frames;
    int64_t Blocks = gpuSim().stats().BlocksExecuted / Frames;

    std::printf("%-16s %12.2f %12.2f %10lld %10lld\n", A.Name.c_str(),
                GpuMs, CpuMs, (long long)Kernels, (long long)Blocks);
  }
  std::printf("\npaper (real Tesla C2070): bilateral 8.1ms, interpolate "
              "9.1ms, local Laplacian 21ms with 58 distinct kernels. Here "
              "the device is software-simulated: compare kernel-graph "
              "structure, not absolute time.\n");
  return 0;
}
