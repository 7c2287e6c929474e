//===-- examples/bilateral_grid.cpp - Edge-aware smoothing ---------------------===//
//
// The bilateral-grid app from the paper's evaluation: scattering reduction,
// grid blurs, and data-dependent trilinear slicing. Shows the CPU tuned
// schedule and the simulated-GPU schedule side by side.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "examples/ExampleUtils.h"
#include "metrics/ScheduleMetrics.h"
#include "runtime/GpuSim.h"

#include <cstdio>

using namespace halide;
using namespace halide::examples;

int main() {
  const int W = 512, H = 384;
  App A = makeBilateralGridApp();

  ParamBindings Params = A.MakeInputs(W, H);
  Buffer<float> Out(W, H);
  Params.bind(A.Output.name(), Out);

  A.ScheduleTuned();
  auto Cpu = Pipeline(A.Output).compile(Target::jit());
  double CpuMs = benchmarkMs(*Cpu, Params, 3);
  std::printf("bilateral grid %dx%d\n  tuned CPU schedule: %8.2f ms\n", W, H,
              CpuMs);

  gpuSim().resetStats();
  A.ScheduleGpu();
  auto Gpu = Pipeline(A.Output).compile(Target::jit());
  double GpuMs = benchmarkMs(*Gpu, Params, 3);
  std::printf("  simulated-GPU schedule: %8.2f ms, %lld kernel launches "
              "(simulated device)\n",
              GpuMs, (long long)gpuSim().stats().KernelLaunches);

  Buffer<uint8_t> View(W, H);
  View.fill([&](int X, int Y) {
    float V = Out(X, Y);
    V = V < 0 ? 0 : (V > 1 ? 1 : V);
    return int(V * 255.0f);
  });
  writePgm(View, "bilateral_grid.pgm");
  return 0;
}
