//===-- bench/fig7_cpu.cpp - Paper Figure 7 (x86 table) ------------------------===//
//
// Regenerates the paper's Figure 7 CPU comparison (E5 in DESIGN.md): for
// each app, the schedule-optimized Halide implementation (JIT, native)
// against the hand-written expert baseline and the naive clean-C++
// baseline, plus the breadth-first Halide schedule to isolate the value of
// scheduling. Also reports code-size factors as the paper does.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "metrics/ScheduleMetrics.h"
#include "runtime/TaskScheduler.h"

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
  const int W = 768, H = 512;
  std::printf("=== Figure 7 (x86): Halide vs hand-written baselines, "
              "%dx%d ===\n\n",
              W, H);
  std::printf("%-16s %10s %10s %10s %10s %8s | paper: halide %s expert, "
              "lines factor\n",
              "app", "halide(ms)", "bf(ms)", "expert(ms)", "naive(ms)",
              "speedup", "vs");

  std::vector<App> Apps = paperApps(/*LocalLaplacianLevels=*/6);
  for (App &A : Apps) {
    ParamBindings Inputs = A.MakeInputs(W, H);
    std::shared_ptr<void> Keep;
    RawBuffer Out = makeOutput(A, W, H, &Keep);
    ParamBindings Params = Inputs;
    Params.bind(A.Output.name(), Out);

    A.ScheduleTuned();
    double TunedMs =
        benchmarkMs(*Pipeline(A.Output).compile(Target::jit()), Params, 3);
    A.ScheduleBreadthFirst();
    double BfMs =
        benchmarkMs(*Pipeline(A.Output).compile(Target::jit()), Params, 3);
    double ExpertMs =
        A.ExpertBaselineMs ? A.ExpertBaselineMs(W, H) : -1.0;
    double NaiveMs = A.NaiveBaselineMs ? A.NaiveBaselineMs(W, H) : -1.0;

    std::printf("%-16s %10.2f %10.2f %10.2f %10.2f %7.2fx | %4.0fms vs "
                "%4.0fms, %dx shorter\n",
                A.Name.c_str(), TunedMs, BfMs, ExpertMs, NaiveMs,
                ExpertMs > 0 ? ExpertMs / TunedMs : 0.0, A.PaperHalideMs,
                A.PaperExpertMs,
                A.PaperExpertLines / std::max(1, A.PaperHalideLines));
  }
  std::printf(
      "\nshape to check (paper, 4-core + SIMD): tuned Halide >= expert "
      "baseline, >> naive C++ and breadth-first Halide. Halide ran on a "
      "%d-thread task pool; the baselines are serial.\n",
      taskSchedulerThreads());
  return 0;
}
