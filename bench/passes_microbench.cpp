//===-- bench/passes_microbench.cpp - Compiler pass microbenchmarks -----------===//
//
// Supporting benchmark (E10 in DESIGN.md): google-benchmark timings of the
// compiler itself — simplification, bounds analysis, and full lowering of
// small and large pipelines — so compile-time regressions are visible.
// Also hosts the execution-dispatch microbench: the reference interpreter
// (interpret()) vs the bytecode VM over the Figure-3 blur schedules, the
// measurement behind the VM replacing the interpreter as the default.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "analysis/Bounds.h"
#include "codegen/Executable.h"
#include "codegen/Interpreter.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "support/DiffTest.h"
#include "transforms/Simplify.h"

#include <benchmark/benchmark.h>

using namespace halide;

namespace {

Expr buildBoundsExpr() {
  Expr X = Variable::make(Int(32), "x");
  Expr Y = Variable::make(Int(32), "y");
  Expr E = (X * 8 + 7) - (X * 8) + (Y * 32 + 31) / 32 +
           min(X * 4 + 3, Y * 4) - max(X, Y) + (X * 16 + 5) % 16;
  return E;
}

void BM_Simplify(benchmark::State &State) {
  Expr E = buildBoundsExpr();
  for (auto _ : State)
    benchmark::DoNotOptimize(simplify(E));
}
BENCHMARK(BM_Simplify);

void BM_BoundsOfExpr(benchmark::State &State) {
  Expr E = buildBoundsExpr();
  Scope<Interval> S;
  S.push("x", Interval(Expr(0), Expr(1000)));
  S.push("y", Interval(Expr(0), Expr(1000)));
  for (auto _ : State)
    benchmark::DoNotOptimize(boundsOfExprInScope(E, S));
}
BENCHMARK(BM_BoundsOfExpr);

void BM_LowerBlur(benchmark::State &State) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  for (auto _ : State)
    benchmark::DoNotOptimize(lower(A.Output.function()).Body.get());
}
BENCHMARK(BM_LowerBlur);

void BM_LowerCameraPipe(benchmark::State &State) {
  App A = makeCameraPipeApp();
  A.ScheduleTuned();
  for (auto _ : State)
    benchmark::DoNotOptimize(lower(A.Output.function()).Body.get());
}
BENCHMARK(BM_LowerCameraPipe);

void BM_LowerLocalLaplacian(benchmark::State &State) {
  App A = makeLocalLaplacianApp(/*Levels=*/6);
  A.ScheduleTuned();
  for (auto _ : State)
    benchmark::DoNotOptimize(lower(A.Output.function()).Body.get());
}
BENCHMARK(BM_LowerLocalLaplacian);

/// Lowering time of the deep-pyramid simulated-GPU schedule by pyramid
/// depth: the workload whose bounds expressions used to grow exponentially
/// before bounds inference learned to share subexpressions (ISSUE 4 /
/// LoweringScalabilityTest enforce the polynomial trend; this row makes
/// the trend visible in compile-time benchmarks).
void BM_LowerPyramid(benchmark::State &State) {
  App A = makeLocalLaplacianApp(int(State.range(0)));
  A.ScheduleGpu();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        lower(A.Output.function()).Body.get());
}
BENCHMARK(BM_LowerPyramid)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Execution dispatch: interpreter vs bytecode VM on the Figure-3 blur.
//===----------------------------------------------------------------------===//

/// The Figure-3 two-stage blur under one of its canonical schedules
/// (bench/fig3_blur_strategies.cpp is the full table; these are the
/// representative rows: no producer-consumer locality, tiles, and the
/// sliding window).
struct BlurFixture {
  ImageParam In;
  Var x{"x"}, y{"y"};
  Func Blurx, Out;
  Buffer<uint8_t> Input, Output;
  ParamBindings Params;

  BlurFixture(const std::string &Tag, int W, int H)
      : In(UInt(8), 2, Tag + "_in"), Blurx(Tag + "_blurx"),
        Out(Tag + "_out"), Input(W, H), Output(W, H) {
    auto InC = [&](Expr X, Expr Y) {
      return cast(UInt(16), In(clamp(X, 0, In.width() - 1),
                               clamp(Y, 0, In.height() - 1)));
    };
    Blurx(x, y) =
        cast(UInt(16), (InC(x - 1, y) + InC(x, y) + InC(x + 1, y)) / 3);
    Out(x, y) = cast(UInt(8),
                     (Blurx(x, y - 1) + Blurx(x, y) + Blurx(x, y + 1)) / 3);
    Input.fill([](int X, int Y) { return (X * 23 + Y * 7) % 256; });
    Params.bind(In.name(), Input);
    Params.bind(Out.name(), Output);
  }

  void applySchedule(const std::string &Name) {
    Out.function().resetSchedule();
    Blurx.function().resetSchedule();
    if (Name == "breadth_first") {
      Blurx.computeRoot();
    } else if (Name == "tiled") {
      Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
      Out.tile(x, y, xo, yo, xi, yi, 32, 32).parallel(yo);
      Blurx.computeAt(Out, xo);
    } else if (Name == "sliding_window") {
      Blurx.storeRoot().computeAt(Out, y);
    }
  }
};

/// Times one engine on one blur schedule: the reference interpreter
/// (\p Interpret) walks the lowered pipeline, the VM runs its bytecode.
void dispatchBench(benchmark::State &State, bool Interpret,
                   const char *Schedule) {
  // Frame small enough that an interpreter iteration stays in the
  // microbench budget; both engines run the identical lowered pipeline.
  BlurFixture F(std::string(Interpret ? "mb_interp_" : "mb_vm_") + Schedule,
                192, 128);
  F.applySchedule(Schedule);
  Pipeline Pipe(F.Out);
  if (Interpret) {
    const LoweredPipeline LP = Pipe.lowerPipeline();
    for (auto _ : State)
      benchmark::DoNotOptimize(interpret(LP, F.Params));
    return;
  }
  std::shared_ptr<const Executable> Exe = Pipe.compile(Target::vm());
  for (auto _ : State)
    benchmark::DoNotOptimize(Exe->run(F.Params));
}

void BM_DispatchInterpBreadthFirst(benchmark::State &State) {
  dispatchBench(State, /*Interpret=*/true, "breadth_first");
}
BENCHMARK(BM_DispatchInterpBreadthFirst)->Unit(benchmark::kMillisecond);

void BM_DispatchVmBreadthFirst(benchmark::State &State) {
  dispatchBench(State, /*Interpret=*/false, "breadth_first");
}
BENCHMARK(BM_DispatchVmBreadthFirst)->Unit(benchmark::kMillisecond);

void BM_DispatchInterpTiled(benchmark::State &State) {
  dispatchBench(State, /*Interpret=*/true, "tiled");
}
BENCHMARK(BM_DispatchInterpTiled)->Unit(benchmark::kMillisecond);

void BM_DispatchVmTiled(benchmark::State &State) {
  dispatchBench(State, /*Interpret=*/false, "tiled");
}
BENCHMARK(BM_DispatchVmTiled)->Unit(benchmark::kMillisecond);

void BM_DispatchInterpSlidingWindow(benchmark::State &State) {
  dispatchBench(State, /*Interpret=*/true, "sliding_window");
}
BENCHMARK(BM_DispatchInterpSlidingWindow)->Unit(benchmark::kMillisecond);

void BM_DispatchVmSlidingWindow(benchmark::State &State) {
  dispatchBench(State, /*Interpret=*/false, "sliding_window");
}
BENCHMARK(BM_DispatchVmSlidingWindow)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
