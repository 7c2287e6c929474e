//===-- examples/quickstart.cpp - Your first pipeline ---------------------===//
//
// The paper's running example (sections 2 and 3.1): a separable 3x3 box
// blur written as two pure functions, then scheduled four different ways to
// walk the locality / parallelism / redundant-recomputation tradeoff space.
//
// Execution uses the unified Target/compile/realize API: bind inputs once
// with ImageParam::set, pick a Target (the bytecode VM, which is the
// default, or the C JIT), and realize —
// Pipeline caches the compiled artifact under a schedule fingerprint, so
// re-realizing an unchanged schedule pays zero compile cost per frame.
//
//===----------------------------------------------------------------------===//

#include "examples/ExampleUtils.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "metrics/ScheduleMetrics.h"

#include <cstdio>

using namespace halide;
using namespace halide::examples;

int main() {
  const int W = 1536, H = 1024;

  // --- The algorithm (what to compute) -----------------------------------
  ImageParam In(UInt(8), 2, "input");
  Var x("x"), y("y");
  auto InC = [&](Expr X, Expr Y) {
    return cast(UInt(16), In(clamp(X, 0, In.width() - 1),
                             clamp(Y, 0, In.height() - 1)));
  };
  Func Blurx("blurx"), Blur("blur_quickstart");
  Blurx(x, y) = cast(UInt(16), (InC(x - 1, y) + InC(x, y) + InC(x + 1, y)) / 3);
  Blur(x, y) = cast(UInt(8),
                    (Blurx(x, y - 1) + Blurx(x, y) + Blurx(x, y + 1)) / 3);

  // Input image: a gradient with some structure, bound once — realize()
  // resolves it from the ImageParam on every run.
  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return (X * X / 97 + Y * 3) % 256; });
  In.set(Input);
  Buffer<uint8_t> Output(W, H);

  // --- The schedules (how to compute it) ---------------------------------
  struct Variant {
    const char *Name;
    std::function<void()> Apply;
  };
  Function BlurFn = Blur.function(), BlurxFn = Blurx.function();
  auto Reset = [&]() {
    BlurFn.resetSchedule();
    BlurxFn.resetSchedule();
  };
  Variant Variants[] = {
      {"breadth-first (compute_root)",
       [&] {
         Reset();
         Blurx.computeRoot();
       }},
      {"total fusion (inline)", [&] { Reset(); }},
      {"sliding window (store_root, compute_at y)",
       [&] {
         Reset();
         Blurx.storeRoot().computeAt(Blur, y);
       }},
      {"tiles + vectorize + parallel",
       [&] {
         Reset();
         Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
         Blur.tile(TileSpec(x, y).outer(xo, yo).inner(xi, yi).factors(64, 32))
             .vectorize(xi, 8)
             .parallel(yo);
         Blurx.computeAt(Blur, xo).vectorize(x, 8);
       }},
  };

  std::printf("Two-stage blur, %dx%d. One algorithm, four schedules:\n\n",
              W, H);
  Pipeline Pipe(Blur);
  for (const Variant &V : Variants) {
    V.Apply();
    // compile() lowers with the schedule just applied and JIT-compiles via
    // the host C compiler; an unchanged schedule would come from the cache.
    std::shared_ptr<const Executable> Exe = Pipe.compile(Target::jit());
    ParamBindings Params;
    Params.bind("input", Input);
    Params.bind(Blur.name(), Output);
    double Ms = benchmarkMs(*Exe, Params, 5);
    std::printf("  %-45s %8.3f ms/frame\n", V.Name, Ms);
  }

  // Single frames go through realize(): pick the backend per call.
  Pipe.realize(Output, ParamBindings(), Target::jit());

  // Keep the last (tiled) result.
  writePgm(Output, "quickstart_blur.pgm");
  std::printf("\nTo see the loop nest a schedule synthesizes, print\n"
              "Pipeline(blur).loweredText() — try it!\n");
  return 0;
}
