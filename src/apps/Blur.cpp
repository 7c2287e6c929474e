//===-- apps/Blur.cpp - The paper's two-stage blur --------------------------===//
//
// The running example of paper section 3.1: a 3x3 box filter computed as a
// horizontal then a vertical 3-tap pass. The tuned schedule is the paper's
// "sliding window within strips" strategy (split y into strips processed in
// parallel, slide blurx within each strip, vectorize x).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "analysis/CallGraph.h"
#include "apps/baselines/Baselines.h"

using namespace halide;

App halide::makeBlurApp() {
  App A;
  A.Name = "blur";
  ImageParam In(UInt(8), 2, "blur_input");
  A.Inputs = {In};

  Var x("x"), y("y");
  Func Blurx("blurx"), Out("blur");
  auto InC = [&](Expr X, Expr Y) {
    return cast(UInt(16), In(clamp(X, 0, In.width() - 1),
                             clamp(Y, 0, In.height() - 1)));
  };
  Blurx(x, y) =
      cast(UInt(16), (InC(x - 1, y) + InC(x, y) + InC(x + 1, y)) / 3);
  Out(x, y) = cast(UInt(8),
                   (Blurx(x, y - 1) + Blurx(x, y) + Blurx(x, y + 1)) / 3);
  A.Output = Out;

  Function OutFn = Out.function(), BlurxFn = Blurx.function();
  auto Reset = [OutFn, BlurxFn]() mutable {
    OutFn.resetSchedule();
    BlurxFn.resetSchedule();
  };
  A.ScheduleBreadthFirst = [Reset, Blurx]() mutable {
    Reset();
    Blurx.computeRoot();
  };
  // blurx runs 16 lanes, a 256-bit uint16 vector. At 32 lanes it is faster
  // on an AVX-512 host but over four times slower where 256 bits is the
  // widest register, since the host compiler splits a wider vector into
  // pieces. The output's width must be a multiple of its lane count.
  A.ScheduleTuned = [Reset, Blurx, Out]() mutable {
    Reset();
    Var x("x"), y("y"), ty("ty");
    Out.split(y, ty, y, 16).parallel(ty).vectorize(x, 16);
    Blurx.storeAt(Out, ty).computeAt(Out, y).vectorize(x, 16);
  };
  A.ScheduleGpu = [Reset, Blurx, Out]() mutable {
    Reset();
    Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
    Out.gpuTile(x, y, bx, by, tx, ty, 32, 8);
    Blurx.computeAt(Out, bx).vectorize(Var("x"), 8);
  };

  A.MakeInputs = [In](int W, int H) {
    Buffer<uint8_t> Input(W, H);
    Input.fill([](int X, int Y) { return (X * 23 + Y * 7) % 256; });
    ParamBindings P;
    P.bind(In.name(), Input);
    return P;
  };

  A.ExpertBaselineMs = [](int W, int H) {
    return baselines::blurExpertMs(W, H);
  };
  A.NaiveBaselineMs = [](int W, int H) {
    return baselines::blurNaiveMs(W, H);
  };

  // Paper Figure 7 (x86 row "Blur").
  A.PaperHalideLines = 2;
  A.PaperExpertLines = 35;
  A.PaperHalideMs = 11;
  A.PaperExpertMs = 13;
  A.ReproLines = 10;
  return A;
}
