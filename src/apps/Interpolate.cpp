//===-- apps/Interpolate.cpp - Multi-scale interpolation ----------------------===//
//
// The paper's multi-scale interpolation app (section 6): an image pyramid
// interpolates pixel data for seamless compositing. Chains of stages
// resample locally over small stencils, but dependence propagates globally
// across the entire image through the pyramid.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

using namespace halide;

namespace {
constexpr int PyramidLevels = 6;
} // namespace

App halide::makeInterpolateApp() {
  App A;
  A.Name = "interpolate";
  // RGBA input with premultiplied-alpha compositing semantics.
  ImageParam In(Float(32), 3, "interp_input");
  A.Inputs = {In};

  Var x("x"), y("y"), c("c");

  Func Clamped("interp_clamped");
  Clamped(x, y, c) = In(clamp(x, 0, In.width() - 1),
                        clamp(y, 0, In.height() - 1), clamp(c, 0, 3));

  // Premultiply color by alpha.
  Func Down0("down0");
  Down0(x, y, c) = select(c < 3,
                          Clamped(x, y, c) * Clamped(x, y, 3),
                          Clamped(x, y, 3));
  Down0.bound(c, 0, 4);

  // Downsample chain: [1 3 3 1] in x then y, decimate by 2.
  std::vector<Func> Downsampled(PyramidLevels);
  std::vector<Func> DownX(PyramidLevels);
  Downsampled[0] = Down0;
  for (int L = 1; L < PyramidLevels; ++L) {
    Func Prev = Downsampled[L - 1];
    DownX[L] = Func("downx" + std::to_string(L));
    DownX[L](x, y, c) =
        (Prev(x * 2 - 1, y, c) + 3.0f * (Prev(x * 2, y, c) +
                                         Prev(x * 2 + 1, y, c)) +
         Prev(x * 2 + 2, y, c)) /
        8.0f;
    Downsampled[L] = Func("down" + std::to_string(L));
    Downsampled[L](x, y, c) =
        (DownX[L](x, y * 2 - 1, c) + 3.0f * (DownX[L](x, y * 2, c) +
                                             DownX[L](x, y * 2 + 1, c)) +
         DownX[L](x, y * 2 + 2, c)) /
        8.0f;
    DownX[L].bound(c, 0, 4);
    Downsampled[L].bound(c, 0, 4);
  }

  // Interpolate back up: where alpha is low, fill from the coarser level.
  std::vector<Func> Interpolated(PyramidLevels);
  std::vector<Func> UpX(PyramidLevels);
  Interpolated[PyramidLevels - 1] = Downsampled[PyramidLevels - 1];
  for (int L = PyramidLevels - 2; L >= 0; --L) {
    UpX[L] = Func("upx" + std::to_string(L));
    Func Coarser = Interpolated[L + 1];
    // Linear upsample: x/2 neighbourhood blend.
    UpX[L](x, y, c) = 0.25f * Coarser((x / 2) - 1 + 2 * (x % 2), y, c) +
                      0.75f * Coarser(x / 2, y, c);
    Interpolated[L] = Func("interp" + std::to_string(L));
    Interpolated[L](x, y, c) =
        Downsampled[L](x, y, c) +
        (1.0f - Downsampled[L](x, y, 3)) *
            (0.25f * UpX[L](x, (y / 2) - 1 + 2 * (y % 2), c) +
             0.75f * UpX[L](x, y / 2, c));
    UpX[L].bound(c, 0, 4);
    Interpolated[L].bound(c, 0, 4);
  }

  // Unpremultiply.
  Func Out("interpolate");
  Out(x, y, c) = select(c < 3,
                        Interpolated[0](x, y, c) /
                            max(Interpolated[0](x, y, 3), 1e-6f),
                        1.0f);
  Out.bound(c, 0, 3);
  A.Output = Out;

  std::vector<Function> Fns = {Clamped.function(), Down0.function(),
                               Out.function()};
  for (int L = 1; L < PyramidLevels; ++L) {
    Fns.push_back(DownX[L].function());
    Fns.push_back(Downsampled[L].function());
  }
  for (int L = 0; L < PyramidLevels - 1; ++L) {
    Fns.push_back(UpX[L].function());
    Fns.push_back(Interpolated[L].function());
  }
  auto Reset = [Fns]() mutable {
    for (Function &F : Fns)
      F.resetSchedule();
  };
  auto AllRoot = [Fns]() mutable {
    for (Function &F : Fns)
      if (!F.schedule().ComputeLevel.isRoot()) {
        F.schedule().ComputeLevel = LoopLevel::root();
        F.schedule().StoreLevel = LoopLevel::root();
      }
  };
  A.ScheduleBreadthFirst = [Reset, AllRoot]() mutable {
    Reset();
    AllRoot();
  };
  A.ScheduleTuned = [Reset, Downsampled, DownX, Interpolated, UpX,
                     Out]() mutable {
    Reset();
    Var x("x"), y("y");
    // Every pyramid level and every x-pass at root, each computed once
    // with parallel scanlines. Inlined into its y-pass, which reads four
    // rows at stride 2, an x-pass would be computed twice per point, and
    // the premultiply under it four times; on one thread that costs more
    // than the extra planes. Only the output is vectorized: a vectorized
    // level rounds its allocation up to the lane count, and the rounded
    // blocks fit the buffer pool worse.
    std::vector<Func> Stages = {Downsampled[0]};
    for (int L = 1; L < PyramidLevels; ++L)
      Stages.insert(Stages.end(), {DownX[L], Downsampled[L]});
    for (int L = PyramidLevels - 2; L >= 0; --L)
      Stages.insert(Stages.end(), {UpX[L], Interpolated[L]});
    for (Func &F : Stages)
      F.computeRoot().parallel(y);
    Out.parallel(y).vectorize(x, 8);
  };
  A.ScheduleGpu = [Reset, AllRoot, Downsampled, Interpolated,
                   Out]() mutable {
    Reset();
    AllRoot();
    Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
    for (int L = 1; L < 3; ++L)
      Downsampled[L].gpuTile(x, y, bx, by, tx, ty, 16, 16);
    for (int L = 0; L < 2; ++L)
      Interpolated[L].gpuTile(x, y, bx, by, tx, ty, 16, 16);
    Out.gpuTile(x, y, bx, by, tx, ty, 16, 16);
  };

  A.MakeInputs = [In](int W, int H) {
    Buffer<float> Input(W, H, 4);
    Input.fill([W, H](int X, int Y, int C) {
      if (C == 3) // sparse alpha mask
        return ((X % 7 == 0) && (Y % 5 == 0)) ? 1.0f : 0.02f;
      return float((X * (C + 1) + Y) % 64) / 64.0f;
    });
    ParamBindings P;
    P.bind(In.name(), Input);
    return P;
  };
  A.PaperHalideLines = 21;
  A.PaperExpertLines = 152;
  A.PaperHalideMs = 32;
  A.PaperExpertMs = 54;
  A.ReproLines = 35;
  return A;
}
