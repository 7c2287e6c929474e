//===-- apps/LocalLaplacian.cpp - Local Laplacian filters ----------------------===//
//
// The paper's flagship app (Figure 1, section 6): edge-respecting tone
// mapping via Laplacian pyramids. The pipeline builds a Gaussian pyramid of
// the input, K remapped Gaussian pyramids (one per intensity level, carried
// as a k dimension), takes Laplacians, selects between intensity levels by
// a data-dependent access (DDA) on the input pyramid, and collapses the
// result pyramid. With 8 pyramid levels this instantiates the ~99-stage
// graph of Figure 1.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "analysis/CallGraph.h"

using namespace halide;

App halide::makeLocalLaplacianApp(int Levels, int IntensityLevels) {
  const int J = Levels;
  const int K = IntensityLevels;
  App A;
  A.Name = "local_laplacian";
  ImageParam In(UInt(16), 2, "ll_input");
  A.Inputs = {In};

  Var x("x"), y("y"), k("k");

  // Floating point, clamped input.
  Func Floating("ll_float");
  Floating(x, y) = cast(Float(32), In(clamp(x, 0, In.width() - 1),
                                      clamp(y, 0, In.height() - 1))) /
                   65535.0f;

  // Remap LUT, computed once (the paper's LUT stage).
  const float Alpha = 1.0f / float(K - 1);
  const float Beta = 1.0f;
  Func Remap("ll_remap");
  {
    Var i("i");
    Expr Fx = cast(Float(32), i) / 256.0f;
    Remap(i) = Alpha * Fx * exp(-Fx * Fx / 2.0f);
  }

  // The K remapped images, carried as dimension k.
  Func GPyramid0("ll_gpyr0");
  {
    Expr Level = cast(Float(32), k) * (1.0f / float(K - 1));
    Expr Idx = clamp(cast(Int(32), Floating(x, y) * float(K - 1) * 256.0f),
                     0, (K - 1) * 256);
    GPyramid0(x, y, k) =
        Beta * (Floating(x, y) - Level) + Level +
        Remap(clamp(Idx - 256 * k, -(K - 1) * 256, (K - 1) * 256));
    GPyramid0.bound(k, 0, K);
  }

  auto downsample = [&](Func F, const std::string &Name, bool HasK) {
    Func DX(Name + "_dx"), D(Name);
    if (HasK) {
      DX(x, y, k) = (F(2 * x - 1, y, k) + 3.0f * (F(2 * x, y, k) +
                                                  F(2 * x + 1, y, k)) +
                     F(2 * x + 2, y, k)) /
                    8.0f;
      D(x, y, k) = (DX(x, 2 * y - 1, k) + 3.0f * (DX(x, 2 * y, k) +
                                                  DX(x, 2 * y + 1, k)) +
                    DX(x, 2 * y + 2, k)) /
                   8.0f;
      DX.bound(k, 0, K);
      D.bound(k, 0, K);
    } else {
      DX(x, y) = (F(2 * x - 1, y) + 3.0f * (F(2 * x, y) + F(2 * x + 1, y)) +
                  F(2 * x + 2, y)) /
                 8.0f;
      D(x, y) = (DX(x, 2 * y - 1) + 3.0f * (DX(x, 2 * y) +
                                            DX(x, 2 * y + 1)) +
                 DX(x, 2 * y + 2)) /
                8.0f;
    }
    return D;
  };
  auto upsample = [&](Func F, const std::string &Name, bool HasK) {
    Func UX(Name + "_ux"), U(Name);
    if (HasK) {
      UX(x, y, k) = 0.25f * F((x / 2) - 1 + 2 * (x % 2), y, k) +
                    0.75f * F(x / 2, y, k);
      U(x, y, k) = 0.25f * UX(x, (y / 2) - 1 + 2 * (y % 2), k) +
                   0.75f * UX(x, y / 2, k);
      UX.bound(k, 0, K);
      U.bound(k, 0, K);
    } else {
      UX(x, y) = 0.25f * F((x / 2) - 1 + 2 * (x % 2), y) +
                 0.75f * F(x / 2, y);
      U(x, y) = 0.25f * UX(x, (y / 2) - 1 + 2 * (y % 2)) +
                0.75f * UX(x, y / 2);
    }
    return U;
  };

  // Gaussian pyramid of the remapped stack (k-dimensional).
  std::vector<Func> GPyramid(J);
  GPyramid[0] = GPyramid0;
  for (int L = 1; L < J; ++L)
    GPyramid[L] = downsample(GPyramid[L - 1],
                             "ll_gpyr" + std::to_string(L), true);

  // Laplacian pyramid of the remapped stack.
  std::vector<Func> LPyramid(J);
  LPyramid[J - 1] = GPyramid[J - 1];
  for (int L = J - 2; L >= 0; --L) {
    Func Up = upsample(GPyramid[L + 1], "ll_lup" + std::to_string(L), true);
    LPyramid[L] = Func("ll_lpyr" + std::to_string(L));
    LPyramid[L](x, y, k) = GPyramid[L](x, y, k) - Up(x, y, k);
    LPyramid[L].bound(k, 0, K);
  }

  // Gaussian pyramid of the input itself.
  std::vector<Func> InGPyramid(J);
  InGPyramid[0] = Floating;
  for (int L = 1; L < J; ++L)
    InGPyramid[L] = downsample(InGPyramid[L - 1],
                               "ll_inpyr" + std::to_string(L), false);

  // Output Laplacian pyramid: the paper's DDA — choose which remapped
  // pyramid to sample based on the local input intensity.
  std::vector<Func> OutLPyramid(J);
  for (int L = 0; L < J; ++L) {
    Expr LevelV = InGPyramid[L](x, y) * float(K - 1);
    Expr Li = clamp(cast(Int(32), LevelV), 0, K - 2);
    Expr Lf = clamp(LevelV - cast(Float(32), Li), 0.0f, 1.0f);
    OutLPyramid[L] = Func("ll_outlpyr" + std::to_string(L));
    OutLPyramid[L](x, y) = (1.0f - Lf) * LPyramid[L](x, y, Li) +
                           Lf * LPyramid[L](x, y, Li + 1);
  }

  // Collapse the output pyramid.
  std::vector<Func> OutGPyramid(J);
  OutGPyramid[J - 1] = OutLPyramid[J - 1];
  for (int L = J - 2; L >= 0; --L) {
    Func Up = upsample(OutGPyramid[L + 1], "ll_oup" + std::to_string(L),
                       false);
    OutGPyramid[L] = Func("ll_outgpyr" + std::to_string(L));
    OutGPyramid[L](x, y) = Up(x, y) + OutLPyramid[L](x, y);
  }

  Func Out("local_laplacian");
  Out(x, y) = cast(UInt(16),
                   clamp(OutGPyramid[0](x, y), 0.0f, 1.0f) * 65535.0f);
  A.Output = Out;

  // Schedules operate on the whole environment generically: the graph is
  // too large to schedule stage by name.
  Function OutFn = Out.function();
  auto ForEachStage = [OutFn](const std::function<void(Function &)> &Fn) {
    std::map<std::string, Function> Env = buildEnvironment(OutFn);
    for (auto &[Name, F] : Env)
      if (Name != OutFn.name())
        Fn(F);
  };
  A.ScheduleBreadthFirst = [ForEachStage, OutFn]() mutable {
    Function Copy = OutFn;
    Copy.resetSchedule();
    ForEachStage([](Function &F) {
      F.resetSchedule();
      F.schedule().ComputeLevel = LoopLevel::root();
      F.schedule().StoreLevel = LoopLevel::root();
    });
  };
  A.ScheduleTuned = [ForEachStage, OutFn]() mutable {
    Function Copy = OutFn;
    Copy.resetSchedule();
    // The paper's tuned schedule mixes strategies across the 99 stages; we
    // approximate its shape: x-passes of resampling fuse into their
    // consumers' scanlines (inline), pyramid levels at root with parallel
    // scanlines. Only the output is vectorized: a vectorized level rounds
    // its extent up to the lane count, and the rounding compounds down
    // the pyramid.
    ForEachStage([](Function &F) {
      F.resetSchedule();
      bool IsXPass = endsWith(F.name(), "_dx") || endsWith(F.name(), "_ux");
      if (IsXPass && !F.hasUpdateDefinition())
        return; // stays inline: fused into the y pass
      F.schedule().ComputeLevel = LoopLevel::root();
      F.schedule().StoreLevel = LoopLevel::root();
      // Parallel over the outermost dimension.
      if (!F.schedule().Dims.empty()) {
        Dim &Outer = F.schedule().Dims.front();
        if (!Outer.IsRVar)
          Outer.Kind = ForType::Parallel;
      }
    });
    Func OutF(Copy);
    Var x("x"), y("y");
    OutF.parallel(y).vectorize(x, 8);
  };
  A.ScheduleGpu = [ForEachStage, OutFn]() mutable {
    Function Copy = OutFn;
    Copy.resetSchedule();
    ForEachStage([](Function &F) {
      F.resetSchedule();
      bool IsXPass = endsWith(F.name(), "_dx") || endsWith(F.name(), "_ux");
      if (IsXPass && !F.hasUpdateDefinition())
        return;
      F.schedule().ComputeLevel = LoopLevel::root();
      F.schedule().StoreLevel = LoopLevel::root();
      // Map each root stage's x/y onto the simulated-GPU grid when 2-D+.
      Schedule &S = F.schedule();
      if (S.Dims.size() >= 2) {
        Func FF(F);
        Var GX(S.Dims.back().Var);
        Var GY(S.Dims[S.Dims.size() - 2].Var);
        FF.gpuTile(GX, GY, Var(GX.name() + "$b"), Var(GY.name() + "$b"),
                   Var(GX.name() + "$t"), Var(GY.name() + "$t"), 8, 8);
      }
    });
    Func OutF(Copy);
    Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
    OutF.gpuTile(x, y, bx, by, tx, ty, 8, 8);
  };

  A.MakeInputs = [In](int W, int H) {
    Buffer<uint16_t> Input(W, H);
    Input.fill([](int X, int Y) {
      return uint16_t((X * 131 + Y * 523 + (X * Y) / 7) % 65536);
    });
    ParamBindings P;
    P.bind(In.name(), Input);
    return P;
  };
  A.PaperHalideLines = 52;
  A.PaperExpertLines = 262;
  A.PaperHalideMs = 113;
  A.PaperExpertMs = 189;
  A.ReproLines = 70;
  return A;
}
