//===-- apps/CameraPipe.cpp - Raw-to-RGB camera pipeline -----------------------===//
//
// The paper's camera pipeline (section 6): transforms raw Bayer-mosaic
// sensor data into a usable image. Deinterleave, demosaic (a combination of
// interleaved, inter-dependent stencils), color-matrix correction, and a
// gamma curve applied through a lookup table computed once at root — the
// paper's LUT-plus-gather pattern.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

using namespace halide;

App halide::makeCameraPipeApp() {
  App A;
  A.Name = "camera_pipe";
  ImageParam Raw(UInt(16), 2, "cam_raw");
  A.Inputs = {Raw};

  Var x("x"), y("y"), c("c");

  Func Clamped("cam_clamped");
  Clamped(x, y) = cast(Float(32), Raw(clamp(x, 0, Raw.width() - 1),
                                      clamp(y, 0, Raw.height() - 1))) /
                  65535.0f;

  // Deinterleave the GRBG Bayer mosaic into per-site planes at half
  // resolution.
  Func Gr("cam_gr"), R("cam_r"), B("cam_b"), Gb("cam_gb");
  Gr(x, y) = Clamped(2 * x, 2 * y);
  R(x, y) = Clamped(2 * x + 1, 2 * y);
  B(x, y) = Clamped(2 * x, 2 * y + 1);
  Gb(x, y) = Clamped(2 * x + 1, 2 * y + 1);

  // Demosaic: interpolate the two missing channels at each site with
  // small inter-dependent stencils, then re-interleave to full resolution.
  Func GAtR("cam_g_at_r"), GAtB("cam_g_at_b");
  GAtR(x, y) = (Gr(x, y) + Gr(x + 1, y) + Gb(x, y) + Gb(x, y - 1)) * 0.25f;
  GAtB(x, y) = (Gr(x, y) + Gr(x, y + 1) + Gb(x, y) + Gb(x - 1, y)) * 0.25f;

  Func RAtG("cam_r_at_g"), BAtG("cam_b_at_g"), RAtB("cam_r_at_b"),
      BAtR("cam_b_at_r");
  RAtG(x, y) = (R(x, y) + R(x - 1, y)) * 0.5f;
  BAtG(x, y) = (B(x, y) + B(x, y - 1)) * 0.5f;
  RAtB(x, y) = (R(x, y) + R(x - 1, y) + R(x, y + 1) + R(x - 1, y + 1)) *
               0.25f;
  BAtR(x, y) = (B(x, y) + B(x + 1, y) + B(x, y - 1) + B(x + 1, y - 1)) *
               0.25f;

  // Re-interleave to full resolution per output channel.
  Func Demosaic("cam_demosaic");
  {
    Expr Hx = x / 2, Hy = y / 2;
    Expr IsRight = (x % 2) == 1, IsBottom = (y % 2) == 1;
    Expr RedV = select(!IsRight && !IsBottom, RAtG(Hx, Hy),
                       IsRight && !IsBottom, R(Hx, Hy),
                       !IsRight && IsBottom, RAtB(Hx, Hy),
                       RAtG(Hx, Hy));
    Expr GreenV = select(!IsRight && !IsBottom, Gr(Hx, Hy),
                         IsRight && !IsBottom, GAtR(Hx, Hy),
                         !IsRight && IsBottom, GAtB(Hx, Hy),
                         Gb(Hx, Hy));
    Expr BlueV = select(!IsRight && !IsBottom, BAtG(Hx, Hy),
                        IsRight && !IsBottom, BAtR(Hx, Hy),
                        !IsRight && IsBottom, B(Hx, Hy),
                        BAtG(Hx, Hy));
    Demosaic(x, y, c) = select(c == 0, RedV, c == 1, GreenV, BlueV);
    Demosaic.bound(c, 0, 3);
  }

  // Color-matrix correction.
  Func Corrected("cam_corrected");
  {
    Expr RR = Demosaic(x, y, 0), GG = Demosaic(x, y, 1),
         BB = Demosaic(x, y, 2);
    Expr RC = 1.6f * RR - 0.4f * GG - 0.2f * BB;
    Expr GC = -0.2f * RR + 1.5f * GG - 0.3f * BB;
    Expr BC = -0.1f * RR - 0.4f * GG + 1.5f * BB;
    Corrected(x, y, c) = select(c == 0, RC, c == 1, GC, BC);
    Corrected.bound(c, 0, 3);
  }

  // Gamma/contrast curve applied via a 1024-entry LUT computed at root.
  Func Curve("cam_curve");
  {
    Var i("i");
    Expr V = cast(Float(32), i) / 1023.0f;
    Expr Gamma = pow(V, 1.0f / 1.8f);
    // Gentle s-curve for contrast.
    Expr SCurve = Gamma * Gamma * (3.0f - 2.0f * Gamma);
    Curve(i) = cast(UInt(8), clamp(SCurve * 255.0f, 0.0f, 255.0f));
    Curve.bound(i, 0, 1024);
  }

  Func Out("camera_pipe");
  Out(x, y, c) = Curve(clamp(cast(Int(32), Corrected(x, y, c) * 1023.0f),
                             0, 1023));
  Out.bound(c, 0, 3);
  A.Output = Out;

  std::vector<Function> Fns;
  for (Func F : {Clamped, Gr, R, B, Gb, GAtR, GAtB, RAtG, BAtG, RAtB, BAtR,
                 Demosaic, Corrected, Curve, Out})
    Fns.push_back(F.function());
  auto Reset = [Fns]() mutable {
    for (Function &F : Fns)
      F.resetSchedule();
  };
  A.ScheduleBreadthFirst = [Reset, Fns]() mutable {
    Reset();
    for (Function &F : Fns) {
      if (F.name() == "camera_pipe")
        continue;
      F.schedule().ComputeLevel = LoopLevel::root();
      F.schedule().StoreLevel = LoopLevel::root();
    }
  };
  A.ScheduleTuned = [Reset, Curve, Demosaic, Corrected, Gr, R, B, Gb, GAtR,
                     GAtB, RAtG, BAtG, RAtB, BAtR, Out]() mutable {
    Reset();
    // The paper's tuned camera pipe fuses long chains of interleaved
    // stencils on overlapping tiles of scanlines, vectorizes every stage,
    // and distributes blocks of scanlines across threads. LUT at root;
    // everything else fuses into output strips.
    Var x("x"), y("y"), yo("yo"), yi("yi");
    // Stage everything like breadth-first (the demosaic's interleaved
    // selects recompute poorly when fused on one core), then add the
    // domain-order optimizations: strip-parallel output and vectorized
    // site planes and demosaic.
    Curve.computeRoot();
    for (Func F : {Gr, R, B, Gb, GAtR, GAtB, RAtG, BAtG, RAtB, BAtR})
      F.computeRoot().vectorize(Var("x"), 8);
    Demosaic.computeRoot().parallel(Var("y"));
    Corrected.computeRoot().vectorize(Var("x"), 8).parallel(Var("y"));
    Out.split(y, yo, yi, 16).parallel(yo).vectorize(x, 8);
  };
  A.ScheduleGpu = [Reset, Curve, Demosaic, Out]() mutable {
    Reset();
    Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
    Curve.computeRoot();
    Demosaic.computeRoot().gpuTile(x, y, bx, by, tx, ty, 16, 16);
    Out.gpuTile(x, y, bx, by, tx, ty, 16, 16);
  };

  A.MakeInputs = [Raw](int W, int H) {
    Buffer<uint16_t> Input(W, H);
    Input.fill([](int X, int Y) {
      // A plausible mosaic: greens brighter, diagonal gradient.
      int Site = (X % 2) + 2 * (Y % 2);
      int Base = (X * 37 + Y * 91) % 32768;
      return uint16_t(Site == 0 || Site == 3 ? Base + 16384 : Base + 8192);
    });
    ParamBindings P;
    P.bind(Raw.name(), Input);
    return P;
  };
  A.PaperHalideLines = 123;
  A.PaperExpertLines = 306;
  A.PaperHalideMs = 14;
  A.PaperExpertMs = 49;
  A.ReproLines = 64;
  return A;
}
