//===-- tests/AppsTest.cpp - Application correctness ---------------------------===//
//
// For every paper app: the tuned (and GPU) schedules must produce output
// identical to the breadth-first schedule — the schedule can never change
// the meaning of the algorithm. And jit_c, built with the production
// host-cc flags, must reproduce the VM for every app and schedule, from C
// whose vector loads are straight-line SIMD.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "apps/Apps.h"
#include "codegen/CodeGenC.h"

#include <cctype>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <sstream>

using namespace halide;

namespace {

/// Allocates an output buffer matching the app's output signature.
RawBuffer makeOutput(const App &A, int W, int H,
                     std::shared_ptr<void> *Keep) {
  const Function &F = A.Output.function();
  Type T = F.outputType();
  int Dims = F.dimensions();
  int C = Dims >= 3 ? 3 : 1;
  int64_t Elems = int64_t(W) * H * C;
  auto Storage = std::make_shared<std::vector<uint8_t>>(
      size_t(Elems * T.bytes()), uint8_t(0));
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

void expectSameOutput(App &A, const std::function<void()> &SchedA,
                      const std::function<void()> &SchedB, int W, int H,
                      const char *Label) {
  ParamBindings Inputs = A.MakeInputs(W, H);

  std::shared_ptr<void> KeepA, KeepB;
  RawBuffer OutA = makeOutput(A, W, H, &KeepA);
  RawBuffer OutB = makeOutput(A, W, H, &KeepB);

  SchedA();
  auto CA = Pipeline(A.Output).compile(Target::jit());
  ParamBindings PA = Inputs;
  PA.bind(A.Output.name(), OutA);
  ASSERT_EQ(CA->run(PA), 0);

  SchedB();
  auto CB = Pipeline(A.Output).compile(Target::jit());
  ParamBindings PB = Inputs;
  PB.bind(A.Output.name(), OutB);
  ASSERT_EQ(CB->run(PB), 0);

  int64_t Bytes = OutA.numElements() * OutA.ElemType.bytes();
  EXPECT_EQ(std::memcmp(OutA.Host, OutB.Host, size_t(Bytes)), 0)
      << A.Name << ": " << Label;
}

/// Runs \p A under its current schedule on the VM and on \p Jit at a
/// 128x96 frame; the two outputs must be equal byte for byte.
void expectJitMatchesVm(App &A, const Target &Jit) {
  const int W = 128, H = 96;
  ParamBindings Inputs = A.MakeInputs(W, H);
  std::shared_ptr<void> KeepVm, KeepJit;
  RawBuffer OutVm = makeOutput(A, W, H, &KeepVm);
  RawBuffer OutJit = makeOutput(A, W, H, &KeepJit);
  for (auto [T, Out] :
       {std::pair{Target::vm(), &OutVm}, std::pair{Jit, &OutJit}}) {
    ParamBindings P = Inputs;
    P.bind(A.Output.name(), *Out);
    ASSERT_EQ(Pipeline(A.Output).compile(T)->run(P), 0);
  }
  int64_t Bytes = OutVm.numElements() * OutVm.ElemType.bytes();
  EXPECT_EQ(std::memcmp(OutVm.Host, OutJit.Host, size_t(Bytes)), 0);
}

} // namespace

TEST(AppsTest, BlurTunedMatchesBreadthFirst) {
  App A = makeBlurApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, BlurTunedRunsAtWidthsThatAreNotMultiplesOf32) {
  // Tuned blur vectorizes its output by 16: at 80x48 and 48x32, multiples
  // of 16 but not of 32, both engines must run the tuned schedule and
  // equal breadth-first. An output vectorized by 32 aborts here.
  App A = makeBlurApp();
  for (auto [W, H] : {std::pair{80, 48}, std::pair{48, 32}}) {
    SCOPED_TRACE(std::to_string(W) + "x" + std::to_string(H));
    ParamBindings Inputs = A.MakeInputs(W, H);
    Buffer<uint8_t> Want(W, H);
    A.ScheduleBreadthFirst();
    ParamBindings P = Inputs;
    P.bind(A.Output.name(), Want);
    ASSERT_EQ(Pipeline(A.Output).compile(Target::vm())->run(P), 0);
    A.ScheduleTuned();
    for (const Target &T : {Target::vm(), Target::jit()}) {
      Buffer<uint8_t> Got(W, H);
      P = Inputs;
      P.bind(A.Output.name(), Got);
      ASSERT_EQ(Pipeline(A.Output).compile(T)->run(P), 0) << T.str();
      for (int Y = 0; Y < H; ++Y)
        for (int X = 0; X < W; ++X)
          ASSERT_EQ(Got(X, Y), Want(X, Y))
              << T.str() << " at (" << X << "," << Y << ")";
    }
  }
}

TEST(AppsTest, BlurGpuMatchesBreadthFirst) {
  App A = makeBlurApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleGpu, 128, 64,
                   "gpu vs breadth-first");
}

TEST(AppsTest, BilateralGridTunedMatchesBreadthFirst) {
  App A = makeBilateralGridApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, BilateralGridGpuMatchesBreadthFirst) {
  App A = makeBilateralGridApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleGpu, 128, 64,
                   "gpu vs breadth-first");
}

TEST(AppsTest, CameraPipeTunedMatchesBreadthFirst) {
  App A = makeCameraPipeApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, InterpolateTunedMatchesBreadthFirst) {
  App A = makeInterpolateApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, LocalLaplacianTunedMatchesBreadthFirst) {
  App A = makeLocalLaplacianApp(/*Levels=*/4);
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, HistogramEqualizeTunedMatchesBreadthFirst) {
  App A = makeHistogramEqualizeApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, StageCountsMatchFigure6Shape) {
  // Figure 6 reports pipeline sizes; check ours have the right order of
  // magnitude and ranking.
  App Blur = makeBlurApp();
  App Bilateral = makeBilateralGridApp();
  App Camera = makeCameraPipeApp();
  App Interp = makeInterpolateApp();
  App LL = makeLocalLaplacianApp(8);
  auto Stages = [](const App &A) {
    return buildEnvironment(A.Output.function()).size();
  };
  EXPECT_EQ(Stages(Blur), 2u);
  EXPECT_EQ(Stages(Bilateral), 7u);
  EXPECT_GE(Stages(Camera), 14u);
  EXPECT_GE(Stages(Interp), 20u);
  EXPECT_GE(Stages(LL), 70u); // paper: 99 stages at 8 levels
  EXPECT_GT(Stages(LL), Stages(Interp));
  EXPECT_GT(Stages(Interp), Stages(Camera));
  EXPECT_GT(Stages(Camera), Stages(Bilateral));
}

TEST(AppsTest, StencilCountsArePositive) {
  App Blur = makeBlurApp();
  EXPECT_GE(countStencils(Blur.Output.function()), 1);
  App LL = makeLocalLaplacianApp(4);
  EXPECT_GE(countStencils(LL.Output.function()), 10);
}

TEST(AppsTest, HistogramEqualizeFlattensHistogram) {
  App A = makeHistogramEqualizeApp();
  A.ScheduleTuned();
  const int W = 128, H = 96;
  ParamBindings Params = A.MakeInputs(W, H);
  Buffer<uint8_t> Out(W, H);
  Params.bind(A.Output.name(), Out);
  auto CP = Pipeline(A.Output).compile(Target::jit());
  ASSERT_EQ(CP->run(Params), 0);
  int MinV = 255, MaxV = 0;
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      MinV = std::min<int>(MinV, Out(X, Y));
      MaxV = std::max<int>(MaxV, Out(X, Y));
    }
  // Equalization stretches the low-contrast input across the range.
  EXPECT_GT(MaxV - MinV, 150);
}

TEST(AppsTest, LoweringTwiceGivesIdenticalTextAndC) {
  // Compiler-generated names (shared bounds definitions, CSE lets) count
  // from zero in every lowering, so one schedule lowers to the same
  // statement and the same C however much the process lowered before.
  std::vector<App> Apps = paperApps();
  Apps.push_back(makeHistogramEqualizeApp());
  for (App &A : Apps)
    for (bool Tuned : {true, false}) {
      SCOPED_TRACE(A.Name + (Tuned ? " tuned" : " breadth_first"));
      (Tuned ? A.ScheduleTuned : A.ScheduleBreadthFirst)();
      std::string Text[2], C[2];
      for (int I = 0; I < 2; ++I) {
        Pipeline::clearCompileCache();
        Pipeline P(A.Output);
        Text[I] = P.loweredText();
        C[I] = codegenC(P.lowerPipeline(), "hl_pipeline");
      }
      // Sizes, not contents: the texts run to megabytes.
      EXPECT_TRUE(Text[0] == Text[1])
          << "lowered text differs (" << Text[0].size() << " vs "
          << Text[1].size() << " bytes)";
      EXPECT_TRUE(C[0] == C[1]) << "C differs (" << C[0].size() << " vs "
                                << C[1].size() << " bytes)";
    }
}

TEST(AppsTest, JitAtDefaultFlagsMatchesVm) {
  // DifferentialScheduleTest's C leg compiles at -O0, and the cases above
  // compare jit_c only with itself. Here C built with the host-cc flags
  // every jit_c compile uses must reproduce the VM bit for bit.
  std::vector<App> Apps = paperApps(/*LocalLaplacianLevels=*/4);
  Apps.push_back(makeHistogramEqualizeApp());
  for (App &A : Apps)
    for (bool Tuned : {true, false}) {
      SCOPED_TRACE(A.Name + (Tuned ? " tuned" : " breadth_first"));
      (Tuned ? A.ScheduleTuned : A.ScheduleBreadthFirst)();
      expectJitMatchesVm(A, Target::jit());
    }
}

namespace {

/// Each function definition of emitted C, from its `static` line to its
/// closing brace.
std::vector<std::string> staticDefinitions(const std::string &C) {
  std::vector<std::string> Defs;
  for (size_t At = C.find("\nstatic "); At != std::string::npos;
       At = C.find("\nstatic ", At + 1)) {
    size_t LineEnd = C.find('\n', At + 1);
    size_t End = C[LineEnd - 1] == '}' ? LineEnd : C.find("\n}", At) + 2;
    Defs.push_back(C.substr(At + 1, End - At - 1));
  }
  return Defs;
}

/// The buffer each gather of emitted C reads (its first argument).
std::vector<std::string> gatheredBuffers(const std::string &C) {
  std::vector<std::string> Buffers;
  for (size_t At = C.find("_gather_i32("); At != std::string::npos;
       At = C.find("_gather_i32(", At + 1)) {
    size_t Arg = At + std::strlen("_gather_i32(");
    std::string Buffer = C.substr(Arg, C.find(',', Arg) - Arg);
    if (Buffer.rfind("const ", 0) != 0) // not the definition
      Buffers.push_back(Buffer);
  }
  return Buffers;
}

/// Interpolate with vectorized pyramid levels: down1-5 and interp0-4 at
/// root, their x-passes and upsamples inlined, and down1-2, interp0-2 and
/// the output parallel and 8 lanes wide. The registered tuned schedule
/// vectorizes only the output, so it has no upsample gathers.
void scheduleInterpolateVectorLevels(App &A) {
  std::map<std::string, Function> Env = buildEnvironment(A.Output.function());
  for (auto &[Name, F] : Env)
    F.resetSchedule();
  Var x("x"), y("y");
  auto Root = [&](const std::string &Level, int L) {
    Func F(Env.at(Level + std::to_string(L)));
    F.computeRoot();
    if (L <= 2)
      F.parallel(y).vectorize(x, 8);
  };
  for (int L = 1; L <= 5; ++L)
    Root("down", L);
  for (int L = 0; L <= 4; ++L)
    Root("interp", L);
  A.Output.parallel(y).vectorize(x, 8);
}

} // namespace

TEST(AppsTest, VectorLoadsAreStraightLineSimd) {
  // Every registered program's vector loads: no load, gather or clamped
  // edge helper keeps a lane loop (the edge is a span load and one
  // shuffle), and no conversion starts from a vector narrower than 128
  // bits (GCC splits those). The stride-2 taps of camera_pipe's Bayer
  // deinterleave and interpolate's downsampling are shuffled loads, not
  // gathers; interpolate with vectorized levels gathers only its x/2
  // upsample taps from coarser levels.
  std::vector<App> Apps = paperApps();
  Apps.push_back(makeHistogramEqualizeApp());
  for (App &A : Apps) {
    std::vector<std::pair<std::string, std::function<void()>>> Schedules = {
        {"breadth_first", A.ScheduleBreadthFirst},
        {"tuned", A.ScheduleTuned},
        {"gpu", A.ScheduleGpu}};
    if (A.Name == "interpolate")
      Schedules.emplace_back("vector_levels",
                             [&A] { scheduleInterpolateVectorLevels(A); });
    for (const auto &[Name, Apply] : Schedules) {
      if (!Apply)
        continue;
      SCOPED_TRACE(A.Name + " " + Name);
      Apply();
      const std::string C =
          codegenC(Pipeline(A.Output).lowerPipeline(), "hl_pipeline");
      // Native vector typedefs ("typedef uint8_t hl_u8x8
      // __attribute__((vector_size(8)));") and their bytes.
      std::map<std::string, int> VectorBytes;
      for (size_t At = C.find("\ntypedef "); At != std::string::npos;
           At = C.find("\ntypedef ", At + 1)) {
        std::istringstream Line(C.substr(At, C.find('\n', At + 1) - At));
        std::string Typedef, Elem, Type, Attribute;
        Line >> Typedef >> Elem >> Type >> Attribute;
        if (Attribute.rfind("__attribute__((vector_size(", 0) == 0)
          VectorBytes[Type] = std::stoi(Attribute.substr(27));
      }
      for (const std::string &Def : staticDefinitions(C)) {
        const std::string Head = Def.substr(0, Def.find('\n'));
        if (Head.find("_load") != std::string::npos ||
            Head.find("_gather_") != std::string::npos ||
            Head.find("_clamp_edge") != std::string::npos) {
          EXPECT_EQ(Def.find("for ("), std::string::npos) << Def;
        }
        const std::string Convert = "__builtin_convertvector(";
        for (size_t At = Def.find(Convert); At != std::string::npos;
             At = Def.find(Convert, At + 1)) {
          size_t Arg = At + Convert.size();
          std::string Var = Def.substr(Arg, Def.find(',', Arg) - Arg);
          for (const auto &[Type, Bytes] : VectorBytes)
            for (const char *After : {")", ",", " ="})
              if (Def.find(Type + " " + Var + After) != std::string::npos) {
                EXPECT_GE(Bytes, 16) << Def;
              }
        }
      }
      const std::vector<std::string> Gathered = gatheredBuffers(C);
      if (A.Name == "camera_pipe" && Name == "tuned") {
        for (const std::string &Buffer : Gathered)
          EXPECT_EQ(Buffer.rfind("cam_curve", 0), 0u) << Buffer;
      }
      if (Name == "vector_levels") {
        EXPECT_FALSE(Gathered.empty());
        EXPECT_LE(Gathered.size(), 13u);
        for (const std::string &Buffer : Gathered)
          EXPECT_TRUE(Buffer.rfind("interp", 0) == 0 &&
                      std::isdigit((unsigned char)Buffer[6]))
              << Buffer;
      }
    }
  }
}

TEST(AppsTest, EmittedCNeedsNoSystemHeader) {
  // The generated C declares what it uses itself: it compiles with no
  // system include directory at all, and the object, linked without
  // libc, loads and reproduces the VM under every schedule.
  std::vector<App> Apps = paperApps(/*LocalLaplacianLevels=*/4);
  Apps.push_back(makeHistogramEqualizeApp());
  for (App &A : Apps)
    for (auto [Name, Apply] :
         {std::pair{"breadth_first", A.ScheduleBreadthFirst},
          std::pair{"tuned", A.ScheduleTuned},
          std::pair{"gpu", A.ScheduleGpu}}) {
      if (!Apply)
        continue;
      SCOPED_TRACE(A.Name + " " + Name);
      Apply();
      expectJitMatchesVm(A, Target::jit().withJitFlags("-nostdinc"));
    }
}
