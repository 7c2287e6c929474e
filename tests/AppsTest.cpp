//===-- tests/AppsTest.cpp - Application correctness ---------------------------===//
//
// For every paper app: the tuned (and GPU) schedules must produce output
// identical to the breadth-first schedule — the schedule can never change
// the meaning of the algorithm. And jit_c, built with the production
// host-cc flags, must reproduce the VM for every app and schedule.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "apps/Apps.h"
#include "codegen/CodeGenC.h"

#include <cstring>
#include <gtest/gtest.h>

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

TEST(AppsTest, NoProgramNamesALedgerDefinition) {
  // Every region is bound once, in its consumers' region or stored-region
  // lets, so no registered program needs a shared bounds definition (a
  // ".shared$" name from the ExprLedger). One that does derives some
  // region twice again.
  std::vector<App> Apps = paperApps();
  Apps.push_back(makeHistogramEqualizeApp());
  for (App &A : Apps)
    for (auto [Name, Apply] :
         {std::pair{"breadth_first", A.ScheduleBreadthFirst},
          std::pair{"tuned", A.ScheduleTuned},
          std::pair{"gpu", A.ScheduleGpu}}) {
      if (!Apply)
        continue;
      Apply();
      EXPECT_EQ(Pipeline(A.Output).loweredText().find(".shared$"),
                std::string::npos)
          << A.Name << " " << Name;
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
