//===-- tests/PipelineTest.cpp - Front end, lowering, bounds inference -------===//

#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "analysis/CallGraph.h"
#include "apps/Apps.h"
#include "autotune/ScheduleSpace.h"
#include "codegen/CodeGenC.h"
#include "codegen/Interpreter.h"
#include "support/DiffTest.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

using namespace halide;

namespace {

/// A reusable two-stage gradient pipeline (no input image).
struct GradientPipe {
  Var x{"x"}, y{"y"};
  Func F, G;
  GradientPipe() : F("grad_f"), G("grad_g") {
    F(x, y) = x + y * 10;
    G(x, y) = F(x, y) + F(x + 1, y) * 2;
  }
};

} // namespace

TEST(FuncTest, PureDefinitionBasics) {
  Var x("x"), y("y");
  Func F("deftest");
  F(x, y) = x * 2 + y;
  EXPECT_TRUE(F.defined());
  EXPECT_EQ(F.dimensions(), 2);
  EXPECT_EQ(F.function().outputType(), Int(32));
  EXPECT_EQ(F.function().args()[0], "x");
  EXPECT_EQ(F.function().args()[1], "y");
  // Default loop order is row-major: x innermost (last in Dims).
  const Schedule &S = F.function().schedule();
  ASSERT_EQ(S.Dims.size(), 2u);
  EXPECT_EQ(S.Dims[0].Var, "y");
  EXPECT_EQ(S.Dims[1].Var, "x");
}

TEST(FuncTest, CallGraph) {
  GradientPipe P;
  auto Env = buildEnvironment(P.G.function());
  EXPECT_EQ(Env.size(), 2u);
  auto Order = realizationOrder(P.G.function(), Env);
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], P.F.name()); // producer first
  EXPECT_EQ(Order[1], P.G.name());
  auto Callees = directCallees(P.G.function());
  ASSERT_EQ(Callees.size(), 1u);
  EXPECT_EQ(Callees[0], P.F.name());
}

TEST(PipelineTest, RealizeNoInput) {
  GradientPipe P;
  P.F.computeRoot();
  Pipeline Pipe(P.G);
  Buffer<int32_t> Out(8, 6);
  Pipe.realize(Out);
  for (int Y = 0; Y < 6; ++Y)
    for (int X = 0; X < 8; ++X) {
      int FXY = X + Y * 10, FX1Y = (X + 1) + Y * 10;
      EXPECT_EQ(Out(X, Y), FXY + 2 * FX1Y);
    }
}

TEST(PipelineTest, OutputWindowWithMins) {
  GradientPipe P;
  Pipeline Pipe(P.G);
  Buffer<int32_t> Out(4, 4);
  Out.setMin(10, 20);
  Pipe.realize(Out);
  EXPECT_EQ(Out(10, 20), (10 + 200) + 2 * (11 + 200));
  EXPECT_EQ(Out(13, 23), (13 + 230) + 2 * (14 + 230));
}

TEST(PipelineTest, ScalarParams) {
  Var x("x");
  Param<int32_t> Gain("gain");
  Param<float> Offset("offset");
  Func F("paramtest");
  F(x) = cast(Float(32), x * Gain) + Offset;
  Pipeline Pipe(F);
  Buffer<float> Out(5);
  ParamBindings Params;
  Params.bindInt("gain", 3);
  Params.bindFloat("offset", 0.5);
  Pipe.realize(Out, Params);
  EXPECT_FLOAT_EQ(Out(4), 12.5f);
  // The lowered pipeline advertises the scalar args.
  LoweredPipeline LP = Pipe.lowerPipeline();
  EXPECT_EQ(LP.Scalars.size(), 2u);
}

TEST(PipelineTest, ScalarParamsArriveExactly) {
  // Integer parameters travel as integers and float ones as floats, so
  // no value is rounded through a double or cast out of its type's range.
  Var x("x");
  Param<int64_t> I("exact_i");
  Param<float> F("exact_f");
  Func FI("exact_i_out"), FF("exact_f_out");
  FI(x) = Expr(I);
  FF(x) = Expr(F);
  for (int64_t V : {INT64_MIN, INT64_MAX, (int64_t(1) << 53) + 1}) {
    I.set(V);
    EXPECT_EQ(I.get(), V);
    for (const Target &T : {Target::vm(), Target::jit()}) {
      Buffer<int64_t> Out(2);
      Pipeline(FI).realize(Out, ParamBindings(), T);
      EXPECT_EQ(Out(1), V) << T.str();
    }
    Buffer<int64_t> Out(2);
    ParamBindings Params;
    Params.bindInt(I.name(), V);
    Params.bind(FI.name(), Out);
    interpret(Pipeline(FI).lowerPipeline(), Params);
    EXPECT_EQ(Out(1), V) << "interpreter";
  }
  for (float V : {3e38f, -std::numeric_limits<float>::infinity()}) {
    F.set(V);
    EXPECT_EQ(F.get(), V);
    for (const Target &T : {Target::vm(), Target::jit()}) {
      Buffer<float> Out(2);
      Pipeline(FF).realize(Out, ParamBindings(), T);
      EXPECT_EQ(Out(1), V) << T.str();
    }
  }
}

TEST(PipelineTest, ImageParamMetadata) {
  ImageParam In(UInt(8), 2, "meta_in");
  Var x("x"), y("y");
  Func F("metatest");
  F(x, y) = cast(Int(32), In(clamp(x, 0, In.width() - 1),
                             clamp(y, 0, In.height() - 1))) +
            In.width();
  Buffer<uint8_t> Input(7, 3);
  Input.fillConstant(5);
  Pipeline Pipe(F);
  Buffer<int32_t> Out(7, 3);
  ParamBindings Params;
  Params.bind("meta_in", Input);
  Pipe.realize(Out, Params);
  EXPECT_EQ(Out(0, 0), 5 + 7);
}

TEST(LoweringTest, BreadthFirstStructure) {
  GradientPipe P;
  P.F.computeRoot();
  std::string Text = Pipeline(P.G).loweredText();
  // Allocation, produce/consume markers, loops with qualified names.
  EXPECT_NE(Text.find("allocate " + P.F.name()), std::string::npos);
  EXPECT_NE(Text.find("produce " + P.F.name()), std::string::npos);
  EXPECT_NE(Text.find("consume " + P.F.name()), std::string::npos);
  EXPECT_NE(Text.find("for (" + P.G.name() + ".x"), std::string::npos);
  // No unflattened constructs remain.
  EXPECT_EQ(Text.find("realize"), std::string::npos);
}

TEST(LoweringTest, BoundsInferenceExpandsProducer) {
  // G reads F at x and x+1, so F's allocation must be one wider than G's
  // region ("at least as large as the region consumed", paper section 4.2).
  GradientPipe P;
  P.F.computeRoot();
  Pipeline Pipe(P.G);
  Buffer<int32_t> Out(8, 6);
  ExecutionStats Stats = Pipe.realize(Out);
  EXPECT_EQ(Stats.StoresPerBuffer[P.F.name()], int64_t(9 * 6));
  EXPECT_EQ(Stats.StoresPerBuffer[P.G.name()], int64_t(8 * 6));
}

TEST(LoweringTest, InlineLeavesNoAllocation) {
  GradientPipe P; // default schedule: F inlined
  std::string Text = Pipeline(P.G).loweredText();
  EXPECT_EQ(Text.find("allocate " + P.F.name()), std::string::npos);
  Buffer<int32_t> Out(4, 4);
  ExecutionStats Stats = Pipeline(P.G).realize(Out);
  EXPECT_EQ(Stats.StoresPerBuffer.count(P.F.name()), 0u);
  EXPECT_EQ(Out(1, 1), (1 + 10) + 2 * (2 + 10));
}

TEST(LoweringTest, ComputeAtPlacement) {
  GradientPipe P;
  P.F.computeAt(P.G, P.y);
  std::string Text = Pipeline(P.G).loweredText();
  // The produce of F must appear inside G's y loop: find positions.
  size_t YLoop = Text.find("for (" + P.G.name() + ".y");
  size_t Produce = Text.find("produce " + P.F.name());
  ASSERT_NE(YLoop, std::string::npos);
  ASSERT_NE(Produce, std::string::npos);
  EXPECT_LT(YLoop, Produce);
  // Per-scanline allocation: F's buffer holds one row (of width 9).
  Buffer<int32_t> Out(8, 6);
  ExecutionStats Stats = Pipeline(P.G).realize(Out);
  EXPECT_EQ(Stats.PeakAllocationBytes, int64_t(9 * 4));
}

TEST(LoweringTest, SplitRoundsUp) {
  // Splitting a producer's dimension rounds the traversed domain up to a
  // multiple of the factor (paper section 4.1).
  GradientPipe P;
  Var xo("xo"), xi("xi");
  P.F.computeRoot().split(P.x, xo, xi, 4);
  Buffer<int32_t> Out(6, 2); // F needs 7 columns -> rounds to 8
  ExecutionStats Stats = Pipeline(P.G).realize(Out);
  EXPECT_EQ(Stats.StoresPerBuffer[P.F.name()], int64_t(8 * 2));
}

TEST(LoweringTest, RootProducerOfATiledConsumerComputesOnlyWhatItReads) {
  // Mid is computed per 32x8 tile and vectorized, so its extent is bound
  // by a let of the tile's loop variable whose terms cancel only against
  // its min. Src's region must keep them correlated: ranging min and
  // extent one by one over the tiles made Src 64 * tiles - 30 columns
  // wide, almost twice what Mid reads.
  Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
  Func Src("rt_src"), Mid("rt_mid"), Out("rt_out");
  Src(x, y) = x + y * 3;
  Mid(x, y) = Src(x - 1, y - 1) + Src(x + 1, y + 1);
  Out(x, y) = Mid(x, y) * 2;
  Out.gpuTile(x, y, bx, by, tx, ty, 32, 8);
  Mid.computeAt(Out, bx).vectorize(x, 8);
  Src.computeRoot();
  const int W = 256, H = 64;
  Buffer<int32_t> Result(W, H);
  ExecutionStats Stats = Pipeline(Out).realize(Result);
  EXPECT_EQ(Stats.StoresPerBuffer[Src.name()], int64_t(W + 2) * (H + 2));
  EXPECT_EQ(Result(W - 1, H - 1), 2 * (2 * (W - 1) + 6 * (H - 1)));
}

TEST(LoweringTest, SlidingWindowRootStagesStoreNoMoreThanBreadthFirst) {
  // The sliding-window sample stores every fused stage at root and
  // computes it in its consumer's rows. A stage computed outside every
  // loop reads those stages through their stored regions, bound once at
  // the top, so it computes what breadth-first computes. Re-ranging each
  // fused stage's loop nest instead lost precision at every loop level:
  // interpolate's down0 stored 3,020,568 values and down4 10,248.
  const int W = 64, H = 48;
  std::vector<App> Apps = paperApps(/*LocalLaplacianLevels=*/3);
  Apps.push_back(makeHistogramEqualizeApp());
  for (App &A : Apps) {
    SCOPED_TRACE(A.Name);
    ScheduleSpace Space(A.Output.function());
    auto StoresUnder = [&](const Genome &G) {
      Space.apply(G);
      std::shared_ptr<void> Keep;
      ParamBindings Params = A.MakeInputs(W, H);
      return Pipeline(A.Output)
          .realize(makeAppOutput(A, W, H, &Keep), Params)
          .StoresPerBuffer;
    };
    std::map<std::string, int64_t> BreadthFirst =
        StoresUnder(Space.breadthFirstGenome());
    std::map<std::string, int64_t> Sliding =
        StoresUnder(Space.deterministicSample(12, 2013)[4]);
    for (const auto &[Name, F] : buildEnvironment(A.Output.function())) {
      if (F.schedule().ComputeLevel.isRoot()) {
        EXPECT_LE(Sliding[Name], BreadthFirst[Name]) << Name;
      }
    }
    if (A.Name == "interpolate") {
      EXPECT_EQ(Sliding["down0"], 258064);
      EXPECT_EQ(Sliding["down4"], 784);
    }
  }
}

TEST(LoweringTest, StoredCoordinateIsTheSplitLetNotTheLoopReusingItsName) {
  // A split whose outer loop keeps the coordinate's name, as vectorize(x, 8)
  // does, binds the coordinate again in its reconstruction let. A walk that
  // reads a stored stage through its stored region must take that let for
  // the coordinate, and range the outer loop as a loop.
  Var x("x"), y("y"), xi("xi");

  // Mid is stored at root and computed in Out's rows, so its root producer
  // Src reads it through Mid's stored region. Splitting Mid's x must leave
  // Src's region alone: taking the outer loop for the coordinate made Src
  // 8 times as wide.
  auto SrcStores = [&](bool Split) {
    Func Src("sc_src"), Mid("sc_mid"), Out("sc_out");
    Src(x, y) = x + y * 3;
    Mid(x, y) = Src(x - 1, y) + Src(x + 1, y + 1);
    Out(x, y) = Mid(x, y - 1) + Mid(x, y + 1);
    Src.computeRoot();
    Mid.storeRoot().computeAt(Out, y);
    if (Split)
      Mid.split(x, x, xi, 8);
    Buffer<int32_t> Result(64, 16);
    ExecutionStats Stats = Pipeline(Out).realize(Result);
    EXPECT_EQ(Result(63, 15), 4 * 63 + 12 * 15 + 6);
    return Stats.StoresPerBuffer[Src.name()];
  };
  EXPECT_EQ(SrcStores(false), (64 + 2) * (16 + 3));
  EXPECT_EQ(SrcStores(true), SrcStores(false));

  // Tap is computed at Row's outer x loop, which keeps Row's coordinate
  // name, so Tap's region follows that loop's variable. Ranging the loop
  // over Row's stored region read Src far outside its own region.
  Func Src("sc2_src"), Tap("sc2_tap"), Row("sc2_row"), Out("sc2_out");
  Src(x, y) = x + y;
  Tap(x, y) = Src(x - 1, y) + Src(x + 1, y);
  Row(x, y) = Tap(x, y) * 2;
  Out(x, y) = Row(x, y) + 1;
  Src.computeRoot();
  Row.computeRoot().split(x, x, xi, 8);
  Tap.computeAt(Row, x);
  Buffer<int32_t> Result(64, 4);
  Result.setMin(40, 0);
  ExecutionStats Stats = Pipeline(Out).realize(Result);
  EXPECT_EQ(Stats.StoresPerBuffer[Src.name()], (64 + 2) * 4);
  EXPECT_EQ(Result(103, 3), 4 * (103 + 3) + 1);
}

TEST(LoweringTest, SlidingWindowLeavesARoundedUpDimensionAlone) {
  // Mid is stored at root and computed in Out's rows, so sliding window
  // would compute only each row's new Mid rows. Its y is split by 16,
  // which rounds every computed region up to 16 rows: a slid region then
  // writes past Mid's storage and reads past the Src rows computed for
  // it. Sliding-window output must equal the unslid output on both
  // engines.
  Var x("x"), y("y"), yi("yi");
  Func Src("sr_src"), Mid("sr_mid"), Out("sr_out");
  Src(x, y) = x + y * 3;
  Mid(x, y) = Src(x, y - 1) + Src(x, y + 1);
  Out(x, y) = (Mid(x, y - 1) + Mid(x, y + 1)) / 4;
  Src.computeRoot();
  Mid.storeRoot().computeAt(Out, y);
  Mid.split(y, y, yi, 16);
  Pipeline P(Out);
  const int W = 64, H = 48;
  Buffer<int32_t> Unslid(W, H);
  P.realize(Unslid, ParamBindings(), Target().withoutSlidingWindow());
  EXPECT_EQ(Unslid(W - 1, H - 1), (W - 1) + 3 * (H - 1));
  for (const Target &T : {Target::vm(), Target::jit()}) {
    Buffer<int32_t> Result(W, H);
    P.realize(Result, ParamBindings(), T);
    for (int Y = 0; Y < H; ++Y)
      for (int X = 0; X < W; ++X)
        ASSERT_EQ(Result(X, Y), Unslid(X, Y))
            << T.str() << " at (" << X << ", " << Y << ")";
  }
}

TEST(LoweringTest, OutputSplitDivisibilityAssert) {
  GradientPipe P;
  Var xo("xo"), xi("xi");
  P.G.split(P.x, xo, xi, 4);
  std::string Text = Pipeline(P.G).loweredText();
  EXPECT_NE(Text.find("assert"), std::string::npos);
  // A divisible size passes.
  Buffer<int32_t> Out(8, 4);
  Pipeline(P.G).realize(Out);
  EXPECT_EQ(Out(7, 3), (7 + 30) + 2 * (8 + 30));
}

TEST(LoweringTest, TwoConsumersAtRoot) {
  Var x("x");
  Func A("multi_a"), B("multi_b"), C("multi_c"), D("multi_d");
  A(x) = x * x;
  B(x) = A(x) + 1;
  C(x) = A(x + 1) * 2;
  D(x) = B(x) + C(x);
  A.computeRoot();
  B.computeRoot();
  C.computeRoot();
  Buffer<int32_t> Out(10);
  Pipeline(D).realize(Out);
  for (int X = 0; X < 10; ++X)
    EXPECT_EQ(Out(X), (X * X + 1) + ((X + 1) * (X + 1) * 2));
}

TEST(LoweringTest, ReorderChangesLoopNesting) {
  GradientPipe P;
  P.G.reorder(P.y, P.x); // y innermost now
  std::string Text = Pipeline(P.G).loweredText();
  size_t XLoop = Text.find("for (" + P.G.name() + ".x");
  size_t YLoop = Text.find("for (" + P.G.name() + ".y");
  ASSERT_NE(XLoop, std::string::npos);
  ASSERT_NE(YLoop, std::string::npos);
  EXPECT_LT(XLoop, YLoop); // x is now the outer loop
  Buffer<int32_t> Out(4, 4);
  Pipeline(P.G).realize(Out);
  EXPECT_EQ(Out(2, 2), (2 + 20) + 2 * (3 + 20));
}

//===----------------------------------------------------------------------===//
// Stage lifetime and names: a pipeline owns its stages through its calls,
// and a stage's name means something only within its pipeline.
//===----------------------------------------------------------------------===//

namespace {

/// Builds producer -> out and returns only the output, so the output's
/// call is the producer's only owner.
Func producerConsumerPipeline() {
  Var x("x"), y("y");
  Func Producer("producer"), Out("out");
  Producer(x, y) = x + y;
  Out(x, y) = Producer(x, y) * 2;
  Producer.computeRoot();
  return Out;
}

void expectProducerConsumerOutput(const Func &Out, const Target &T) {
  Buffer<int32_t> Result(5, 4);
  Pipeline(Out).realize(Result, ParamBindings(), T);
  for (int Y = 0; Y < 4; ++Y)
    for (int X = 0; X < 5; ++X)
      EXPECT_EQ(Result(X, Y), 2 * (X + Y)) << "at (" << X << ", " << Y << ")";
}

/// The lowered text and C of \p A's tuned schedule.
std::pair<std::string, std::string> tunedProgram(App &A) {
  A.ScheduleTuned();
  Pipeline P(A.Output);
  return {P.loweredText(), codegenC(P.lowerPipeline(), "hl_pipeline")};
}

} // namespace

TEST(StageLifetimeTest, HelperBuiltPipelineRealizesOnBothEngines) {
  Func Out = producerConsumerPipeline();
  expectProducerConsumerOutput(Out, Target::vm());
  expectProducerConsumerOutput(Out, Target::jit());
}

TEST(StageLifetimeTest, UnrelatedFuncWithAStageNameLeavesPipelineAlone) {
  Func Out = producerConsumerPipeline();
  Var x("x"), y("y");
  Func Unrelated("producer");
  Unrelated(x, y) = (x + y) * 60;
  expectProducerConsumerOutput(Out, Target::vm());
}

TEST(StageLifetimeTest, SecondLiveInstanceOfAnAppCompilesLikeTheFirst) {
  // Stage and RVar names do not depend on what else is alive, so an app
  // built while another instance lives compiles to the same program.
  std::vector<std::function<App()>> Makers = {
      makeHistogramEqualizeApp, [] { return makeLocalLaplacianApp(3); }};
  for (const auto &Make : Makers) {
    App First = Make();
    App Second = Make();
    SCOPED_TRACE(First.Name);
    auto [FirstText, FirstC] = tunedProgram(First);
    auto [SecondText, SecondC] = tunedProgram(Second);
    // Sizes, not contents: the texts run to hundreds of kilobytes.
    EXPECT_TRUE(FirstText == SecondText)
        << "lowered text differs (" << FirstText.size() << " vs "
        << SecondText.size() << " bytes)";
    EXPECT_TRUE(FirstC == SecondC) << "C differs (" << FirstC.size()
                                   << " vs " << SecondC.size() << " bytes)";
  }
}

TEST(StageLifetimeTest, TwoStagesWithOneNameAreAUserError) {
  Var x("x");
  Func A("twin"), B("twin"), Out("twin_sum");
  A(x) = x;
  B(x) = x + 1;
  Out(x) = A(x) + B(x);
  EXPECT_DEATH(Pipeline(Out).loweredText(),
               "two different stages of one pipeline are named twin");
}

//===----------------------------------------------------------------------===//
// Parameter lifetime and names: a pipeline owns the parameters it reads,
// and a parameter's name means something only within its pipeline.
//===----------------------------------------------------------------------===//

namespace {

/// The fastest of \p Frames VM frames of \p Pipe, in seconds.
double fastestVmFrame(Pipeline &Pipe, Buffer<int32_t> &Out, int Frames) {
  double Best = 1e9;
  for (int I = 0; I < Frames; ++I) {
    auto Start = std::chrono::steady_clock::now();
    Pipe.realize(Out, ParamBindings(), Target::vm());
    Best = std::min(Best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - Start)
                              .count());
  }
  return Best;
}

} // namespace

TEST(ParamLifetimeTest, FrameCostDoesNotGrowWithUnrelatedParams) {
  Var x("x");
  Param<int32_t> K("plt_cost_k", 5);
  Func F("plt_cost");
  F(x) = x + K;
  Pipeline Pipe(F);
  Buffer<int32_t> Out(16);
  const double Before = fastestVmFrame(Pipe, Out, 50);
  for (int I = 0; I < 100000; ++I)
    Param<int32_t> Unrelated("plt_unrelated" + std::to_string(I));
  const double After = fastestVmFrame(Pipe, Out, 50);
  EXPECT_LE(After, 10 * Before)
      << "fastest frame " << Before * 1e6 << " us before, " << After * 1e6
      << " us after";
  EXPECT_EQ(Out(3), 8);
}

TEST(ParamLifetimeTest, UnrelatedParamWithTheSameNameLeavesBindingIntact) {
  Var x("x");
  Param<int32_t> K("plt_shared", 3);
  Func F("plt_named");
  F(x) = x * K;
  Pipeline Pipe(F);
  Buffer<int32_t> Out(4);
  Pipe.realize(Out, ParamBindings(), Target::vm());
  EXPECT_EQ(Out(2), 6);
  // Another pipeline's parameter with the same name, unbound and then
  // bound, is a different parameter.
  Param<int32_t> Other("plt_shared");
  for (int Round = 0; Round < 2; ++Round) {
    for (const Target &T : {Target::vm(), Target::jit()}) {
      Out.fillConstant(0);
      Pipe.realize(Out, ParamBindings(), T);
      EXPECT_EQ(Out(2), 6) << T.str() << " round " << Round;
    }
    Other.set(100);
  }
  EXPECT_EQ(K.get(), 3);
}

TEST(ParamLifetimeTest, ParamsReadOnlyBySchedulesResolve) {
  // A parameter that only a schedule reads (a split factor, a bound) is
  // one of the pipeline's parameters like any other, on both engines.
  Var x("x"), xo("xo"), xi("xi");
  Param<int32_t> Factor("plt_factor", 4), Extent("plt_extent", 8);
  Func F("plt_sched_f"), G("plt_sched_g");
  F(x) = x * 2;
  G(x) = F(x) + 1;
  F.computeRoot().bound(x, 0, Extent);
  G.split(x, xo, xi, Factor);
  for (const Target &T : {Target::vm(), Target::jit()}) {
    Buffer<int32_t> Out(8);
    Pipeline(G).realize(Out, ParamBindings(), T);
    for (int X = 0; X < 8; ++X)
      EXPECT_EQ(Out(X), 2 * X + 1) << "at " << X << " on " << T.str();
  }
}

TEST(ParamLifetimeTest, BoundImageIsFreedWithItsLastHandle) {
  int Released = 0;
  {
    ImageParam In(UInt(8), 2, "plt_in");
    {
      Buffer<uint8_t> Pixels(8, 4);
      Pixels.fillConstant(7);
      RawBuffer Raw = Pixels.raw();
      // Wraps the pixels' owner so that its release is counted.
      Raw.Owner = std::shared_ptr<void>(
          Raw.Host, [Keep = Raw.Owner, &Released](void *) { ++Released; });
      In.set(Raw);
    }
    Var x("x"), y("y");
    Func F("plt_read");
    F(x, y) = In(x, y) + 1;
    Buffer<uint8_t> Out(8, 4);
    Pipeline(F).realize(Out, ParamBindings(), Target::vm());
    EXPECT_EQ(Out(3, 2), 8);
    EXPECT_EQ(Released, 0);
  }
  // The Buffer, the ImageParam and the Func are gone. The cached
  // lowering and executable hold no stage, so nothing holds the
  // parameter or its image any more.
  EXPECT_EQ(Released, 1);
  Pipeline::clearCompileCache();
  EXPECT_EQ(Released, 1);
}
