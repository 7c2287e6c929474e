//===-- tests/OptimizationTest.cpp - Lowering optimizations ------------------===//
//
// Observes the paper's section-4.3 optimizations through the execution
// counters: sliding window eliminates redundant recomputation (store
// counts); storage folding shrinks peak memory. Loop partitioning splits
// clamped boundary reads out of the steady state. All must leave results
// unchanged, on the reference interpreter and on both backends.
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivatives.h"
#include "apps/Apps.h"
#include "apps/baselines/Baselines.h"
#include "codegen/Interpreter.h"
#include "ir/IRVisitor.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "metrics/ScheduleMetrics.h"
#include "transforms/PartitionLoops.h"
#include "transforms/Simplify.h"
#include "transforms/StorageFlattening.h"
#include "transforms/Substitute.h"

#include <gtest/gtest.h>

#include <climits>
#include <optional>

using namespace halide;

namespace {

/// An engine the tests run on: a compiled Target, or std::nullopt for the
/// reference interpreter, which is no Target backend.
using Engine = std::optional<Target>;

/// The reference interpreter and both compiled backends.
const Engine AllEngines[] = {std::nullopt, Target::vm(), Target::jit()};

std::string engineName(const Engine &E) {
  return E ? E->str() : "interpreter";
}

/// Realizes \p Pipe into \p Out on \p E. The reference interpreter walks
/// the pipeline's cached lowering directly.
ExecutionStats realizeOn(const Engine &E, Pipeline Pipe, RawBuffer Out,
                         ParamBindings Params) {
  if (E)
    return Pipe.realize(Out, Params, *E);
  Params.bind(Pipe.output().name(), Out);
  return interpret(Pipe.lowerPipeline(), Params);
}

struct BlurFixture {
  ImageParam In;
  Var x{"x"}, y{"y"};
  Func Blurx, Out;
  int W = 64, H = 48;

  BlurFixture()
      : In(UInt(8), 2, "opt_in"), Blurx("opt_blurx"), Out("opt_out") {
    auto InC = [&](Expr X, Expr Y) {
      return cast(UInt(16), In(clamp(X, 0, In.width() - 1),
                               clamp(Y, 0, In.height() - 1)));
    };
    Blurx(x, y) =
        cast(UInt(16), (InC(x - 1, y) + InC(x, y) + InC(x + 1, y)) / 3);
    Out(x, y) = cast(UInt(8),
                     (Blurx(x, y - 1) + Blurx(x, y) + Blurx(x, y + 1)) / 3);
  }

  ExecutionStats run(Buffer<uint8_t> *OutImg = nullptr,
                     const Engine &E = Target()) {
    Buffer<uint8_t> Input(W, H);
    Input.fill([](int X, int Y) { return (X * 23 + Y * 7) % 256; });
    Buffer<uint8_t> Output(W, H);
    ParamBindings Params;
    Params.bind("opt_in", Input);
    ExecutionStats Stats = realizeOn(E, Pipeline(Out), Output.raw(), Params);
    if (OutImg)
      *OutImg = Output;
    return Stats;
  }
};

} // namespace

TEST(SlidingWindowTest, EliminatesRecomputation) {
  BlurFixture F;
  F.Blurx.storeRoot().computeAt(F.Out, F.y);
  ExecutionStats Stats = F.run();
  // Exactly one compute per point: W x (H + 2) scanlines of blurx.
  EXPECT_EQ(Stats.StoresPerBuffer[F.Blurx.name()],
            int64_t(F.W) * (F.H + 2));
}

TEST(SlidingWindowTest, WithoutItRecomputes) {
  BlurFixture F;
  F.Blurx.storeRoot().computeAt(F.Out, F.y);
  ExecutionStats Stats = F.run(nullptr, Target().withoutSlidingWindow());
  // Each of the H iterations computes a full 3-scanline window.
  EXPECT_EQ(Stats.StoresPerBuffer[F.Blurx.name()],
            int64_t(F.W) * F.H * 3);
}

TEST(SlidingWindowTest, ResultUnchanged) {
  BlurFixture A, B;
  A.Blurx.storeRoot().computeAt(A.Out, A.y);
  B.Blurx.storeRoot().computeAt(B.Out, B.y);
  Buffer<uint8_t> WithOpt, WithoutOpt;
  A.run(&WithOpt);
  B.run(&WithoutOpt, Target().withoutSlidingWindow());
  for (int Y = 0; Y < A.H; ++Y)
    for (int X = 0; X < A.W; ++X)
      ASSERT_EQ(WithOpt(X, Y), WithoutOpt(X, Y));
}

TEST(StorageFoldingTest, ShrinksPeakMemory) {
  BlurFixture F;
  F.Blurx.storeRoot().computeAt(F.Out, F.y);
  ExecutionStats Folded = F.run();
  BlurFixture G;
  G.Blurx.storeRoot().computeAt(G.Out, G.y);
  ExecutionStats Unfolded =
      G.run(nullptr, Target().withoutStorageFolding());
  // Unfolded: the full blurx plane. Folded: a few scanlines.
  EXPECT_GE(Unfolded.PeakAllocationBytes,
            int64_t(F.W) * (F.H + 2) * 2);
  EXPECT_LE(Folded.PeakAllocationBytes, int64_t(F.W) * 8 * 2);
  EXPECT_LT(Folded.PeakAllocationBytes, Unfolded.PeakAllocationBytes / 4);
}

TEST(StorageFoldingTest, FoldedIndexingIsCorrect) {
  BlurFixture F;
  F.Blurx.storeRoot().computeAt(F.Out, F.y);
  Buffer<uint8_t> Got;
  F.run(&Got);
  Buffer<uint8_t> Input(F.W, F.H);
  Input.fill([](int X, int Y) { return (X * 23 + Y * 7) % 256; });
  Buffer<uint8_t> Want(F.W, F.H);
  baselines::blurReference(Input, Want);
  for (int Y = 0; Y < F.H; ++Y)
    for (int X = 0; X < F.W; ++X)
      ASSERT_EQ(Got(X, Y), Want(X, Y)) << X << "," << Y;
}

TEST(StorageFoldingTest, NoFoldAcrossParallelLoop) {
  // A parallel intervening loop must not slide (no unique first iteration).
  BlurFixture F;
  F.Out.parallel(F.y);
  F.Blurx.storeRoot().computeAt(F.Out, F.y);
  ExecutionStats Stats = F.run();
  // Without sliding, each iteration computes its full window.
  EXPECT_EQ(Stats.StoresPerBuffer[F.Blurx.name()],
            int64_t(F.W) * F.H * 3);
}

namespace {

/// Measures a schedule of the blur fixture through ScheduleMetrics.
StrategyMetrics measureStrategy(BlurFixture &F, const char *Name,
                                const Target &T = Target()) {
  Buffer<uint8_t> Input(F.W, F.H);
  Input.fill([](int X, int Y) { return (X * 23 + Y * 7) % 256; });
  Buffer<uint8_t> Output(F.W, F.H);
  ParamBindings Params;
  Params.bind("opt_in", Input);
  Params.bind(F.Out.name(), Output);
  LoweredPipeline LP = lower(F.Out.function(), T);
  return analyzeStrategy(Name, LP, Params, 0);
}

} // namespace

TEST(SlidingFoldingInteraction, Figure3FootprintsViaMetrics) {
  // Figure 3's three blur strategies must land on their characteristic
  // intermediate-storage footprints (measured via ScheduleMetrics):
  // breadth-first materializes the whole blurx plane, full fusion
  // allocates nothing, and sliding window keeps a few folded scanlines.
  BlurFixture Breadth;
  Breadth.Blurx.computeRoot();
  StrategyMetrics BF = measureStrategy(Breadth, "breadth_first");
  int64_t FullPlane = int64_t(Breadth.W) * (Breadth.H + 2) * 2; // uint16
  EXPECT_GE(BF.PeakMemoryBytes, FullPlane);
  EXPECT_LE(BF.PeakMemoryBytes, FullPlane * 5 / 4);

  BlurFixture Fused; // inline schedule: no intermediate at all
  StrategyMetrics FU = measureStrategy(Fused, "full_fusion");
  EXPECT_EQ(FU.PeakMemoryBytes, 0);

  BlurFixture Sliding;
  Sliding.Blurx.storeRoot().computeAt(Sliding.Out, Sliding.y);
  StrategyMetrics SW = measureStrategy(Sliding, "sliding_window");
  EXPECT_GT(SW.PeakMemoryBytes, 0);
  EXPECT_LE(SW.PeakMemoryBytes, int64_t(Sliding.W) * 8 * 2);
  EXPECT_LT(SW.PeakMemoryBytes, BF.PeakMemoryBytes / 4);
}

TEST(SlidingFoldingInteraction, FoldingNeedsSlidingForFootprintWin) {
  // The two passes compose: sliding window alone trims recomputation but
  // (without folding) still allocates the full plane; with folding the
  // same schedule shrinks to a rolling window. Either way the compute
  // count stays one-store-per-point.
  BlurFixture WithBoth;
  WithBoth.Blurx.storeRoot().computeAt(WithBoth.Out, WithBoth.y);
  StrategyMetrics Both = measureStrategy(WithBoth, "slide+fold");

  BlurFixture NoFold;
  NoFold.Blurx.storeRoot().computeAt(NoFold.Out, NoFold.y);
  StrategyMetrics SlideOnly =
      measureStrategy(NoFold, "slide_only", Target().withoutStorageFolding());

  int64_t FullPlane = int64_t(NoFold.W) * (NoFold.H + 2) * 2;
  EXPECT_GE(SlideOnly.PeakMemoryBytes, FullPlane);
  EXPECT_LT(Both.PeakMemoryBytes, SlideOnly.PeakMemoryBytes / 4);
  // Work (loads+stores) is identical: folding changes where values live,
  // never how many times they are computed.
  EXPECT_EQ(Both.MemoryOps, SlideOnly.MemoryOps);
}

TEST(WorkAmplificationTest, MatchesPaperFigure3Shape) {
  // Figure 3: full fusion has ~2x work amplification for the two-stage
  // blur (3 recomputes per consumer sample amortized); breadth-first is
  // 1.0x by definition; tiling costs a small boundary factor.
  BlurFixture BF;
  BF.Blurx.computeRoot();
  int64_t BreadthStores = BF.run().totalStores();

  BlurFixture Fused; // inline
  int64_t FusedStores = Fused.run().totalStores();
  // blurx is recomputed 3x per output point but adds no stores; total
  // output stores equal; instead compare *loads* of the input.
  BlurFixture BF2;
  BF2.Blurx.computeRoot();
  ExecutionStats S2 = BF2.run();
  BlurFixture Fused2;
  ExecutionStats SF = Fused2.run();
  EXPECT_GT(SF.LoadsPerBuffer["opt_in"],
            2 * S2.LoadsPerBuffer["opt_in"]);
  (void)BreadthStores;
  (void)FusedStores;

  BlurFixture Tiled;
  {
    Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
    Tiled.Out.tile(Tiled.x, Tiled.y, xo, yo, xi, yi, 16, 8);
    Tiled.Blurx.computeAt(Tiled.Out, xo);
  }
  ExecutionStats ST = Tiled.run();
  double Amp = double(ST.StoresPerBuffer[Tiled.Blurx.name()]) /
               double(64 * 48);
  EXPECT_GT(Amp, 1.0);
  EXPECT_LT(Amp, 1.5); // small ghost-zone overhead only
}

namespace {

/// The loops named \p Name in \p S, in program order.
std::vector<const For *> loopsNamed(const Stmt &S, const std::string &Name) {
  struct Finder : IRVisitor {
    const std::string &Name;
    std::vector<const For *> Found;
    explicit Finder(const std::string &Name) : Name(Name) {}
    void visit(const For *Op) override {
      if (Op->Name == Name)
        Found.push_back(Op);
      IRVisitor::visit(Op);
    }
  } F(Name);
  S.accept(&F);
  return F.Found;
}

/// The values of the lets in \p S, keyed by name.
std::map<std::string, Expr> letValues(const Stmt &S) {
  struct Finder : IRVisitor {
    std::map<std::string, Expr> Values;
    void visit(const LetStmt *Op) override {
      Values[Op->Name] = Op->Value;
      IRVisitor::visit(Op);
    }
  } F;
  S.accept(&F);
  return F.Values;
}

/// Number of loops partitionLoops split in \p S (one steady-range let each).
int partitionedLoopCount(const Stmt &S) {
  struct Counter : IRVisitor {
    int Count = 0;
    void visit(const LetStmt *Op) override {
      const std::string &N = Op->Name;
      Count += N.size() > 13 &&
               N.compare(N.size() - 13, 13, ".steady_begin") == 0;
      IRVisitor::visit(Op);
    }
  } C;
  S.accept(&C);
  return C.Count;
}

/// The steady range [begin, end) partitionLoops computed for the loop
/// \p Loop of \p S, evaluated with the values in \p Frame (the buffer
/// metadata of one realization).
std::pair<int64_t, int64_t> steadyRange(const Stmt &S, const std::string &Loop,
                                        std::map<std::string, Expr> Frame) {
  std::map<std::string, Expr> Lets = letValues(S);
  const std::string BeginName = Loop + ".steady_begin",
                    EndName = Loop + ".steady_end";
  int64_t Begin = -1, End = -1;
  if (!Lets.count(BeginName) || !Lets.count(EndName)) {
    ADD_FAILURE() << "loop " << Loop << " is not partitioned";
    return {Begin, End};
  }
  EXPECT_TRUE(proveConstInt(substitute(Frame, Lets[BeginName]), &Begin));
  Frame[BeginName] = Expr(int(Begin));
  EXPECT_TRUE(proveConstInt(substitute(Frame, Lets[EndName]), &End));
  return {Begin, End};
}

/// Buffer metadata of a 1-D realization over [OutMin, OutMin + OutWidth)
/// from an input of width \p InWidth.
std::map<std::string, Expr> frame1D(const std::string &In, int InWidth,
                                    const std::string &Out, int OutMin,
                                    int OutWidth) {
  return {{bufferMinName(In, 0), Expr(0)},
          {bufferExtentName(In, 0), Expr(InWidth)},
          {bufferMinName(Out, 0), Expr(OutMin)},
          {bufferExtentName(Out, 0), Expr(OutWidth)}};
}

/// True if a load of \p Buf in \p S indexes through a min or max that uses
/// \p Var, looking through the lets common-subexpression elimination made.
bool loadIndexClampsVar(const Stmt &S, const std::string &Buf,
                        const std::string &Var) {
  struct Checker : IRVisitor {
    const std::string &Buf, &Var;
    std::map<std::string, Expr> Lets;
    bool Found = false;
    Checker(const std::string &Buf, const std::string &Var)
        : Buf(Buf), Var(Var) {}
    void bind(const std::string &Name, const Expr &Value) {
      Lets[Name] = substitute(Lets, Value);
    }
    void visit(const Let *Op) override {
      bind(Op->Name, Op->Value);
      IRVisitor::visit(Op);
    }
    void visit(const LetStmt *Op) override {
      bind(Op->Name, Op->Value);
      IRVisitor::visit(Op);
    }
    void visit(const Load *Op) override {
      IRVisitor::visit(Op);
      if (Op->Name != Buf)
        return;
      struct MinMaxOfVar : IRVisitor {
        const std::string &Var;
        bool Found = false;
        explicit MinMaxOfVar(const std::string &Var) : Var(Var) {}
        void visit(const Min *Op) override {
          Found |= exprUsesVar(Op->A, Var) || exprUsesVar(Op->B, Var);
        }
        void visit(const Max *Op) override {
          Found |= exprUsesVar(Op->A, Var) || exprUsesVar(Op->B, Var);
        }
      } M(Var);
      substitute(Lets, Op->Index).accept(&M);
      Found |= M.Found;
    }
  } C(Buf, Var);
  S.accept(&C);
  return C.Found;
}

} // namespace

TEST(PartitionLoopsTest, BreadthFirstBlurSplitsAroundClampFreeSteadyState) {
  BlurFixture F;
  F.Blurx.computeRoot();
  LoweredPipeline LP = lower(F.Out.function());
  const std::string X = F.Blurx.name() + ".x";
  std::vector<const For *> Loops = loopsNamed(LP.Body, X);
  ASSERT_EQ(Loops.size(), 3u);
  EXPECT_TRUE(loadIndexClampsVar(Loops[0]->Body, "opt_in", X));
  EXPECT_FALSE(loadIndexClampsVar(Loops[1]->Body, "opt_in", X));
  EXPECT_TRUE(loadIndexClampsVar(Loops[2]->Body, "opt_in", X));
  // The consumer reads blurx without clamps: nothing to partition.
  EXPECT_EQ(loopsNamed(LP.Body, F.Out.name() + ".x").size(), 1u);
  EXPECT_EQ(partitionedLoopCount(LP.Body), 1);
}

TEST(PartitionLoopsTest, VectorLoopsAndStridedClampsAreLeftAlone) {
  // Tuned blur: every x loop is vectorized, so its taps keep the
  // backends' clamped dense loads.
  App Blur = makeBlurApp();
  Blur.ScheduleTuned();
  EXPECT_EQ(partitionedLoopCount(lower(Blur.Output.function()).Body), 0);

  // Tuned bilateral grid: the innermost reduction loop over r.y clamps
  // the row coordinate, whose read stays strided by a row per iteration.
  App Grid = makeBilateralGridApp();
  Grid.ScheduleTuned();
  LoweredPipeline LP = lower(Grid.Output.function());
  struct RyLoops : IRVisitor {
    std::vector<const For *> Found;
    void visit(const For *Op) override {
      const std::string &N = Op->Name;
      if (N.size() > 2 && N.compare(N.size() - 2, 2, "$y") == 0)
        Found.push_back(Op);
      IRVisitor::visit(Op);
    }
  } Ry;
  LP.Body.accept(&Ry);
  ASSERT_EQ(Ry.Found.size(), 1u);
  EXPECT_TRUE(loadIndexClampsVar(Ry.Found[0]->Body, "bg_input",
                                 Ry.Found[0]->Name));
  EXPECT_EQ(partitionedLoopCount(LP.Body), 0);

  // A clamped tap that reads every other element is strided too.
  ImageParam In(UInt(8), 1, "pl_stride_in");
  Var x("x");
  Func Down("pl_down");
  Down(x) = In(clamp(2 * x, 0, In.width() - 1));
  EXPECT_EQ(partitionedLoopCount(lower(Down.function()).Body), 0);

  // A serial loop around a vector body is left alone even where its
  // scalar clamped load is contiguous: here the x loop stores whole
  // vectors of c, each a broadcast of In[clamp(x)].
  Var c("c"), co("co"), ci("ci");
  Func Spread("pl_spread");
  Spread(c, x) = In(clamp(x, 0, In.width() - 1));
  Spread.split(c, co, ci, 4).vectorize(ci).reorder(ci, x, co);
  EXPECT_EQ(partitionedLoopCount(lower(Spread.function()).Body), 0);
}

TEST(PartitionLoopsTest, LoopBoundsThatReadMemoryAreLeftAlone) {
  // for (x, 0, n) { out[x] = in[max(min(x, 9), 0)] }: the partitioned
  // loops evaluate the extent more than once, so an extent that loads
  // would change the load counts.
  Expr X = Variable::make(Int(32), "x");
  Stmt Body = Store::make("out", Load::make(UInt(8), "in", max(min(X, 9), 0)),
                          X);
  Stmt Pure = For::make("x", 0, Variable::make(Int(32), "n"),
                        ForType::Serial, Body);
  Stmt Loads = For::make("x", 0, Load::make(Int(32), "n", 0),
                         ForType::Serial, Body);
  EXPECT_EQ(partitionedLoopCount(partitionLoops(Pure)), 1);
  EXPECT_EQ(partitionedLoopCount(partitionLoops(Loads)), 0);
}

namespace {

/// A 1-D sum of clamped taps In(clamp(s*x + Offset, 0, W - 1)), s = +-1 (a
/// mirrored tap reads In(clamp(W - 1 - x + Offset, 0, W - 1))), realized
/// over [OutMin, OutMin + OutWidth), with the steady range worked out by
/// hand.
struct TapCase {
  const char *Name;
  int InWidth;
  int OutMin, OutWidth;
  bool Mirrored;
  std::vector<int> Offsets;
  int SteadyBegin, SteadyEnd;
};

/// Prints a case by name, so the listed test names are stable across runs
/// (GoogleTest would otherwise dump the struct's bytes, pointers included).
void PrintTo(const TapCase &C, std::ostream *OS) { *OS << C.Name; }

class PartitionedTapsTest : public ::testing::TestWithParam<TapCase> {};

} // namespace

TEST_P(PartitionedTapsTest, BitExactOnEveryEngine) {
  const TapCase &C = GetParam();
  ImageParam In(UInt(8), 1, "pl_in");
  Var x("x");
  Func Out("pl_out");
  Expr Sum = cast(UInt(16), 0);
  for (int Off : C.Offsets) {
    Expr Pos = C.Mirrored ? In.width() - 1 - x + Off : x + Off;
    Sum = Sum + cast(UInt(16), In(clamp(Pos, 0, In.width() - 1)));
  }
  Out(x) = Sum;

  const Stmt Body = lower(Out.function()).Body;
  const std::string X = Out.name() + ".x";
  ASSERT_EQ(loopsNamed(Body, X).size(), 3u);
  EXPECT_EQ(steadyRange(Body, X,
                        frame1D("pl_in", C.InWidth, Out.name(), C.OutMin,
                                C.OutWidth)),
            std::make_pair(int64_t(C.SteadyBegin), int64_t(C.SteadyEnd)));

  Buffer<uint8_t> Input(C.InWidth);
  Input.fill([](int X) { return (X * 37 + 11) % 251; });
  Buffer<uint16_t> Want(C.OutWidth);
  Want.setMin(C.OutMin);
  for (int X = C.OutMin; X < C.OutMin + C.OutWidth; ++X) {
    int Total = 0;
    for (int Off : C.Offsets) {
      const int Pos = C.Mirrored ? C.InWidth - 1 - X + Off : X + Off;
      Total += Input(std::min(std::max(Pos, 0), C.InWidth - 1));
    }
    Want(X) = uint16_t(Total);
  }

  for (const Engine &E : AllEngines) {
    Buffer<uint16_t> Got(C.OutWidth);
    Got.setMin(C.OutMin);
    ParamBindings Params;
    Params.bind("pl_in", Input);
    realizeOn(E, Pipeline(Out), Got.raw(), Params);
    for (int X = C.OutMin; X < C.OutMin + C.OutWidth; ++X)
      ASSERT_EQ(Got(X), Want(X)) << engineName(E) << " at x = " << X;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeCases, PartitionedTapsTest,
    ::testing::Values(
        // Inputs narrower than the stencil: the steady range is empty.
        TapCase{"width1", 1, 0, 1, false, {-1, 0, 1}, 1, 1},
        TapCase{"width2", 2, 0, 2, false, {-1, 0, 1}, 1, 1},
        // Every tap inside the image: the steady range is the whole loop.
        TapCase{"interior_window", 64, 16, 32, false, {-1, 0, 1}, 16, 48},
        // Negative coefficient, with output columns outside the image on
        // both sides: 0 <= 15 - x + Offset <= 15 for x in [1, 15).
        TapCase{"mirrored", 16, -3, 22, true, {-1, 0, 1}, 1, 15},
        // Offsets beyond the image in both directions: no x is steady.
        TapCase{"far_taps", 8, 0, 8, false, {-20, 3, 20}, 8, 8}),
    [](const ::testing::TestParamInfo<TapCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(PartitionLoopsTest, BreadthFirstBlurCountsMatchAnalytic) {
  // The engines that count loads and stores.
  for (const Engine &E : {Engine(), Engine(Target::vm())}) {
    BlurFixture F;
    F.Blurx.computeRoot();
    ExecutionStats Stats = F.run(nullptr, E);
    const int64_t W = F.W, H = F.H;
    const std::string Name = engineName(E);
    EXPECT_EQ(Stats.LoadsPerBuffer["opt_in"], 3 * W * (H + 2)) << Name;
    EXPECT_EQ(Stats.StoresPerBuffer[F.Blurx.name()], W * (H + 2)) << Name;
    EXPECT_EQ(Stats.LoadsPerBuffer[F.Blurx.name()], 3 * W * H) << Name;
    EXPECT_EQ(Stats.StoresPerBuffer[F.Out.name()], W * H) << Name;
  }
}

TEST(PartitionLoopsTest, ClampBoundsAtInt32LimitsDoNotOverflow) {
  // A clamp side at the int32 limit (as a saturating cast leaves it) puts
  // its half-line end one past the limit: x + 1 >= INT_MIN holds for
  // x >= INT_MIN - 1, and x - 1 <= INT_MAX for x <= INT_MAX + 1. In 32-bit
  // arithmetic those wrap and would empty the steady range.
  ImageParam In(UInt(8), 1, "pl_lim_in");
  Var x("x");
  Func Out("pl_lim_out");
  Out(x) = cast(UInt(16), In(clamp(x + 1, INT_MIN, In.width() - 1))) +
           cast(UInt(16), In(clamp(x - 1, 0, INT_MAX)));

  const int W = 16;
  const Stmt Body = lower(Out.function()).Body;
  const std::string X = Out.name() + ".x";
  ASSERT_EQ(loopsNamed(Body, X).size(), 3u);
  EXPECT_EQ(steadyRange(Body, X, frame1D("pl_lim_in", W, Out.name(), 0, W)),
            std::make_pair(int64_t(1), int64_t(W - 1)));

  Buffer<uint8_t> Input(W);
  Input.fill([](int X) { return X * 3 + 1; });
  for (const Engine &E : AllEngines) {
    Buffer<uint16_t> Got(W);
    ParamBindings Params;
    Params.bind("pl_lim_in", Input);
    realizeOn(E, Pipeline(Out), Got.raw(), Params);
    for (int I = 0; I < W; ++I)
      ASSERT_EQ(Got(I),
                Input(std::min(I + 1, W - 1)) + Input(std::max(I - 1, 0)))
          << engineName(E) << " at x = " << I;
  }
}

TEST(PartitionLoopsTest, StrideTwoClampUsesFloorDivision) {
  // The index clamp(2x + 20, 0, 15) - x - 10 has stride 1 in x, but its
  // clamp's core has stride 2, so the steady range needs real division:
  // 2x + 20 >= 0 for x >= -10, and 2x + 20 <= 15 for x <= floor(-5 / 2)
  // = -3. Rounding toward zero would take x = -2 into the steady state,
  // where the dropped clamp is still active.
  ImageParam In(UInt(8), 1, "pl_div_in");
  Var x("x");
  Func Out("pl_div_out");
  Out(x) = In(clamp(2 * x + 20, 0, 15) - x - 10);

  const int OutMin = -14, OutWidth = 20;
  const Stmt Body = lower(Out.function()).Body;
  const std::string X = Out.name() + ".x";
  ASSERT_EQ(loopsNamed(Body, X).size(), 3u);
  EXPECT_EQ(steadyRange(Body, X,
                        frame1D("pl_div_in", 16, Out.name(), OutMin, OutWidth)),
            std::make_pair(int64_t(-10), int64_t(-2)));

  Buffer<uint8_t> Input(16);
  Input.fill([](int X) { return X * 7 + 3; });
  for (const Engine &E : AllEngines) {
    Buffer<uint8_t> Got(OutWidth);
    Got.setMin(OutMin);
    ParamBindings Params;
    Params.bind("pl_div_in", Input);
    realizeOn(E, Pipeline(Out), Got.raw(), Params);
    for (int I = OutMin; I < OutMin + OutWidth; ++I)
      ASSERT_EQ(Got(I), Input(std::min(std::max(2 * I + 20, 0), 15) - I - 10))
          << engineName(E) << " at x = " << I;
  }
}
