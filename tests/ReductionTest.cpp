//===-- tests/ReductionTest.cpp - Update definitions & RDoms ------------------===//

#include "analysis/Bounds.h"
#include "apps/Apps.h"
#include "ir/IRPrinter.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"

#include <gtest/gtest.h>

#include <thread>

using namespace halide;

TEST(ReductionTest, SumOverDomain) {
  Var x("x");
  Func Sum("red_sum");
  RDom R(0, 10, "rsum");
  Sum(x) = 0;
  Sum(x) += Expr(R) + x;
  Buffer<int32_t> Out(4);
  Pipeline(Sum).realize(Out);
  // sum_{r=0..9} (r + x) = 45 + 10x
  for (int X = 0; X < 4; ++X)
    EXPECT_EQ(Out(X), 45 + 10 * X);
}

TEST(ReductionTest, LexicographicOrderScan) {
  // A prefix-sum style scan whose result depends on iteration order
  // (paper: recursing in lexicographic order across the domain).
  Var i("i");
  Func Scan("red_scan");
  RDom R(1, 9, "rscan");
  Scan(i) = i;            // init: scan(i) = i
  Scan(R) = Scan(Expr(R) - 1) * 2 + 1;
  Scan.bound(i, 0, 10);
  Buffer<int32_t> Out(10);
  Pipeline(Scan).realize(Out);
  int Expected = 0; // scan(0) = 0
  EXPECT_EQ(Out(0), 0);
  for (int I = 1; I < 10; ++I) {
    Expected = Expected * 2 + 1;
    EXPECT_EQ(Out(I), Expected);
  }
}

TEST(ReductionTest, TwoDimensionalRDomOrder) {
  // r.y is the outer loop, r.x inner (lexicographic); verify by recording
  // the last writer of a single cell.
  Var x("x");
  Func Last("red_last");
  RDom R(0, 3, 0, 2, "rlast"); // x in [0,3), y in [0,2)
  Last(x) = -1;
  Last(0) = Expr(R.y) * 10 + Expr(R.x);
  Buffer<int32_t> Out(1);
  Pipeline(Last).realize(Out);
  EXPECT_EQ(Out(0), 12); // y=1, x=2 iterates last
}

TEST(ReductionTest, ScatterWithDataDependentTarget) {
  ImageParam In(UInt(8), 1, "red_scatter_in");
  Var i("i");
  Func Votes("red_votes");
  RDom R(0, In.width(), "rvote");
  Votes(i) = 0;
  Votes(clamp(cast(Int(32), In(R)) % 4, 0, 3)) += 1;
  Votes.bound(i, 0, 4);
  Buffer<uint8_t> Input(16);
  Input.fill([](int X) { return X; });
  Buffer<int32_t> Out(4);
  ParamBindings Params;
  Params.bind("red_scatter_in", Input);
  Pipeline(Votes).realize(Out, Params);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Out(I), 4);
}

TEST(ReductionTest, UpdateWithPureDimension) {
  // Per-column reduction: the pure var x survives as a loop around the
  // reduction (free variable dimension).
  ImageParam In(UInt(8), 2, "red_col_in");
  Var x("x");
  Func ColSum("red_colsum");
  RDom R(0, In.height(), "rcol");
  ColSum(x) = 0;
  ColSum(x) += cast(Int(32), In(x, R));
  const int W = 8, H = 5;
  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return X + Y; });
  Buffer<int32_t> Out(W);
  ParamBindings Params;
  Params.bind("red_col_in", Input);
  Pipeline(ColSum).realize(Out, Params);
  for (int X = 0; X < W; ++X) {
    int Want = 0;
    for (int Y = 0; Y < H; ++Y)
      Want += X + Y;
    EXPECT_EQ(Out(X), Want);
  }
}

TEST(ReductionTest, UpdateStagesNeverInline) {
  // A reduction consumed by another stage must materialize even with the
  // default (inline) schedule.
  Var x("x");
  Func Acc("red_acc"), Use("red_use");
  RDom R(0, 4, "racc");
  Acc(x) = x;
  Acc(x) += Expr(R);
  Use(x) = Acc(x) * 2;
  Buffer<int32_t> Out(4);
  Pipeline(Use).realize(Out);
  for (int X = 0; X < 4; ++X)
    EXPECT_EQ(Out(X), (X + 6) * 2);
}

TEST(ReductionTest, HistogramEqualizationEndToEnd) {
  // The paper's section-2 example, verified against a direct C++
  // implementation.
  ImageParam In(UInt(8), 2, "red_he_in");
  Var x("x"), y("y"), i("i");
  Func Hist("red_he_hist"), Cdf("red_he_cdf"), Out("red_he_out");
  RDom R(0, In.width(), 0, In.height(), "rhe");
  Hist(i) = cast(UInt(32), 0);
  Hist(clamp(cast(Int(32), In(R.x, R.y)), 0, 255)) += cast(UInt(32), 1);
  Hist.bound(i, 0, 256);
  RDom Ri(1, 255, "rhe_scan");
  Cdf(i) = cast(UInt(32), 0);
  Cdf(0) = Hist(0);
  Cdf(Ri) = Cdf(Expr(Ri) - 1) + Hist(Ri);
  Cdf.bound(i, 0, 256);
  Hist.computeRoot();
  Cdf.computeRoot();
  Expr Total = cast(Float(32), In.width() * In.height());
  Out(x, y) = cast(UInt(8),
                   clamp(cast(Float(32),
                              Cdf(clamp(cast(Int(32),
                                             In(clamp(x, 0, In.width() - 1),
                                                clamp(y, 0,
                                                      In.height() - 1))),
                                        0, 255))) /
                             Total * 255.0f,
                         0.0f, 255.0f));

  const int W = 32, H = 16;
  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return 50 + (X * 3 + Y * 7) % 100; });
  Buffer<uint8_t> Got(W, H);
  ParamBindings Params;
  Params.bind("red_he_in", Input);
  Pipeline(Out).realize(Got, Params);

  // Direct implementation.
  uint32_t H256[256] = {0};
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ++H256[Input(X, Y)];
  uint32_t C256[256];
  C256[0] = H256[0];
  for (int I = 1; I < 256; ++I)
    C256[I] = C256[I - 1] + H256[I];
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      float R8 = float(C256[Input(X, Y)]) / float(W * H) * 255.0f;
      R8 = R8 < 0 ? 0 : (R8 > 255 ? 255 : R8);
      ASSERT_EQ(int(Got(X, Y)), int(uint8_t(R8))) << X << "," << Y;
    }
}

TEST(ConcurrentBuildTest, RDomAppsBuildAndLowerOnTwoThreads) {
  // histeq and bilateral_grid both define updates over RDoms. Built and
  // lowered on two threads at once, each lowers to the program a serial
  // build gives.
  std::vector<std::function<App()>> Makers = {makeHistogramEqualizeApp,
                                              makeBilateralGridApp};
  auto tunedText = [](const std::function<App()> &Make) {
    App A = Make();
    A.ScheduleTuned();
    return Pipeline(A.Output).loweredText();
  };
  std::string Concurrent[2];
  std::thread Workers[2];
  for (int I = 0; I < 2; ++I)
    Workers[I] = std::thread(
        [&, I] { Concurrent[I] = tunedText(Makers[size_t(I)]); });
  for (std::thread &W : Workers)
    W.join();
  for (int I = 0; I < 2; ++I)
    EXPECT_TRUE(Concurrent[I] == tunedText(Makers[size_t(I)]))
        << "app " << I << " lowered differently on a worker thread";
}

TEST(ConcurrentBuildTest, TwoPipelinesCompileColdOnTwoThreads) {
  // Cold compiles of two different pipelines on two threads lower at the
  // same time: each gives the program a serial compile gives, and each
  // thread's bounds counters count only its own lowering.
  std::vector<std::function<App()>> Makers = {
      [] { return makeLocalLaplacianApp(3); }, makeInterpolateApp};
  struct Compiled {
    std::string Text;
    uint64_t EndpointsBound = 0;
  };
  auto compileCold = [](const std::function<App()> &Make) {
    App A = Make();
    A.ScheduleTuned();
    const BoundsStatistics Before = Bounds::statistics();
    std::shared_ptr<const Executable> Exe =
        Pipeline(A.Output).compile(Target::vm());
    const BoundsStatistics After = Bounds::statistics();
    return Compiled{stmtToString(Exe->pipeline().Body),
                    After.EndpointsBound - Before.EndpointsBound};
  };
  Pipeline::clearCompileCache();
  Compiled Concurrent[2];
  std::thread Workers[2];
  for (int I = 0; I < 2; ++I)
    Workers[I] = std::thread(
        [&, I] { Concurrent[I] = compileCold(Makers[size_t(I)]); });
  for (std::thread &W : Workers)
    W.join();
  for (int I = 0; I < 2; ++I) {
    const Compiled Serial = compileCold(Makers[size_t(I)]);
    EXPECT_TRUE(Concurrent[I].Text == Serial.Text)
        << "app " << I << " compiled differently on a worker thread";
    EXPECT_EQ(Concurrent[I].EndpointsBound, Serial.EndpointsBound)
        << "app " << I;
    // Every region walk binds endpoints, so a lowering that counted none
    // would mean the counters missed this thread's work.
    EXPECT_GT(Serial.EndpointsBound, 0u) << "app " << I;
  }
}
