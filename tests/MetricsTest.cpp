//===-- tests/MetricsTest.cpp - Figure-3 metric extraction ---------------------===//
//
// Checks that the measured span / reuse-distance / work-amplification
// metrics reproduce the *shape* of the paper's Figure 3 for the two-stage
// blur: breadth-first has huge reuse distance and no redundant work; full
// fusion doubles the work with tiny reuse distance; sliding window gets
// both but surrenders parallelism; tiles sit in between.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "lang/ImageParam.h"
#include "metrics/ScheduleMetrics.h"
#include "support/DiffTest.h"
#include "transforms/Lower.h"

#include <gtest/gtest.h>

using namespace halide;

namespace {

struct MetricsFixture {
  App A;
  int W = 64, H = 48;
  ParamBindings Params;
  std::shared_ptr<void> KeepOut;

  explicit MetricsFixture(App From = makeBlurApp()) : A(std::move(From)) {
    Params = A.MakeInputs(W, H);
    Params.bind(A.Output.name(), makeAppOutput(A, W, H, &KeepOut));
  }

  StrategyMetrics measure(const char *Name,
                          const std::function<void()> &Sched,
                          int64_t BreadthStores = 0) {
    Sched();
    LoweredPipeline LP = lower(A.Output.function());
    return analyzeStrategy(Name, LP, Params, BreadthStores);
  }
};

} // namespace

TEST(MetricsTest, Figure3Shape) {
  MetricsFixture F;
  StrategyMetrics BreadthFirst =
      F.measure("breadth_first", F.A.ScheduleBreadthFirst);
  int64_t BFOps = BreadthFirst.MemoryOps;

  StrategyMetrics BF2 =
      F.measure("breadth_first", F.A.ScheduleBreadthFirst, BFOps);
  EXPECT_NEAR(BF2.WorkAmplification, 1.0, 0.05);

  StrategyMetrics Tuned = F.measure("tuned", F.A.ScheduleTuned, BFOps);
  // Sliding-in-strips recomputes two scanlines per 16-scanline strip.
  EXPECT_GT(Tuned.WorkAmplification, 1.0);
  EXPECT_LT(Tuned.WorkAmplification, 1.6);

  // Locality: the tuned schedule's max reuse distance is far smaller than
  // breadth-first's (which spans the whole blurx plane).
  EXPECT_LT(Tuned.MaxReuseDistance, BreadthFirst.MaxReuseDistance / 4);

  // Parallelism: the tuned schedule exposes parallel strip iterations.
  EXPECT_GT(Tuned.Span, 1);

  // Memory: the tuned schedule folds blurx into a few scanlines per strip.
  EXPECT_LT(Tuned.PeakMemoryBytes, BreadthFirst.PeakMemoryBytes);
}

TEST(MetricsTest, TunedInterpolateDoesNoExtraWork) {
  // Tuned interpolate computes every pyramid level and x-pass once at
  // root, as breadth-first does; its parallel scanlines recompute nothing.
  MetricsFixture F(makeInterpolateApp());
  StrategyMetrics BreadthFirst =
      F.measure("breadth_first", F.A.ScheduleBreadthFirst);
  StrategyMetrics Tuned =
      F.measure("tuned", F.A.ScheduleTuned, BreadthFirst.MemoryOps);
  EXPECT_LE(Tuned.WorkAmplification, 1.0);
}

TEST(MetricsTest, BenchmarkMsPositive) {
  MetricsFixture F;
  F.A.ScheduleTuned();
  auto CP = Pipeline(F.A.Output).compile(Target::jit());
  double Ms = benchmarkMs(*CP, F.Params, 3);
  EXPECT_GT(Ms, 0.0);
  EXPECT_LT(Ms, 10000.0);
}
