//===-- tests/ExecutionStatsParityTest.cpp -----------------------------------===//
//
// The bytecode VM reports the same ExecutionStats the reference
// interpreter (interpret()) does — load/store counts per buffer, peak
// allocation, and parallel iterations — so the Figure-3 footprint tests
// and the metrics layer can run on the VM, and the *threaded* VM
// reports stats bit-identical to the serial VM: per-worker shards merge
// deterministically, so threading never perturbs the observability
// contract. Checked on blur (breadth-first and tiled, the paper's
// canonical recomputation trade-off) and on local_laplacian at reduced
// pyramid depth.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "codegen/Interpreter.h"
#include "runtime/TaskScheduler.h"
#include "support/DiffTest.h"

#include <gtest/gtest.h>

using namespace halide;

namespace {

/// Realizes \p A's pipeline at W x H on \p T and returns the stats.
ExecutionStats statsOn(App &A, const Target &T, int W, int H,
                       RawBuffer *OutBuf = nullptr,
                       std::shared_ptr<void> *KeepOut = nullptr) {
  Pipeline Pipe(A.Output);
  ParamBindings Params = A.MakeInputs(W, H);
  std::shared_ptr<void> Keep;
  RawBuffer Out = makeAppOutput(A, W, H, &Keep);
  ExecutionStats S = Pipe.realize(Out, Params, T);
  if (OutBuf) {
    *OutBuf = Out;
    *KeepOut = Keep;
  }
  return S;
}

/// The reference interpreter's stats for \p A's pipeline at W x H.
ExecutionStats interpretedStats(App &A, int W, int H) {
  ParamBindings Params = A.MakeInputs(W, H);
  std::shared_ptr<void> Keep;
  Params.bind(A.Output.name(), makeAppOutput(A, W, H, &Keep));
  return interpret(Pipeline(A.Output).lowerPipeline(), Params);
}

void expectStatsParity(App &A, int W, int H) {
  ExecutionStats I = interpretedStats(A, W, H);
  ExecutionStats V = statsOn(A, Target::vm(), W, H);

  // ExecutionStats::operator== is the determinism contract (loads,
  // stores, peak allocation, span); mismatches print via operator<<.
  EXPECT_EQ(I, V) << A.Name;
  // Both engines saw real work.
  EXPECT_GT(V.totalStores(), 0) << A.Name;
}

/// Serial VM vs 4-thread VM: identical merged stats (loads, stores, peak
/// allocation, span) and bit-identical output, regardless of which
/// workers executed which chunks. A 4-worker pool is forced so the
/// threaded dispatch really fans out even on small CI machines.
void expectThreadedStatsDeterminism(App &A, int W, int H) {
  int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(4);
  std::shared_ptr<void> KeepS, KeepT;
  RawBuffer OutS, OutT;
  ExecutionStats Serial =
      statsOn(A, Target::vm().withThreads(1), W, H, &OutS, &KeepS);
  ExecutionStats Threaded =
      statsOn(A, Target::vm().withThreads(4), W, H, &OutT, &KeepT);
  setTaskSchedulerThreads(Before);

  EXPECT_EQ(Serial, Threaded) << A.Name;
  EXPECT_GT(Threaded.ParallelIterations, 0)
      << A.Name << ": schedule has no parallel loop to thread";
  std::string Detail;
  EXPECT_TRUE(buffersMatch(OutS, OutT, 0.0, 0, &Detail))
      << A.Name << ": " << Detail;
}

} // namespace

TEST(ExecutionStatsParityTest, BlurBreadthFirst) {
  App A = makeBlurApp();
  A.ScheduleBreadthFirst();
  expectStatsParity(A, 96, 64);
}

TEST(ExecutionStatsParityTest, BlurTiled) {
  // The tuned blur schedule is the paper's tiled + recompute variant: its
  // work amplification must be observed identically by both engines.
  App A = makeBlurApp();
  A.ScheduleTuned();
  expectStatsParity(A, 96, 64);
}

TEST(ExecutionStatsParityTest, LocalLaplacianReducedLevels) {
  App A = makeLocalLaplacianApp(/*Levels=*/3);
  A.ScheduleBreadthFirst();
  expectStatsParity(A, 64, 48);
}

TEST(ExecutionStatsParityTest, LocalLaplacianTunedReducedLevels) {
  App A = makeLocalLaplacianApp(/*Levels=*/3);
  A.ScheduleTuned();
  expectStatsParity(A, 64, 48);
}

TEST(ExecutionStatsParityTest, ThreadedBlurTiledDeterministic) {
  // The paper's tiled + parallel-strip blur: sliding window inside each
  // strip, strips threaded. Work amplification, footprint, and span must
  // come out of the 4-thread run exactly as out of the serial run.
  App A = makeBlurApp();
  A.ScheduleTuned();
  expectThreadedStatsDeterminism(A, 96, 64);
}

TEST(ExecutionStatsParityTest, ThreadedLocalLaplacianDeterministic) {
  App A = makeLocalLaplacianApp(/*Levels=*/3);
  A.ScheduleTuned();
  expectThreadedStatsDeterminism(A, 64, 48);
}

TEST(ExecutionStatsParityTest, ThreadedMatchesInterpreterStats) {
  // Transitivity spelled out: the 4-thread VM still reports exactly what
  // the reference interpreter reports.
  App A = makeBlurApp();
  A.ScheduleTuned();
  ExecutionStats I = interpretedStats(A, 96, 64);
  int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(4);
  ExecutionStats V = statsOn(A, Target::vm().withThreads(4), 96, 64);
  setTaskSchedulerThreads(Before);
  EXPECT_EQ(I, V);
}
