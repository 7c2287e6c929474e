//===-- tests/ServingTest.cpp - Concurrent multi-frame serving --------------===//
//
// The pipeline-as-a-service layer: realizeAsync frames queued as async
// jobs on the work-stealing scheduler must be bit-identical (output and
// ExecutionStats) to sequential realizes, whether the in-flight frames
// share one pipeline or mix several, and frames that mix thread requests
// share one executable; concurrent JIT frames of GPU
// schedules each report only their own simulated-GPU launches; queued jobs
// run highest-priority first; the buffer pool makes steady-state serving
// allocation-free; set() on another thread gives each in-flight frame
// exactly one value; the
// JIT leaves no scratch directories behind and reports a failing host
// compiler's diagnostic; and a compile stampede of N
// identical requests does one lowering and one backend compile while the
// other N-1 wait as cache hits.
//
//===----------------------------------------------------------------------===//

#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "runtime/BufferPool.h"
#include "runtime/GpuSim.h"
#include "runtime/TaskScheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace halide;

namespace {

/// A two-stage stencil pipeline with a parallel tiled schedule — enough
/// structure to exercise internal allocations, nested parallel loops, and
/// per-schedule lowering, while staying fast enough to serve many frames.
struct ServePipe {
  ImageParam In;
  Var x{"x"}, y{"y"};
  Func Stage, Out;

  explicit ServePipe(const std::string &Tag, int Variant = 0)
      : In(Float(32), 2, Tag + "_in"), Stage(Tag + "_stage"),
        Out(Tag + "_out") {
    auto InC = [&](Expr X, Expr Y) {
      return In(clamp(X, 0, In.width() - 1), clamp(Y, 0, In.height() - 1));
    };
    Stage(x, y) = InC(x - 1, y) + InC(x, y) * 2.0f + InC(x + 1, y);
    Out(x, y) = Stage(x, y - 1) + Stage(x, y + 1) + float(Variant);
    switch (Variant) {
    case 0:
      Stage.computeRoot().parallel(y);
      Out.parallel(y);
      break;
    case 1: {
      Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
      Out.tile(x, y, xo, yo, xi, yi, 16, 8).parallel(yo);
      Stage.computeAt(Out, xo);
      break;
    }
    default:
      Stage.computeRoot();
      break;
    }
  }
};

Buffer<float> makeInput(int W, int H) {
  Buffer<float> In(W, H);
  In.fill([](int X, int Y) { return float((X * 7 + Y * 13) % 51) * 0.25f; });
  return In;
}

// Stats comparison rides on ExecutionStats::operator== (the determinism
// contract lives in runtime/ExecutionStats.h, shared with the differential
// harness and the parity tests).

/// Number of JIT scratch directories in \p Dir.
int countJitTempDirs(const std::string &Dir) {
  int Count = 0;
  if (DIR *D = opendir(Dir.c_str())) {
    while (const dirent *E = readdir(D))
      if (std::string(E->d_name).rfind("hl_jit_", 0) == 0)
        ++Count;
    closedir(D);
  }
  return Count;
}

} // namespace

TEST(ServingTest, ConcurrentFramesOfOnePipelineMatchSequential) {
  const int W = 64, H = 48, Frames = 6;
  ServePipe P("srv_one");
  Buffer<float> Input = makeInput(W, H);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Pipeline Pipe(P.Out);

  Buffer<float> Ref(W, H);
  ExecutionStats RefStats =
      Pipe.realize(Ref, Params, Target::vm());

  std::vector<Buffer<float>> Outs;
  for (int F = 0; F < Frames; ++F)
    Outs.emplace_back(W, H);
  std::vector<FrameFuture> Futures;
  for (int F = 0; F < Frames; ++F)
    Futures.push_back(
        Pipe.realizeAsync(Outs[size_t(F)], Params, Target::vm(), F % 3));
  for (int F = 0; F < Frames; ++F) {
    ExecutionStats S = Futures[size_t(F)].wait();
    EXPECT_TRUE(Futures[size_t(F)].done());
    EXPECT_EQ(S, RefStats) << "frame " << F;
    for (int Y = 0; Y < H; ++Y)
      for (int X = 0; X < W; ++X)
        ASSERT_EQ(Outs[size_t(F)](X, Y), Ref(X, Y))
            << "frame " << F << " at (" << X << "," << Y << ")";
  }
}

TEST(ServingTest, MixedThreadRequestsShareOneExecutable) {
  // In-flight frames of one pipeline that alternate a serial and a
  // 4-thread request share one compiled executable per engine: the
  // request belongs to each run. Every frame matches the first bit for
  // bit, and so do the VM's stats.
  const int W = 64, H = 48, Frames = 8;
  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(4);
  ServePipe P("srv_mixed", /*Variant=*/1);
  Buffer<float> Input = makeInput(W, H);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Pipeline Pipe(P.Out);
  for (const Target &T : {Target::vm(), Target::jit()}) {
    const CompileCounters C0 = Pipeline::compileCounters();
    std::vector<Buffer<float>> Outs;
    for (int F = 0; F < Frames; ++F)
      Outs.emplace_back(W, H);
    std::vector<FrameFuture> Futures;
    for (int F = 0; F < Frames; ++F)
      Futures.push_back(Pipe.realizeAsync(Outs[size_t(F)], Params,
                                          T.withThreads(F % 2 ? 4 : 1)));
    std::vector<ExecutionStats> Stats;
    for (const FrameFuture &Future : Futures)
      Stats.push_back(Future.wait());
    EXPECT_EQ(Pipeline::compileCounters().BackendCompiles - C0.BackendCompiles,
              1)
        << T.str();
    for (int F = 1; F < Frames; ++F) {
      EXPECT_EQ(std::memcmp(Outs[size_t(F)].data(), Outs[0].data(),
                            sizeof(float) * W * H),
                0)
          << T.str() << " frame " << F;
      EXPECT_EQ(Stats[size_t(F)], Stats[0]) << T.str() << " frame " << F;
    }
  }
  setTaskSchedulerThreads(Before);
}

TEST(ServingTest, SetDuringAsyncFramesGivesEachFrameOneValue) {
  // One thread keeps calling set() with increasing values while this one
  // submits frames of the same pipeline and the scheduler's workers run
  // them. Each frame copies the value at submission, so every frame
  // computes with exactly one of the values set, never a mix, and later
  // submissions never see older values.
  const int W = 32, H = 8, Frames = 24;
  Param<int32_t> K("srv_set_k", 0);
  Var x("x"), y("y");
  Func F("srv_set_out");
  F(x, y) = K * (x + 1) + y;
  F.parallel(y);
  Pipeline Pipe(F);
  Pipe.compile(Target::vm());

  std::atomic<bool> Done{false};
  std::atomic<int32_t> LastSet{0};
  std::thread Setter([&] {
    for (int32_t V = 1; !Done.load(); ++V) {
      K.set(V);
      LastSet.store(V);
    }
  });
  std::vector<Buffer<int32_t>> Outs;
  for (int I = 0; I < Frames; ++I)
    Outs.emplace_back(W, H);
  std::vector<FrameFuture> Futures;
  for (int I = 0; I < Frames; ++I) {
    // Let the setter move on between submissions.
    for (int32_t Seen = LastSet.load(); LastSet.load() == Seen;)
      std::this_thread::yield();
    Futures.push_back(
        Pipe.realizeAsync(Outs[size_t(I)], ParamBindings(), Target::vm()));
  }
  for (FrameFuture &Future : Futures)
    Future.wait();
  Done.store(true);
  Setter.join();

  int32_t Previous = 0;
  for (int I = 0; I < Frames; ++I) {
    const int32_t Value = Outs[size_t(I)](0, 0);
    ASSERT_GE(Value, Previous) << "frame " << I;
    ASSERT_LE(Value, LastSet.load()) << "frame " << I;
    for (int Y = 0; Y < H; ++Y)
      for (int X = 0; X < W; ++X)
        ASSERT_EQ(Outs[size_t(I)](X, Y), Value * (X + 1) + Y)
            << "frame " << I << " at (" << X << "," << Y << ")";
    Previous = Value;
  }
}

TEST(ServingTest, ConcurrentFramesOfDifferentPipelinesMatchSequential) {
  const int W = 48, H = 32, Variants = 3;
  Buffer<float> Input = makeInput(W, H);

  std::vector<std::unique_ptr<ServePipe>> Pipes;
  std::vector<Buffer<float>> Refs, Outs;
  std::vector<ExecutionStats> RefStats;
  std::vector<ParamBindings> Bindings;
  for (int V = 0; V < Variants; ++V) {
    Pipes.push_back(std::make_unique<ServePipe>(
        "srv_mix" + std::to_string(V), V));
    ParamBindings PB;
    PB.bind(Pipes.back()->In.name(), Input);
    Bindings.push_back(PB);
    Refs.emplace_back(W, H);
    RefStats.push_back(Pipeline(Pipes.back()->Out)
                           .realize(Refs.back(), PB, Target::vm()));
    Outs.emplace_back(W, H);
  }

  // All three pipelines' frames in flight at once, mixed priorities.
  std::vector<FrameFuture> Futures;
  for (int V = 0; V < Variants; ++V)
    Futures.push_back(Pipeline(Pipes[size_t(V)]->Out)
                          .realizeAsync(Outs[size_t(V)],
                                        Bindings[size_t(V)], Target::vm(),
                                        (Variants - V) % 2));
  for (int V = 0; V < Variants; ++V) {
    ExecutionStats S = Futures[size_t(V)].wait();
    EXPECT_EQ(S, RefStats[size_t(V)]) << "variant " << V;
    for (int Y = 0; Y < H; ++Y)
      for (int X = 0; X < W; ++X)
        ASSERT_EQ(Outs[size_t(V)](X, Y), Refs[size_t(V)](X, Y))
            << "variant " << V << " at (" << X << "," << Y << ")";
  }
}

TEST(ServingTest, ConcurrentGpuFramesReportOnlyTheirOwnLaunches) {
  // Two gpuTile schedules with different kernel and block counts, frames
  // of both in flight at once on the JIT: every frame must report exactly
  // its serial run's launches and blocks, however the frames interleave.
  const int W = 128, H = 64, Frames = 8;
  Buffer<float> Input = makeInput(W, H);
  Var bx("bx"), by("by"), tx("tx"), ty("ty");
  ServePipe Two("srv_gpu_two", /*Variant=*/2), One("srv_gpu_one", 2);
  Two.Stage.gpuTile(Two.x, Two.y, bx, by, tx, ty, 8, 8);
  Two.Out.gpuTile(Two.x, Two.y, bx, by, tx, ty, 8, 8);
  One.Out.gpuTile(One.x, One.y, bx, by, tx, ty, 16, 16);
  const Target T = Target::jit().withJitFlags("-O0");

  ServePipe *Pipes[2] = {&Two, &One};
  ParamBindings Bindings[2];
  ExecutionStats Serial[2];
  for (int V = 0; V < 2; ++V) {
    Bindings[V].bind(Pipes[V]->In.name(), Input);
    Buffer<float> Out(W, H);
    Serial[V] = Pipeline(Pipes[V]->Out).realize(Out, Bindings[V], T);
  }
  // Stage (W x H+2, rounded up to 8x8 tiles) and Out; then Out alone.
  EXPECT_EQ(Serial[0].GpuKernelLaunches, 2);
  EXPECT_EQ(Serial[0].GpuBlocksExecuted, (W / 8) * 9 + (W / 8) * (H / 8));
  EXPECT_EQ(Serial[1].GpuKernelLaunches, 1);
  EXPECT_EQ(Serial[1].GpuBlocksExecuted, (W / 16) * (H / 16));

  const GpuStats DeviceBefore = gpuSim().stats();
  std::vector<Buffer<float>> Outs;
  for (int F = 0; F < Frames; ++F)
    Outs.emplace_back(W, H);
  std::vector<FrameFuture> Futures;
  for (int F = 0; F < Frames; ++F)
    Futures.push_back(Pipeline(Pipes[F % 2]->Out)
                          .realizeAsync(Outs[size_t(F)], Bindings[F % 2], T,
                                        F % 3));
  for (int F = 0; F < Frames; ++F) {
    ExecutionStats S = Futures[size_t(F)].wait();
    EXPECT_EQ(S.GpuKernelLaunches, Serial[F % 2].GpuKernelLaunches)
        << "frame " << F;
    EXPECT_EQ(S.GpuBlocksExecuted, Serial[F % 2].GpuBlocksExecuted)
        << "frame " << F;
  }
  // The process-wide device totals saw every frame's launches once.
  const GpuStats DeviceAfter = gpuSim().stats();
  const int64_t PerPair =
      Serial[0].GpuKernelLaunches + Serial[1].GpuKernelLaunches;
  EXPECT_EQ(DeviceAfter.KernelLaunches - DeviceBefore.KernelLaunches,
            PerPair * Frames / 2);
  EXPECT_EQ(DeviceAfter.BlocksExecuted - DeviceBefore.BlocksExecuted,
            (Serial[0].GpuBlocksExecuted + Serial[1].GpuBlocksExecuted) *
                Frames / 2);
}

TEST(ServingTest, SteadyStateServingAllocatesNothingFresh) {
  const int W = 64, H = 48;
  ServePipe P("srv_pool");
  Buffer<float> Input = makeInput(W, H);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Pipeline Pipe(P.Out);
  Buffer<float> Out(W, H);

  // Warm up: compile, and let the pool learn this frame shape's blocks.
  for (int F = 0; F < 3; ++F)
    Pipe.realize(Out, Params, Target::vm());

  const BufferPoolStats Before = bufferPoolStats();
  for (int F = 0; F < 8; ++F)
    Pipe.realize(Out, Params, Target::vm());
  const BufferPoolStats After = bufferPoolStats();

  // Every internal allocation of the steady-state frames was served from
  // the pool: zero fresh system allocations, and the hits prove the pool
  // (not the absence of allocations) is what made that true.
  EXPECT_EQ(After.FreshAllocations - Before.FreshAllocations, 0);
  EXPECT_GT(After.PoolHits - Before.PoolHits, 0);
}

TEST(ServingTest, QueuedJobsRunHighestPriorityFirstThenFifo) {
  // On a one-thread pool there are no workers, so nothing runs until the
  // first wait() starts helping — which makes the pickup order exactly
  // observable: priority descending, submission order within a priority.
  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(1);
  std::mutex M;
  std::vector<int> Order;
  auto note = [&](int Id) {
    std::lock_guard<std::mutex> Lock(M);
    Order.push_back(Id);
  };
  AsyncJob A = submitAsyncJob([&] { note(0); }, 0);
  AsyncJob B = submitAsyncJob([&] { note(1); }, 5);
  AsyncJob C = submitAsyncJob([&] { note(2); }, 5);
  AsyncJob D = submitAsyncJob([&] { note(3); }, -1);
  EXPECT_TRUE(A.valid());
  A.wait();
  B.wait();
  C.wait();
  D.wait();
  EXPECT_TRUE(A.done() && B.done() && C.done() && D.done());
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], 1); // highest priority first
  EXPECT_EQ(Order[1], 2); // FIFO among equal priorities
  EXPECT_EQ(Order[2], 0);
  EXPECT_EQ(Order[3], 3); // lowest priority last
  setTaskSchedulerThreads(Before);
}

TEST(ServingTest, ResizeDrainsQueuedAsyncJobs) {
  // A resize must execute (not orphan) jobs still sitting in the queue —
  // on a one-thread pool there is nobody else to run them.
  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(1);
  std::atomic<int> Ran{0};
  AsyncJob A = submitAsyncJob([&] { Ran.fetch_add(1); });
  AsyncJob B = submitAsyncJob([&] { Ran.fetch_add(1); });
  setTaskSchedulerThreads(2);
  EXPECT_EQ(Ran.load(), 2);
  EXPECT_TRUE(A.done() && B.done());
  setTaskSchedulerThreads(Before);
}

TEST(ServingTest, JitLeavesNoTempDirsBehind) {
  // A private TMPDIR, so JIT compiles in concurrently running test
  // processes cannot change the count. The space in its name checks that
  // the scratch paths reach the host compiler as single arguments.
  const char *Outer = std::getenv("TMPDIR");
  std::string Private =
      std::string(Outer && *Outer ? Outer : "/tmp") + "/hl serving XXXXXX";
  ASSERT_NE(mkdtemp(Private.data()), nullptr);
  const std::string Saved = Outer ? Outer : "";
  setenv("TMPDIR", Private.c_str(), 1);

  ServePipe P("srv_jit");
  Buffer<float> Input = makeInput(32, 24);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Buffer<float> Out(32, 24);
  Pipeline(P.Out).realize(Out, Params,
                          Target::jit().withJitFlags("-O0"));
  const int Left = countJitTempDirs(Private);

  if (Outer)
    setenv("TMPDIR", Saved.c_str(), 1);
  else
    unsetenv("TMPDIR");
  EXPECT_EQ(Left, 0);
  EXPECT_EQ(rmdir(Private.c_str()), 0) << "scratch files left in " << Private;
}

TEST(ServingTest, JitScratchDirFollowsTmpdir) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServePipe P("srv_tmpdir");
  Buffer<float> Input = makeInput(32, 24);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Buffer<float> Out(32, 24);
  EXPECT_DEATH(
      {
        setenv("TMPDIR", "/nonexistent/hl_tmpdir", 1);
        Pipeline(P.Out).realize(Out, Params, Target::jit());
      },
      "could not create JIT temp directory /nonexistent/hl_tmpdir/hl_jit_");
}

TEST(ServingTest, HostCompilerFailureReportsItself) {
  // The host compiler runs without a shell, its stderr captured through
  // the spawn: a flag it rejects must still abort the compile with cc's
  // own diagnostic and the path of the source it kept.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Each dying child re-runs this body and keeps its scratch directory.
  // With TMPDIR pointing into a private directory first, every child's
  // directory lands inside it.
  const char *Outer = std::getenv("TMPDIR");
  const std::string Saved = Outer ? Outer : "";
  std::string Private =
      std::string(Outer && *Outer ? Outer : "/tmp") + "/hl_ccfail_XXXXXX";
  ASSERT_NE(mkdtemp(Private.data()), nullptr);
  setenv("TMPDIR", Private.c_str(), 1);

  ServePipe P("srv_ccfail");
  Buffer<float> Input = makeInput(32, 24);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Buffer<float> Out(32, 24);
  EXPECT_DEATH(Pipeline(P.Out).realize(
                   Out, Params, Target::jit().withJitFlags("-fno-such-flag")),
               "host C compiler failed.*-fno-such-flag.*source left at");
  // A compiler that cannot be started is named in the abort.
  EXPECT_DEATH(
      {
        setenv("PATH", "/nonexistent/hl_no_cc", 1);
        Pipeline(P.Out).realize(Out, Params, Target::jit());
      },
      "could not start the host C compiler cc: No such file");

  if (Outer)
    setenv("TMPDIR", Saved.c_str(), 1);
  else
    unsetenv("TMPDIR");
  std::filesystem::remove_all(Private);
}

TEST(CompileStampedeTest, StampedeCompilesOnceAndHitsNMinusOne) {
  // N threads race to compile the same fingerprint on the (slow) JIT
  // backend: exactly one lowering and one host-compiler run may happen;
  // the other N-1 requests must wait on the entry's latch and count as
  // cache hits — and every thread must get a working executable.
  const int N = 8;
  ServePipe P("srv_stampede");
  Pipeline Pipe(P.Out);
  const Target T = Target::jit().withJitFlags("-O0");

  const CompileCounters Before = Pipeline::compileCounters();
  std::vector<std::shared_ptr<const Executable>> Exes;
  Exes.resize(size_t(N));
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      while (!Go.load())
        std::this_thread::yield();
      Exes[size_t(I)] = Pipe.compile(T);
    });
  Go.store(true);
  for (std::thread &Th : Threads)
    Th.join();

  const CompileCounters After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 1);
  EXPECT_EQ(After.CacheHits - Before.CacheHits, N - 1);
  for (int I = 0; I < N; ++I) {
    ASSERT_NE(Exes[size_t(I)], nullptr) << "thread " << I;
    EXPECT_EQ(Exes[size_t(I)], Exes[0]) << "thread " << I;
  }

  // The artifact the stampede produced actually runs.
  Buffer<float> Input = makeInput(32, 24);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Buffer<float> Out(32, 24);
  Params.bind(P.Out.name(), Out);
  EXPECT_EQ(Exes[0]->run(Params), 0);
}

TEST(CompileStampedeTest, UnrelatedPipelinesCompileIndependently) {
  // Two different fingerprints from interleaved threads: each compiles
  // exactly once, and neither stampede's waiters block the other's
  // compile from completing (the latches are per-entry).
  const int PerPipe = 3;
  ServePipe A("srv_indep_a", 0), B("srv_indep_b", 1);
  Pipeline PipeA(A.Out), PipeB(B.Out);
  const Target T = Target::vm();

  const CompileCounters Before = Pipeline::compileCounters();
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I < PerPipe; ++I) {
    Threads.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      PipeA.compile(T);
    });
    Threads.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      PipeB.compile(T);
    });
  }
  Go.store(true);
  for (std::thread &Th : Threads)
    Th.join();

  const CompileCounters After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 2);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 2);
  EXPECT_EQ(After.CacheHits - Before.CacheHits, 2 * (PerPipe - 1));
}
