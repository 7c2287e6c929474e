//===-- tests/BackendTest.cpp - JIT vs interpreter, vector codegen -----------===//
//
// Differential tests between the C backend and the reference interpreter,
// plus checks that the C backend classifies vector accesses as the paper
// describes (dense ramp loads vs gathers), that parallel loops compile
// to closure dispatch, and that the JIT honors the thread request.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenC.h"
#include "codegen/Interpreter.h"
#include "codegen/Jit.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "runtime/GpuSim.h"
#include "runtime/TaskScheduler.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace halide;

namespace {

/// Builds a pipeline with mixed types and a stencil; scheduled by Variant.
struct MixedPipe {
  ImageParam In;
  Var x{"x"}, y{"y"};
  Func Stage1, Out;

  explicit MixedPipe(int Variant)
      : In(Float(32), 2, "be_in"), Stage1("be_stage1"), Out("be_out") {
    auto InC = [&](Expr X, Expr Y) {
      return In(clamp(X, 0, In.width() - 1), clamp(Y, 0, In.height() - 1));
    };
    Stage1(x, y) = InC(x - 1, y) * 0.25f + InC(x, y) * 0.5f +
                   InC(x + 1, y) * 0.25f + halide::sqrt(abs(InC(x, y)));
    Out(x, y) = cast(Int(16), clamp(Stage1(x, y - 1) + Stage1(x, y + 1),
                                    -30000.0f, 30000.0f));
    switch (Variant) {
    case 0:
      Stage1.computeRoot();
      break;
    case 1:
      break; // inline
    case 2: {
      Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
      Out.tile(x, y, xo, yo, xi, yi, 16, 8).vectorize(xi, 8).parallel(yo);
      Stage1.computeAt(Out, xo).vectorize(x, 4);
      break;
    }
    case 3:
      Out.vectorize(x, 8);
      Stage1.storeRoot().computeAt(Out, y).vectorize(x, 8);
      break;
    default:
      Stage1.computeRoot().parallel(y);
      Out.parallel(y);
      break;
    }
  }
};

} // namespace

class BackendParityTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendParityTest, JitMatchesInterpreter) {
  const int W = 64, H = 32;
  MixedPipe P(GetParam());

  Buffer<float> Input(W, H);
  Input.fill([](int X, int Y) {
    return float((X * 13 + Y * 29) % 101) / 17.0f - 2.0f;
  });
  ParamBindings Params;
  Params.bind("be_in", Input);

  LoweredPipeline LP = lower(P.Out.function());

  Buffer<int16_t> FromInterp(W, H);
  {
    ParamBindings PI = Params;
    PI.bind(P.Out.name(), FromInterp);
    interpret(LP, PI);
  }
  Buffer<int16_t> FromJit(W, H);
  {
    ParamBindings PJ = Params;
    PJ.bind(P.Out.name(), FromJit);
    auto CP = jitCompile(LP);
    ASSERT_EQ(CP->run(PJ), 0);
  }
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ASSERT_EQ(FromInterp(X, Y), FromJit(X, Y))
          << "variant " << GetParam() << " at (" << X << "," << Y << ")";
}

INSTANTIATE_TEST_SUITE_P(Variants, BackendParityTest,
                         ::testing::Range(0, 5));

TEST(CodeGenCTest, DenseRampLoadsAreContiguous) {
  ImageParam In(Float(32), 2, "cg_in");
  Var x("x"), y("y");
  Func F("cg_dense");
  F(x, y) = In(clamp(x, 0, In.width() - 1), clamp(y, 0, In.height() - 1)) *
            2.0f;
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  // Dense stride-1 stores use the contiguous helper, not scatters.
  EXPECT_NE(Source.find("_store(&"), std::string::npos);
  EXPECT_EQ(Source.find("_scatter"), std::string::npos);
  // The vector type was materialized.
  EXPECT_NE(Source.find("hl_f32x8"), std::string::npos);
}

TEST(CodeGenCTest, GatherForDataDependentIndex) {
  ImageParam Lut(Float(32), 1, "cg_lut");
  ImageParam Idx(UInt(8), 2, "cg_idx");
  Var x("x"), y("y");
  Func F("cg_gather");
  F(x, y) = Lut(clamp(cast(Int(32), Idx(clamp(x, 0, Idx.width() - 1),
                                        clamp(y, 0, Idx.height() - 1))),
                      0, 255));
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("_gather"), std::string::npos);
}

TEST(CodeGenCTest, ParallelLoopBecomesClosure) {
  Var x("x"), y("y");
  Func F("cg_par");
  F(x, y) = x + y;
  F.parallel(y);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("ParFor"), std::string::npos);
  EXPECT_NE(Source.find("hl_closure_"), std::string::npos);
}

TEST(CodeGenCTest, GpuLoopBecomesKernelLaunch) {
  Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
  Func F("cg_gpu");
  F(x, y) = x * y;
  F.gpuTile(x, y, bx, by, tx, ty, 8, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("GpuLaunch"), std::string::npos);
  EXPECT_NE(Source.find("hl_kernel_"), std::string::npos);
}

TEST(GpuSimTest, KernelLaunchCounting) {
  Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
  Func F("gpu_count");
  F(x, y) = x + 2 * y;
  F.gpuTile(x, y, bx, by, tx, ty, 8, 8);
  auto CP = jitCompile(lower(F.function()));
  Buffer<int32_t> Out(32, 16);
  ParamBindings Params;
  Params.bind(F.name(), Out);
  gpuSim().resetStats();
  ExecutionStats Stats;
  ASSERT_EQ(CP->run(Params, &Stats), 0);
  EXPECT_EQ(gpuSim().stats().KernelLaunches, 1);
  EXPECT_EQ(gpuSim().stats().BlocksExecuted, (32 / 8) * (16 / 8));
  EXPECT_EQ(Stats.GpuKernelLaunches, 1);
  EXPECT_EQ(Stats.GpuBlocksExecuted, (32 / 8) * (16 / 8));
  for (int Y = 0; Y < 16; ++Y)
    for (int X = 0; X < 32; ++X)
      ASSERT_EQ(Out(X, Y), X + 2 * Y);
}

TEST(JitTest, ScalarParamsThreadThrough) {
  Var x("x");
  Param<int32_t> K("jit_k");
  Param<float> S("jit_s");
  Func F("jit_params");
  F(x) = cast(Float(32), x + K) * S;
  auto CP = jitCompile(lower(F.function()));
  Buffer<float> Out(8);
  ParamBindings Params;
  Params.bind(F.name(), Out);
  Params.bindInt("jit_k", 10);
  Params.bindFloat("jit_s", 0.5);
  ASSERT_EQ(CP->run(Params), 0);
  EXPECT_FLOAT_EQ(Out(6), 8.0f);
}

TEST(JitTest, UpdateStagesRunNatively) {
  // Histogram via JIT: scatter + scan, compared against direct counting.
  ImageParam In(UInt(8), 2, "jit_hist_in");
  Var i("i");
  Func Hist("jit_hist");
  RDom R(0, In.width(), 0, In.height(), "jit_r");
  Hist(i) = cast(UInt(32), 0);
  Hist(clamp(cast(Int(32), In(R.x, R.y)), 0, 255)) += cast(UInt(32), 1);
  Hist.bound(i, 0, 256);

  const int W = 37, H = 23;
  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return (X * 5 + Y * 11) % 256; });
  Buffer<uint32_t> Out(256);
  ParamBindings Params;
  Params.bind("jit_hist_in", Input);
  Params.bind(Hist.name(), Out);
  auto CP = jitCompile(lower(Hist.function()));
  ASSERT_EQ(CP->run(Params), 0);

  std::vector<uint32_t> Want(256, 0);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ++Want[Input(X, Y)];
  for (int I = 0; I < 256; ++I)
    ASSERT_EQ(Out(I), Want[size_t(I)]) << "bin " << I;
}

TEST(JitTest, ThreadRequestsShareOneExecutable) {
  // The jit_c twin of VmBackendTest.ThreadRequestsShareOneExecutable:
  // the default request and 1, 2 and 4 threads cost one lowering and one
  // host compile, and compute the same output.
  Var x("x"), y("y");
  Func F("jit_tt_f"), G("jit_tt_g");
  F(x, y) = x + y * 5;
  G(x, y) = F(x, y) + F(x + 1, y);
  F.computeRoot().parallel(y);
  G.parallel(y);
  Pipeline Pipe(G);

  CompileCounters Before = Pipeline::compileCounters();
  Buffer<int32_t> Want(32, 16);
  Pipe.realize(Want, ParamBindings(), Target::jit());
  for (int Threads : {1, 2, 4}) {
    Buffer<int32_t> Out(32, 16);
    Pipe.realize(Out, ParamBindings(), Target::jit().withThreads(Threads));
    for (int Y = 0; Y < 16; ++Y)
      for (int X = 0; X < 32; ++X)
        ASSERT_EQ(Out(X, Y), Want(X, Y)) << Threads << " threads";
  }
  const CompileCounters After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 1);
  EXPECT_EQ(After.CacheHits - Before.CacheHits, 3);
}

TEST(JitTest, WithThreadsOneRunsEachParallelLoopAsOneChunk) {
  // The thread request reaches compiled code through the run's vtable
  // copy: on a 4-thread pool, Target::jit() cuts each parallel loop into
  // the pool default of 16 chunks, and withThreads(1) runs each loop as a
  // single chunk, with bit-identical output.
  struct PoolOfFour {
    const int Before = taskSchedulerThreads();
    PoolOfFour() { setTaskSchedulerThreads(4); }
    ~PoolOfFour() { setTaskSchedulerThreads(Before); }
  } Pool;
  Var x("x"), y("y");
  Func F("jit_t1_f"), G("jit_t1_g");
  F(x, y) = cast(Float(32), x * 3 + y) * 0.5f;
  G(x, y) = F(x, y) + F(x + 1, y) * 0.25f;
  F.computeRoot().parallel(y);
  G.parallel(y);
  Pipeline Pipe(G);

  const int W = 40, H = 32;
  auto Chunks = [&](const Target &T, Buffer<float> &Out) {
    const int64_t C0 = taskSchedulerStats().ChunksExecuted;
    Pipe.realize(Out, ParamBindings(), T);
    return taskSchedulerStats().ChunksExecuted - C0;
  };
  Buffer<float> Pooled(W, H), Serial(W, H);
  EXPECT_EQ(Chunks(Target::jit(), Pooled), 2 * 16);
  EXPECT_EQ(Chunks(Target::jit().withThreads(1), Serial), 2);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ASSERT_EQ(std::memcmp(&Pooled(X, Y), &Serial(X, Y), sizeof(float)), 0)
          << "at (" << X << "," << Y << ")";
}
