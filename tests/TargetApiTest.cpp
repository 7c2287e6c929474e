//===-- tests/TargetApiTest.cpp - Target/compile/realize API ----------------===//
//
// The unified execution API: Target-directed dispatch, the compiled-
// pipeline cache (compile-once-run-many, fingerprint invalidation on
// schedule changes), Param<T>/ImageParam argument inference with clear
// user_errors on the unbound, type-mismatch and same-name paths, and the
// TileSpec / variadic scheduling sugar.
//
//===----------------------------------------------------------------------===//

#include "codegen/Interpreter.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "vm/VmExecutable.h"

#include <gtest/gtest.h>

using namespace halide;

namespace {

/// A two-stage pipeline with an input image and two scalar params.
struct ParamPipe {
  ImageParam In;
  Param<int32_t> Gain;
  Param<float> Offset;
  Var x{"x"}, y{"y"};
  Func F;

  explicit ParamPipe(const std::string &Tag)
      : In(UInt(8), 2, Tag + "_in"), Gain(Tag + "_gain"),
        Offset(Tag + "_offset"), F(Tag + "_out") {
    F(x, y) = cast(Float(32), In(clamp(x, 0, In.width() - 1),
                                 clamp(y, 0, In.height() - 1)) *
                                  Gain) +
              Offset;
  }
};

Buffer<uint8_t> makeInput(int W, int H) {
  Buffer<uint8_t> B(W, H);
  B.fill([](int X, int Y) { return (X * 7 + Y * 13) % 256; });
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compile-cache behaviour.
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, UnchangedScheduleCompilesOnce) {
  Var x("x"), y("y");
  Func F("cc_f"), G("cc_g");
  F(x, y) = x + y * 3;
  G(x, y) = F(x, y) + F(x + 1, y);
  F.computeRoot();
  Pipeline Pipe(G);

  CompileCounters Before = Pipeline::compileCounters();
  Buffer<int32_t> Out1(16, 8), Out2(16, 8);
  Pipe.realize(Out1, ParamBindings(), Target::jit());
  Pipe.realize(Out2, ParamBindings(), Target::jit());

  const CompileCounters &After = Pipeline::compileCounters();
  // One lowering, one host-compiler invocation; the second realize is a
  // pure cache hit (the acceptance criterion for compile-once-run-many).
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 1);
  EXPECT_GE(After.CacheHits - Before.CacheHits, 1);

  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 16; ++X) {
      EXPECT_EQ(Out1(X, Y), (X + Y * 3) + (X + 1 + Y * 3));
      EXPECT_EQ(Out2(X, Y), Out1(X, Y));
    }
}

TEST(CompileCacheTest, ScheduleTouchInvalidatesFingerprint) {
  Var x("x"), y("y");
  Func F("ci_f"), G("ci_g");
  F(x, y) = x * 2 + y;
  G(x, y) = F(x, y) + 1;
  F.computeRoot();
  Pipeline Pipe(G);
  Buffer<int32_t> Out(16, 8);

  Pipe.realize(Out, ParamBindings(), Target::jit());
  std::string FpBefore = Pipe.scheduleFingerprint();

  CompileCounters Mid = Pipeline::compileCounters();
  // Touching any stage's schedule must produce a different fingerprint and
  // force a fresh lower + compile.
  G.vectorize(x, 4);
  EXPECT_NE(Pipe.scheduleFingerprint(), FpBefore);
  Pipe.realize(Out, ParamBindings(), Target::jit());
  const CompileCounters &After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Mid.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Mid.BackendCompiles, 1);

  // Restoring an identical schedule restores the fingerprint, and the
  // original artifact is served from the cache without recompiling.
  G.function().resetSchedule();
  F.computeRoot();
  EXPECT_EQ(Pipe.scheduleFingerprint(), FpBefore);
  CompileCounters Mid2 = Pipeline::compileCounters();
  Pipe.realize(Out, ParamBindings(), Target::jit());
  const CompileCounters &Final = Pipeline::compileCounters();
  EXPECT_EQ(Final.Lowerings - Mid2.Lowerings, 0);
  EXPECT_EQ(Final.BackendCompiles - Mid2.BackendCompiles, 0);
  EXPECT_GE(Final.CacheHits - Mid2.CacheHits, 1);
}

TEST(CompileCacheTest, ReusedNameWithNewDefinitionDoesNotAlias) {
  // Stages of different pipelines may share a name. The first stage's
  // artifacts stay in the compile cache, so the fingerprint's
  // process-unique function id is all that keeps the second definition
  // from being served the first one's program.
  Buffer<int32_t> Out1(8), Out2(8);
  {
    Var x("x");
    Func F("cr_f");
    F(x) = x * 2;
    Pipeline(F).realize(Out1, ParamBindings(), Target::jit());
  }
  {
    Var x("x");
    Func F("cr_f");
    F(x) = x * 2 + 1;
    EXPECT_EQ(F.name(), "cr_f"); // the name really was reused
    Pipeline(F).realize(Out2, ParamBindings(), Target::jit());
  }
  for (int X = 0; X < 8; ++X) {
    EXPECT_EQ(Out1(X), X * 2);
    EXPECT_EQ(Out2(X), X * 2 + 1);
  }
}

TEST(CompileCacheTest, BackendsShareOneLowering) {
  Var x("x"), y("y");
  Func F("cs_f");
  F(x, y) = x + 10 * y;
  Pipeline Pipe(F);
  Buffer<int32_t> OutV(8, 8), OutJ(8, 8), OutI(8, 8);

  CompileCounters Before = Pipeline::compileCounters();
  Pipe.realize(OutV, ParamBindings(), Target::vm());
  Pipe.realize(OutJ, ParamBindings(), Target::jit());
  // The reference interpreter walks that same lowering.
  ParamBindings Ref;
  Ref.bind(F.name(), OutI);
  interpret(Pipe.lowerPipeline(), Ref);
  const CompileCounters &After = Pipeline::compileCounters();
  // The VM and the JIT key their executables separately (one backend
  // compile each) but share the lowered pipeline.
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 2);

  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 8; ++X) {
      EXPECT_EQ(OutV(X, Y), OutI(X, Y));
      EXPECT_EQ(OutJ(X, Y), OutI(X, Y));
    }
}

TEST(CompileCacheTest, LoweringFlagsAreInTheFingerprint) {
  Var x("x"), y("y");
  Func F("cf_f");
  F(x, y) = x + y;
  Pipeline Pipe(F);
  EXPECT_NE(Pipe.scheduleFingerprint(Target()),
            Pipe.scheduleFingerprint(Target().withoutSlidingWindow()));
  EXPECT_EQ(Pipe.scheduleFingerprint(Target::vm()),
            Pipe.scheduleFingerprint(Target::jit()));
}

//===----------------------------------------------------------------------===//
// Target dispatch.
//===----------------------------------------------------------------------===//

TEST(TargetTest, ParseRoundTrips) {
  Target T;
  EXPECT_TRUE(Target::parse("vm", &T));
  EXPECT_EQ(T.TargetBackend, Backend::VmBytecode);
  EXPECT_TRUE(Target::parse("vm_bytecode", &T));
  EXPECT_EQ(T.TargetBackend, Backend::VmBytecode);
  EXPECT_TRUE(Target::parse("jit", &T));
  EXPECT_EQ(T.TargetBackend, Backend::JitC);
  EXPECT_TRUE(Target::parse("jit_c", &T));
  EXPECT_EQ(T.TargetBackend, Backend::JitC);
  EXPECT_TRUE(Target::parse("jit-no_sliding_window", &T));
  EXPECT_TRUE(T.DisableSlidingWindow);
  EXPECT_TRUE(Target::parse("vm-threads4", &T));
  EXPECT_EQ(T.TargetBackend, Backend::VmBytecode);
  EXPECT_EQ(T.NumThreads, 4);
  EXPECT_EQ(T.str(), "vm_bytecode-threads4");
  EXPECT_EQ(Target::vm().withThreads(4), T);
  // The thread request is an execution knob, not a lowering flag.
  EXPECT_EQ(T.lowerOptionsFingerprint(), Target::vm().lowerOptionsFingerprint());
  EXPECT_FALSE(Target::parse("vm-threads0", &T));
  EXPECT_FALSE(Target::parse("cuda", &T));
}

TEST(TargetTest, ParseRejectsRetiredBackends) {
  // The interpreter is the tests' reference, not a backend, and GPU
  // schedules run on the JIT, so neither names a target.
  Target T = Target::jit();
  for (const char *Name : {"interp", "interpreter", "gpu", "gpu_sim"}) {
    EXPECT_FALSE(Target::parse(Name, &T)) << Name;
    EXPECT_EQ(T, Target::jit()) << Name; // left alone on failure
  }
}

TEST(TargetTest, DefaultTargetCompilesToTheVm) {
  Var x("x"), y("y");
  Func F("td_f");
  F(x, y) = x * 5 + y;
  EXPECT_EQ(Target(), Target::vm());
  CompileCounters Before = Pipeline::compileCounters();
  std::shared_ptr<const Executable> Exe = Pipeline(F).compile();
  EXPECT_EQ(Pipeline::compileCounters().BackendCompiles -
                Before.BackendCompiles,
            1);
  EXPECT_NE(dynamic_cast<const VmExecutable *>(Exe.get()), nullptr);
}

TEST(TargetTest, JitRunReportsItsKernelLaunches) {
  // A gpuTile schedule needs no target of its own: the JIT launches its
  // block loops on the simulated device and counts them per run.
  Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
  Func F("tg_gpu");
  F(x, y) = x * 3 + y;
  F.gpuTile(x, y, bx, by, tx, ty, 8, 8);
  Pipeline Pipe(F);
  Buffer<int32_t> Out(32, 16);
  for (int Run = 0; Run < 2; ++Run) {
    ExecutionStats Stats = Pipe.realize(Out, ParamBindings(), Target::jit());
    EXPECT_EQ(Stats.GpuKernelLaunches, 1);
    EXPECT_EQ(Stats.GpuBlocksExecuted, (32 / 8) * (16 / 8));
  }
  for (int Y = 0; Y < 16; ++Y)
    for (int X = 0; X < 32; ++X)
      ASSERT_EQ(Out(X, Y), X * 3 + Y);
}

TEST(TargetTest, InterpreterStillGathersStats) {
  Var x("x"), y("y");
  Func F("ts_f"), G("ts_g");
  F(x, y) = x + y;
  G(x, y) = F(x, y) * 2;
  F.computeRoot();
  Buffer<int32_t> Out(8, 4);
  ParamBindings Params;
  Params.bind(G.name(), Out);
  ExecutionStats Stats = interpret(Pipeline(G).lowerPipeline(), Params);
  EXPECT_EQ(Stats.StoresPerBuffer[F.name()], int64_t(8 * 4));
}

//===----------------------------------------------------------------------===//
// Param<T> / ImageParam argument inference.
//===----------------------------------------------------------------------===//

TEST(ParamInferTest, BoundParamsResolveOnBothBackends) {
  ParamPipe P("pi_a");
  Buffer<uint8_t> Input = makeInput(16, 8);
  P.In.set(Input);
  P.Gain.set(3);
  P.Offset.set(0.5f);

  Pipeline Pipe(P.F);
  Buffer<float> OutV(16, 8), OutJ(16, 8), OutI(16, 8);
  Pipe.realize(OutV, ParamBindings(), Target::vm());
  Pipe.realize(OutJ, ParamBindings(), Target::jit());
  // The reference interpreter, with the same values bound by hand.
  ParamBindings Ref;
  Ref.bind(P.In.name(), Input);
  Ref.bindInt(P.Gain.name(), 3);
  Ref.bindFloat(P.Offset.name(), 0.5);
  Ref.bind(P.F.name(), OutI);
  interpret(Pipe.lowerPipeline(), Ref);
  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 16; ++X) {
      EXPECT_FLOAT_EQ(OutI(X, Y), float(Input(X, Y)) * 3 + 0.5f);
      EXPECT_EQ(OutV(X, Y), OutI(X, Y));
      EXPECT_EQ(OutJ(X, Y), OutI(X, Y));
    }

  // Re-setting a Param does not touch the schedule fingerprint: the next
  // realize reuses the compiled artifact with the new value.
  CompileCounters Before = Pipeline::compileCounters();
  P.Gain.set(5);
  Pipe.realize(OutJ, ParamBindings(), Target::jit());
  EXPECT_EQ(Pipeline::compileCounters().BackendCompiles,
            Before.BackendCompiles);
  EXPECT_FLOAT_EQ(OutJ(1, 1), float(Input(1, 1)) * 5 + 0.5f);

  EXPECT_EQ(P.Gain.get(), 5);
}

TEST(ParamInferTest, ExplicitBindingsStillWinOverRegistry) {
  ParamPipe P("pi_b");
  Buffer<uint8_t> Input = makeInput(8, 8);
  P.In.set(Input);
  P.Gain.set(2);
  P.Offset.set(0.0f);
  ParamBindings Explicit;
  Explicit.bindInt(P.Gain.name(), 7); // overrides the Param's value
  Buffer<float> Out(8, 8);
  Pipeline(P.F).realize(Out, Explicit);
  EXPECT_FLOAT_EQ(Out(2, 3), float(Input(2, 3)) * 7);
}

TEST(ParamInferTest, InferArgumentsReportsSignature) {
  ParamPipe P("pi_c");
  std::vector<Argument> Args = Pipeline(P.F).inferArguments();
  ASSERT_EQ(Args.size(), 4u);
  EXPECT_EQ(Args[0].Name, P.F.name());
  EXPECT_EQ(Args[0].ArgKind, Argument::Kind::OutputBuffer);
  EXPECT_EQ(Args[0].ArgType, Float(32));
  EXPECT_EQ(Args[0].Dimensions, 2);
  EXPECT_EQ(Args[1].Name, P.In.name());
  EXPECT_EQ(Args[1].ArgKind, Argument::Kind::InputBuffer);
  EXPECT_EQ(Args[1].ArgType, UInt(8));
  // Scalars in name order.
  EXPECT_EQ(Args[2].Name, P.Gain.name());
  EXPECT_EQ(Args[2].ArgKind, Argument::Kind::Scalar);
  EXPECT_EQ(Args[2].ArgType, Int(32));
  EXPECT_EQ(Args[3].Name, P.Offset.name());
  EXPECT_EQ(Args[3].ArgType, Float(32));
}

TEST(ParamInferDeathTest, UnboundScalarNamesTheArgument) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ParamPipe P("pd_a");
  P.In.set(makeInput(8, 8));
  P.Gain.set(1);
  // Offset is declared but never set().
  Buffer<float> Out(8, 8);
  EXPECT_DEATH(Pipeline(P.F).realize(Out),
               "scalar parameter 'pd_a_offset' is unbound");
}

TEST(ParamInferDeathTest, UnboundImageNamesTheArgument) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ParamPipe P("pd_b");
  P.Gain.set(1);
  P.Offset.set(0.0f);
  Buffer<float> Out(8, 8);
  EXPECT_DEATH(Pipeline(P.F).realize(Out),
               "input image 'pd_b_in' is unbound");
}

TEST(ParamInferDeathTest, TwoParametersWithOneNameAreAUserError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Var x("x");
  Param<int32_t> A("pd_c_twin", 1), B("pd_c_twin", 2);
  Func F("pd_c_out");
  F(x) = x * A + B;
  Buffer<int32_t> Out(4);
  EXPECT_DEATH(Pipeline(F).realize(Out),
               "two different parameters of one pipeline are named "
               "pd_c_twin");
}

TEST(ParamInferDeathTest, ImageParamTypeMismatchNamesTheParam) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ImageParam In(UInt(8), 2, "pd_d_in");
  Buffer<float> Wrong(4, 4);
  EXPECT_DEATH(In.set(Wrong),
               "ImageParam pd_d_in declared uint8 but bound to a float32 "
               "buffer");
}

TEST(ParamInferDeathTest, OutputBufferTypeMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Var x("x"), y("y");
  Func F("pd_e_out");
  F(x, y) = cast(Float(32), x + y);
  Buffer<int32_t> Out(4, 4); // pipeline produces float32
  EXPECT_DEATH(Pipeline(F).realize(Out),
               "output buffer 'pd_e_out' has element type int32");
}

//===----------------------------------------------------------------------===//
// One binding step: a direct Executable::run checks its arguments exactly
// as realize does, on both engines, and a thread request goes to the run.
//===----------------------------------------------------------------------===//

namespace {

/// F(x, y) = In(x, y) + K, for binding a run's arguments by hand.
struct BindPipe {
  ImageParam In;
  Param<int32_t> K;
  Var x{"x"}, y{"y"};
  Func F;

  explicit BindPipe(const std::string &Tag)
      : In(UInt(8), 2, Tag + "_in"), K(Tag + "_k"), F(Tag + "_f") {
    F(x, y) = In(x, y) + cast<uint8_t>(K);
  }
};

/// Expects both a direct run and a realize of \p F into \p Out, with
/// \p Params, to die with \p Message on \p Tgt.
template <typename T>
void expectRunAndRealizeDie(const Func &F, const Target &Tgt,
                            Buffer<T> &Out, const ParamBindings &Params,
                            const std::string &Message) {
  std::shared_ptr<const Executable> Exe = Pipeline(F).compile(Tgt);
  ParamBindings WithOut = Params;
  WithOut.bind(F.name(), Out);
  EXPECT_DEATH(Exe->run(WithOut), Message) << Tgt.str();
  EXPECT_DEATH(Pipeline(F).realize(Out, Params, Tgt), Message) << Tgt.str();
}

} // namespace

TEST(BindingDeathTest, DirectRunChecksArgumentsLikeRealize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BindPipe P("pa");
  Buffer<uint8_t> Input(16, 8);
  Input.fillConstant(3);
  ParamBindings Bound;
  Bound.bind(P.In.name(), Input);
  Bound.bindInt(P.K.name(), 1);
  for (const Target &T : {Target::vm(), Target::jit()}) {
    Buffer<uint8_t> Flat(128), Deep(16, 8, 3);
    expectRunAndRealizeDie(P.F, T, Flat, Bound,
                           "output buffer 'pa_f' is 1-dimensional but the "
                           "pipeline expects 2 dimensions");
    expectRunAndRealizeDie(P.F, T, Deep, Bound,
                           "output buffer 'pa_f' is 3-dimensional but the "
                           "pipeline expects 2 dimensions");

    Buffer<uint8_t> Out(16, 8);
    ParamBindings NoK;
    NoK.bind(P.In.name(), Input);
    expectRunAndRealizeDie(P.F, T, Out, NoK,
                           "scalar parameter 'pa_k' is unbound");
    ParamBindings FloatK = NoK;
    FloatK.bindFloat(P.K.name(), 1.0);
    expectRunAndRealizeDie(P.F, T, Out, FloatK,
                           "scalar parameter 'pa_k' is bound to a float but "
                           "the pipeline expects int32");

    // A run with no output at all names it too.
    EXPECT_DEATH(Pipeline(P.F).compile(T)->run(Bound),
                 "output buffer 'pa_f' is unbound")
        << T.str();
  }
}

TEST(InputBoundsDeathTest, InputMustCoverTheRegionRead) {
  // F reads In over F's own region, so a run whose input does not cover
  // it stops before the first read, with one message on both engines
  // naming the input and the dimension: without the check the VM stops
  // on an internal bounds check and jit_c reads out of bounds.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ImageParam In(UInt(8), 2, "pb_in");
  Var x("x"), y("y");
  Func F("pb_f");
  F(x, y) = In(x, y) + cast<uint8_t>(1);
  Buffer<uint8_t> Input(16, 8);
  Input.fillConstant(3);
  In.set(Input);
  for (const Target &T : {Target::vm(), Target::jit()}) {
    Buffer<uint8_t> Fits(16, 8);
    Pipeline(F).realize(Fits, ParamBindings(), T);
    EXPECT_EQ(Fits(15, 7), 4) << T.str();

    Buffer<uint8_t> Wide(64, 8), Tall(16, 9), Shifted(16, 8);
    Shifted.setMin(1, 0);
    const std::string Dim = "input image pb_in does not cover the region the "
                            "pipeline reads in dimension ";
    EXPECT_DEATH(Pipeline(F).realize(Wide, ParamBindings(), T), Dim + "0")
        << T.str();
    EXPECT_DEATH(Pipeline(F).realize(Tall, ParamBindings(), T), Dim + "1")
        << T.str();
    EXPECT_DEATH(Pipeline(F).realize(Shifted, ParamBindings(), T), Dim + "0")
        << T.str();
  }
  // Far past the input, an unchecked jit_c read dies of SIGSEGV.
  Buffer<uint8_t> Huge(1000000, 8);
  EXPECT_DEATH(Pipeline(F).realize(Huge, ParamBindings(), Target::jit()),
               "input image pb_in does not cover the region the pipeline "
               "reads in dimension 0");
}

TEST(BindingDeathTest, CompileRejectsAThreadRequest) {
  // An executable serves every thread count, so a compile that asked for
  // one would silently drop it; the request goes to the run instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Var x("x");
  Func F("pa_threads");
  F(x) = x * 2;
  EXPECT_DEATH(Pipeline(F).compile(Target::vm().withThreads(2)),
               "pass the request to Executable::run");
  EXPECT_DEATH(makeExecutable(lower(F.function()),
                              Target::jit().withThreads(1)),
               "pass the request to Executable::run");
}

//===----------------------------------------------------------------------===//
// Scheduling sugar: TileSpec and variadic arities.
//===----------------------------------------------------------------------===//

TEST(SchedulingSugarTest, TileSpecMatchesPositionalTile) {
  Var x("x"), y("y"), xo("xo"), yo("yo"), xi("xi"), yi("yi");
  Func A("tsp_a"), B("tsp_b");
  A(x, y) = x + y;
  B(x, y) = x + y;
  A.tile(TileSpec(x, y).outer(xo, yo).inner(xi, yi).factors(8, 4));
  B.tile(x, y, xo, yo, xi, yi, 8, 4);
  // Identical splits and loop order (modulo the stage name).
  EXPECT_EQ(A.function().schedule().str(), B.function().schedule().str());
  Buffer<int32_t> Out(16, 8);
  Pipeline(A).realize(Out);
  EXPECT_EQ(Out(9, 5), 14);
}

TEST(SchedulingSugarTest, VariadicCallBeyondFourDims) {
  // The old fixed-arity overloads stopped at 4 coordinates; the variadic
  // form takes any arity and any Var/Expr/int mix.
  Var a("a"), b("b"), c("c"), d("d"), e("e"), x("x");
  Func F5("vs_f5"), G("vs_g");
  F5(a, b, c, d, e) = a + b * 2 + c * 3 + d * 4 + e * 5;
  G(x) = F5(x, x + 1, 2, x, 0);
  Buffer<int32_t> Out(6);
  Pipeline(G).realize(Out);
  for (int X = 0; X < 6; ++X)
    EXPECT_EQ(Out(X), X + (X + 1) * 2 + 2 * 3 + X * 4);
}

TEST(SchedulingSugarTest, VariadicReorder) {
  Var x("x"), y("y"), z("z");
  Func F("vr_f");
  F(x, y, z) = x + y + z;
  F.reorder(z, y, x); // z innermost now
  const Schedule &S = F.function().schedule();
  ASSERT_EQ(S.Dims.size(), 3u);
  EXPECT_EQ(S.Dims[0].Var, "x");
  EXPECT_EQ(S.Dims[1].Var, "y");
  EXPECT_EQ(S.Dims[2].Var, "z");
}
