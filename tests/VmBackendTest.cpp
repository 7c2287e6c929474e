//===-- tests/VmBackendTest.cpp - Bytecode VM backend ------------------------===//
//
// The VmBytecode backend: bit-identical results to the reference
// interpreter (interpret()) across schedules, types, division semantics,
// vector code, extern math, scalar params, and update stages; one bytecode
// compile for repeated realizes through the process compile cache; and a
// readable disassembly with pre-resolved operands.
//
//===----------------------------------------------------------------------===//

#include "codegen/Interpreter.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "observe/TraceStream.h"
#include "runtime/TaskScheduler.h"
#include "transforms/Instrument.h"
#include "vm/VmExecutable.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>

#include <unistd.h>

using namespace halide;

namespace {

/// Builds a pipeline with mixed types and a stencil; scheduled by Variant
/// (the same shapes the JIT parity test uses: root, inline, tiled +
/// vectorized + parallel, sliding window + vectorized, parallel).
struct MixedPipe {
  ImageParam In;
  Var x{"x"}, y{"y"};
  Func Stage1, Out;

  MixedPipe(const std::string &Tag, int Variant)
      : In(Float(32), 2, Tag + "_in"), Stage1(Tag + "_stage1"),
        Out(Tag + "_out") {
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

class VmParityTest : public ::testing::TestWithParam<int> {};

TEST_P(VmParityTest, VmMatchesInterpreter) {
  const int W = 64, H = 32;
  MixedPipe P("vmp" + std::to_string(GetParam()), GetParam());

  Buffer<float> Input(W, H);
  Input.fill([](int X, int Y) {
    return float((X * 13 + Y * 29) % 101) / 17.0f - 2.0f;
  });
  ParamBindings Params;
  Params.bind(P.In.name(), Input);

  LoweredPipeline LP = lower(P.Out.function());

  Buffer<int16_t> FromInterp(W, H);
  {
    ParamBindings PI = Params;
    PI.bind(P.Out.name(), FromInterp);
    interpret(LP, PI);
  }
  Buffer<int16_t> FromVm(W, H);
  {
    ParamBindings PV = Params;
    PV.bind(P.Out.name(), FromVm);
    auto VP = vmCompile(LP);
    ASSERT_EQ(VP->run(PV), 0);
  }
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ASSERT_EQ(FromInterp(X, Y), FromVm(X, Y))
          << "variant " << GetParam() << " at (" << X << "," << Y << ")";
}

INSTANTIATE_TEST_SUITE_P(Variants, VmParityTest, ::testing::Range(0, 5));

TEST(VmBackendTest, IntegerDivisionSemantics) {
  // Floor division / floor remainder over negative numerators and the
  // wrapping of narrow types must match the interpreter bit for bit.
  ImageParam In(Int(32), 1, "vmd_in");
  Var x("x");
  Func F("vmd_out");
  Expr V = In(clamp(x, 0, In.width() - 1));
  F(x) = (V - 17) / 5 + (V - 17) % 5 * 100 +
         cast(Int(32), cast(UInt(8), V * 3 + 250)) +
         cast(Int(32), cast(Int(8), V * 7 - 200));

  const int N = 64;
  Buffer<int32_t> Input(N);
  Input.fill([](int X) { return X * 3 - 40; });
  ParamBindings Params;
  Params.bind("vmd_in", Input);

  LoweredPipeline LP = lower(F.function());
  Buffer<int32_t> FromInterp(N), FromVm(N);
  {
    ParamBindings PI = Params;
    PI.bind(F.name(), FromInterp);
    interpret(LP, PI);
  }
  {
    ParamBindings PV = Params;
    PV.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(PV), 0);
  }
  for (int X = 0; X < N; ++X)
    ASSERT_EQ(FromInterp(X), FromVm(X)) << "at " << X;
}

TEST(VmBackendTest, ExternMathMatchesInterpreter) {
  ImageParam In(Float(32), 1, "vmm_in");
  Var x("x");
  Func F("vmm_out");
  Expr V = In(clamp(x, 0, In.width() - 1));
  Expr Pos = abs(V) + 0.25f;
  F(x) = halide::sqrt(Pos) + sin(V) * cos(V) + exp(V * 0.125f) +
         log(Pos) + floor(V) + ceil(V) + pow(Pos, 0.75f);

  const int N = 128;
  Buffer<float> Input(N);
  Input.fill([](int X) { return float(X - 64) / 9.0f; });
  ParamBindings Params;
  Params.bind("vmm_in", Input);

  LoweredPipeline LP = lower(F.function());
  Buffer<float> FromInterp(N), FromVm(N);
  {
    ParamBindings PI = Params;
    PI.bind(F.name(), FromInterp);
    interpret(LP, PI);
  }
  {
    ParamBindings PV = Params;
    PV.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(PV), 0);
  }
  for (int X = 0; X < N; ++X)
    ASSERT_EQ(FromInterp(X), FromVm(X)) << "at " << X; // bit-exact
}

TEST(VmBackendTest, ScalarParamsThreadThrough) {
  Var x("x");
  Param<int32_t> K("vm_k");
  Param<float> S("vm_s");
  Func F("vm_params");
  F(x) = cast(Float(32), x + K) * S;
  auto VP = vmCompile(lower(F.function()));
  Buffer<float> Out(8);
  ParamBindings Params;
  Params.bind(F.name(), Out);
  Params.bindInt("vm_k", 10);
  Params.bindFloat("vm_s", 0.5);
  ASSERT_EQ(VP->run(Params), 0);
  EXPECT_FLOAT_EQ(Out(6), 8.0f);

  // The same compiled program re-runs with different parameter values:
  // params are registers re-initialized per run, not baked constants.
  Params.bindInt("vm_k", -6);
  ASSERT_EQ(VP->run(Params), 0);
  EXPECT_FLOAT_EQ(Out(6), 0.0f);
}

TEST(VmBackendTest, UpdateStagesExecute) {
  // Histogram: scatter + scan through the VM against direct counting.
  ImageParam In(UInt(8), 2, "vm_hist_in");
  Var i("i");
  Func Hist("vm_hist");
  RDom R(0, In.width(), 0, In.height(), "vm_r");
  Hist(i) = cast(UInt(32), 0);
  Hist(clamp(cast(Int(32), In(R.x, R.y)), 0, 255)) += cast(UInt(32), 1);
  Hist.bound(i, 0, 256);

  const int W = 37, H = 23;
  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return (X * 5 + Y * 11) % 256; });
  Buffer<uint32_t> Out(256);
  ParamBindings Params;
  Params.bind("vm_hist_in", Input);
  Params.bind(Hist.name(), Out);
  ASSERT_EQ(vmCompile(lower(Hist.function()))->run(Params), 0);

  std::vector<uint32_t> Want(256, 0);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ++Want[Input(X, Y)];
  for (int I = 0; I < 256; ++I)
    ASSERT_EQ(Out(I), Want[size_t(I)]) << "bin " << I;
}

TEST(VmBackendTest, DisassemblyResolvesNames) {
  Var x("x"), y("y");
  Func F("vm_disasm_f"), G("vm_disasm_g");
  F(x, y) = x + y;
  G(x, y) = F(x, y) * 2;
  F.computeRoot();
  auto VP = vmCompile(lower(G.function()));
  const std::string &Listing = VP->source();
  // Buffers appear as pre-resolved table slots, loops as fused back-edges.
  EXPECT_NE(Listing.find("vm_disasm_f"), std::string::npos);
  EXPECT_NE(Listing.find("loop_next"), std::string::npos);
  EXPECT_NE(Listing.find("store"), std::string::npos);
  EXPECT_NE(Listing.find("halt"), std::string::npos);
  // The program ends in exactly one halt, and every jump target is in
  // range (the disassembler would have crashed on a bad message index).
  const VmProgram &Prog = VP->program();
  ASSERT_FALSE(Prog.Code.empty());
  EXPECT_EQ(Prog.Code.back().Op, VmOp::Halt);
  for (const VmInstr &In : Prog.Code) {
    if (In.Op == VmOp::Jump || In.Op == VmOp::JumpIfFalse ||
        In.Op == VmOp::LoopNext) {
      ASSERT_LT(size_t(In.Aux), Prog.Code.size());
    }
    if (In.Op == VmOp::ParFor) {
      // The resume point, task index, and body region must all resolve.
      ASSERT_LT(size_t(In.Aux), Prog.Code.size());
      ASSERT_LT(size_t(In.Dst), Prog.Tasks.size());
      const VmTaskDesc &T = Prog.Tasks[In.Dst];
      ASSERT_LT(T.BodyStart, T.BodyEnd);
      ASSERT_LT(size_t(T.BodyEnd), Prog.Code.size());
      ASSERT_EQ(Prog.Code[T.BodyEnd].Op, VmOp::TaskRet);
      ASSERT_LT(size_t(T.CounterReg), Prog.InitialRegs.size());
    }
  }
}

//===----------------------------------------------------------------------===//
// Threaded parallel dispatch: parallel For bodies become task entry
// points executed over the work-stealing scheduler; results must stay
// bit-identical to the interpreter (and to the serial VM) whatever the
// thread count.
//===----------------------------------------------------------------------===//

namespace {

/// Forces a real 4-worker pool for the scope of a test, restoring the
/// previous size on destruction.
struct ScopedPool {
  int Before;
  explicit ScopedPool(int N) : Before(taskSchedulerThreads()) {
    setTaskSchedulerThreads(N);
  }
  ~ScopedPool() { setTaskSchedulerThreads(Before); }
};

} // namespace

TEST(VmBackendTest, ParallelHistogramUpdateStages) {
  // Histogram with a *parallel* initialization stage and a serial
  // scatter update, followed by a parallel scan consumer: the update
  // stage must see fully initialized bins regardless of which workers
  // zeroed them, and the consumer must see the completed scatter.
  ScopedPool Pool(4);
  ImageParam In(UInt(8), 2, "vmph_in");
  Var i("i");
  Func Hist("vmph_hist"), Cum("vmph_cum");
  RDom R(0, In.width(), 0, In.height(), "vmph_r");
  Hist(i) = cast(UInt(32), 0);
  Hist(clamp(cast(Int(32), In(R.x, R.y)), 0, 255)) += cast(UInt(32), 1);
  Hist.bound(i, 0, 256);
  Cum(i) = Hist(i) * 2 + 1;
  Cum.bound(i, 0, 256);
  Hist.computeRoot().parallel(i);
  Cum.parallel(i);

  const int W = 37, H = 23;
  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return (X * 5 + Y * 11) % 256; });
  ParamBindings Params;
  Params.bind("vmph_in", Input);

  LoweredPipeline LP = lower(Cum.function());
  Buffer<uint32_t> FromInterp(256), FromVm(256);
  {
    ParamBindings PI = Params;
    PI.bind(Cum.name(), FromInterp);
    interpret(LP, PI);
  }
  {
    ParamBindings PV = Params;
    PV.bind(Cum.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(PV, nullptr, 4), 0);
  }
  std::vector<uint32_t> Want(256, 0);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ++Want[Input(X, Y)];
  for (int I = 0; I < 256; ++I) {
    ASSERT_EQ(FromVm(I), Want[size_t(I)] * 2 + 1) << "bin " << I;
    ASSERT_EQ(FromVm(I), FromInterp(I)) << "bin " << I;
  }
}

TEST(VmBackendTest, NestedParallelTiles) {
  // The paper's Fig. 3 motivation: parallel tiles with a parallel
  // producer nested inside each tile. Under the single-queue pool the
  // inner loop serialized on the submitting worker; under the
  // work-stealing scheduler both levels fan out — and the output must
  // still match the interpreter bit for bit.
  ScopedPool Pool(4);
  MixedPipe P("vmnp", /*Variant=*/0); // schedule overridden below
  Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
  P.Out.function().resetSchedule();
  P.Stage1.function().resetSchedule();
  P.Out.tile(P.x, P.y, xo, yo, xi, yi, 16, 8).parallel(yo);
  P.Stage1.computeAt(P.Out, xo).parallel(P.y);

  const int W = 64, H = 32;
  Buffer<float> Input(W, H);
  Input.fill([](int X, int Y) {
    return float((X * 13 + Y * 29) % 101) / 17.0f - 2.0f;
  });
  ParamBindings Params;
  Params.bind(P.In.name(), Input);

  LoweredPipeline LP = lower(P.Out.function());
  Buffer<int16_t> FromInterp(W, H), FromVm(W, H), FromVmSerial(W, H);
  {
    ParamBindings PI = Params;
    PI.bind(P.Out.name(), FromInterp);
    interpret(LP, PI);
  }
  {
    ParamBindings PV = Params;
    PV.bind(P.Out.name(), FromVm);
    auto Exe = vmCompile(LP);
    // The program advertises its extracted tasks (outer tiles + nested
    // producer), and the listing shows their dispatch.
    EXPECT_GE(Exe->program().Tasks.size(), 2u);
    EXPECT_NE(Exe->source().find("par_for"), std::string::npos);
    ASSERT_EQ(Exe->run(PV, nullptr, 4), 0);
    ParamBindings PS = Params;
    PS.bind(P.Out.name(), FromVmSerial);
    ASSERT_EQ(Exe->run(PS, nullptr, 1), 0);
  }
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      ASSERT_EQ(FromInterp(X, Y), FromVm(X, Y))
          << "threaded vs interpreter at (" << X << "," << Y << ")";
      ASSERT_EQ(FromVmSerial(X, Y), FromVm(X, Y))
          << "threaded vs serial VM at (" << X << "," << Y << ")";
    }
}

TEST(VmBackendTest, TaskChunksSeeEveryRegisterTheirBodyReads) {
  // A task chunk starts from a copy of its spawner's registers, so a
  // threaded body reads the same values as a serial one whatever opcode
  // reads them. This 4-thread parallel loop reads enclosing lets (the
  // tile bounds), a two-operand pow, a select, a dense and a gathered
  // vector load, traced loads and stores, and a nested parallel loop.
  ScopedPool Pool(4);
  ImageParam In(Float(32), 2, "vmtc_in");
  ImageParam Lut(UInt(8), 1, "vmtc_lut");
  Var x("x"), y("y"), xo("xo"), yo("yo"), xi("xi"), yi("yi");
  Func Stage("vmtc_stage"), Out("vmtc_out");
  Stage(x, y) = halide::pow(In(x, y) * 0.5f + 1.0f, In(x, y) + 0.25f);
  Expr Gathered =
      In(clamp(cast(Int(32), Lut(x % 16)), 0, In.width() - 1), y);
  Out(x, y) = select(Stage(x, y) > In(x, y), Stage(x, y), Gathered);
  Out.tile(x, y, xo, yo, xi, yi, 16, 8).vectorize(xi, 8).parallel(yo);
  Stage.computeAt(Out, xo).vectorize(x, 8).parallel(y);

  const int W = 64, H = 32;
  Buffer<float> Input(W, H);
  Input.fill(
      [](int X, int Y) { return float((X * 7 + Y * 3) % 29) / 29.0f; });
  Buffer<uint8_t> Table(16);
  Table.fill([](int I) { return (I * 37 + 5) % W; });
  ParamBindings Params;
  Params.bind(In.name(), Input);
  Params.bind(Lut.name(), Table);

  LoweredPipeline LP =
      instrument(lower(Out.function()), Target().withTrace());
  auto Exe = vmCompile(LP);
  // Every shape is really read inside the outer task's body region.
  const VmProgram &Prog = Exe->program();
  ASSERT_GE(Prog.Tasks.size(), 2u);
  const VmTaskDesc &Outer = Prog.Tasks[0];
  std::set<std::string> Shapes;
  for (size_t PC = Outer.BodyStart; PC < Outer.BodyEnd; ++PC) {
    const VmInstr &I = Prog.Code[PC];
    if (I.Op == VmOp::CallExtern && VmExtern(I.Aux) == VmExtern::Pow)
      Shapes.insert("pow");
    else if (I.Op == VmOp::Event)
      Shapes.insert(TraceEventKind(I.C) == TraceEventKind::TraceLoad
                        ? "traced_load"
                        : TraceEventKind(I.C) == TraceEventKind::TraceStore
                              ? "traced_store"
                              : "event");
    else
      Shapes.insert(vmOpName(I.Op));
  }
  for (const char *Want : {"pow", "select", "load.dense", "load",
                           "traced_load", "traced_store", "par_for"})
    EXPECT_TRUE(Shapes.count(Want)) << Want;

  Buffer<float> FromInterp(W, H), FromVm(W, H), FromSerial(W, H);
  {
    ParamBindings PI = Params;
    PI.bind(Out.name(), FromInterp);
    interpret(LP, PI);
  }
  ExecutionStats ThreadedStats, SerialStats;
  {
    ParamBindings PV = Params;
    PV.bind(Out.name(), FromVm);
    // With a stream open, the trace events read their registers too.
    const std::string Path = tempDirectory() + "/vm_task_closure_" +
                             std::to_string(getpid()) + ".bin";
    ASSERT_TRUE(traceStreamStart(Path));
    EXPECT_EQ(Exe->run(PV, &ThreadedStats, 4), 0);
    traceStreamStop();
    std::remove(Path.c_str());
    EXPECT_EQ(traceStreamStats().EventsDropped, 0);
  }
  {
    ParamBindings PS = Params;
    PS.bind(Out.name(), FromSerial);
    ASSERT_EQ(Exe->run(PS, &SerialStats, 1), 0);
  }
  EXPECT_EQ(std::memcmp(FromInterp.data(), FromVm.data(),
                        sizeof(float) * W * H),
            0);
  EXPECT_EQ(std::memcmp(FromSerial.data(), FromVm.data(),
                        sizeof(float) * W * H),
            0);
  EXPECT_EQ(ThreadedStats, SerialStats);
}

TEST(VmBackendTest, ThreadRequestsShareOneExecutable) {
  // A thread request belongs to the run, not to the compiled program:
  // realizing one schedule with the default request and with 1, 2 and 4
  // threads lowers once and compiles once, and every request computes
  // the same output.
  ScopedPool Pool(4);
  Var x("x"), y("y");
  Func F("vmtt_f"), G("vmtt_g");
  F(x, y) = x + y * 5;
  G(x, y) = F(x, y) + F(x + 1, y);
  F.computeRoot().parallel(y);
  G.parallel(y);
  Pipeline Pipe(G);

  CompileCounters Before = Pipeline::compileCounters();
  Buffer<int32_t> Want(32, 16);
  Pipe.realize(Want, ParamBindings(), Target::vm());
  for (int Threads : {1, 2, 4}) {
    Buffer<int32_t> Out(32, 16);
    Pipe.realize(Out, ParamBindings(), Target::vm().withThreads(Threads));
    for (int Y = 0; Y < 16; ++Y)
      for (int X = 0; X < 32; ++X)
        ASSERT_EQ(Out(X, Y), Want(X, Y)) << Threads << " threads";
  }
  const CompileCounters After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 1);
  EXPECT_EQ(After.CacheHits - Before.CacheHits, 3);
}

//===----------------------------------------------------------------------===//
// Compile-cache behaviour (TargetApiTest-style counter assertions).
//===----------------------------------------------------------------------===//

TEST(VmCompileCacheTest, RepeatedRealizesCompileBytecodeOnce) {
  Var x("x"), y("y");
  Func F("vmcc_f"), G("vmcc_g");
  F(x, y) = x + y * 3;
  G(x, y) = F(x, y) + F(x + 1, y);
  F.computeRoot();
  Pipeline Pipe(G);

  CompileCounters Before = Pipeline::compileCounters();
  Buffer<int32_t> Out1(16, 8), Out2(16, 8);
  Pipe.realize(Out1, ParamBindings(), Target::vm());
  Pipe.realize(Out2, ParamBindings(), Target::vm());

  const CompileCounters &After = Pipeline::compileCounters();
  // One lowering, one bytecode compile; the second realize is a pure
  // schedule-fingerprint cache hit.
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 1);
  EXPECT_GE(After.CacheHits - Before.CacheHits, 1);

  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 16; ++X) {
      EXPECT_EQ(Out1(X, Y), (X + Y * 3) + (X + 1 + Y * 3));
      EXPECT_EQ(Out2(X, Y), Out1(X, Y));
    }
}

TEST(VmCompileCacheTest, VmAndInterpreterShareOneLowering) {
  Var x("x"), y("y");
  Func F("vmcs_f"), G("vmcs_g");
  F(x, y) = x * 2 + y;
  G(x, y) = F(x, y) + 1;
  F.computeRoot();
  Pipeline Pipe(G);
  Buffer<int32_t> Out(16, 8);

  CompileCounters Before = Pipeline::compileCounters();
  Pipe.realize(Out, ParamBindings(), Target::vm());
  // The reference interpreter walks the very lowering the VM compiled.
  Buffer<int32_t> Ref(16, 8);
  ParamBindings Params;
  Params.bind(G.name(), Ref);
  interpret(Pipe.lowerPipeline(Target::vm()), Params);
  const CompileCounters &After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 1);
  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 16; ++X)
      EXPECT_EQ(Out(X, Y), Ref(X, Y));
}
