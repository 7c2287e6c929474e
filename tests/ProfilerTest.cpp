//===-- tests/ProfilerTest.cpp --------------------------------------------===//
//
// The observability contract of Target::Profile (observe/Profiler.h):
//
//  * Zero cost when off: the profile bit never reaches the lowering
//    fingerprint or the lowered IR — one cached lowering serves both the
//    instrumented and uninstrumented executables — and a profiled run
//    produces bit-identical output to an unprofiled one.
//  * Faithful attribution: on a serial run, per-stage self-times sum to
//    the pipeline's wall time (within tolerance), because the injected
//    markers bracket every produce body and the outermost stage brackets
//    the whole pipeline.
//  * Thread-safe merging: a 4-thread run reports the same per-stage
//    invocation counts as a serial run — each parallel loop body opens
//    a chunk scope for its stage (no invocation bump), so nothing double
//    counts, update sub-stages included. (This test is part of the TSan
//    CI job.)
//  * Allocation attribution: a stage's peak_bytes is the peak of the
//    allocations made while it was innermost, equal on a serial run to
//    the run's ExecutionStats peak on every engine.
//
// Plus the trace layer riding on the same markers: a traced realizeAsync
// emits serve spans (queue_wait / execute) into Chrome trace JSON.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "codegen/Interpreter.h"
#include "lang/ImageParam.h"
#include "observe/MetricsRegistry.h"
#include "observe/Profiler.h"
#include "observe/TraceRecorder.h"
#include "runtime/TaskScheduler.h"
#include "support/DiffTest.h"
#include "transforms/Instrument.h"
#include "transforms/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <regex>
#include <sstream>

using namespace halide;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Realizes \p A at W x H on \p T \p Iters times, each run with the
/// thread request \p Threads, and returns the summed wall nanoseconds of
/// the run() calls alone (compile excluded).
int64_t timedRuns(App &A, const Target &T, int Threads, int W, int H,
                  int Iters, RawBuffer *OutBuf = nullptr,
                  std::shared_ptr<void> *KeepOut = nullptr) {
  std::shared_ptr<const Executable> Exe = Pipeline(A.Output).compile(T);
  ParamBindings Params = A.MakeInputs(W, H);
  std::shared_ptr<void> Keep;
  RawBuffer Out = makeAppOutput(A, W, H, &Keep);
  Params.bind(A.Output.name(), Out);
  int64_t Wall = 0;
  for (int I = 0; I < Iters; ++I) {
    const int64_t T0 = nowNs();
    EXPECT_EQ(Exe->run(Params, nullptr, Threads), 0);
    Wall += nowNs() - T0;
  }
  if (OutBuf) {
    *OutBuf = Out;
    *KeepOut = Keep;
  }
  return Wall;
}

std::map<std::string, int64_t> invocationsByStage() {
  std::map<std::string, int64_t> M;
  for (const StageProfile &S : profilerReport().Stages)
    M[S.Name] = S.Invocations;
  return M;
}

std::map<std::string, int64_t> peakBytesByStage() {
  std::map<std::string, int64_t> M;
  for (const StageProfile &S : profilerReport().Stages)
    M[S.Name] = S.PeakBytes;
  return M;
}

/// The paper's Figure-3 two-stage blur, owned by the test so it can pick
/// the schedules (stage names prefixed to stay out of other tests' way).
struct TwoStageBlur {
  ImageParam In{UInt(8), 2, "pt_in"};
  Var x{"x"}, y{"y"};
  Func Blurx{"pt_blurx"}, Out{"pt_out"};
  std::vector<Buffer<uint8_t>> Keep;

  TwoStageBlur() {
    auto InC = [&](Expr X, Expr Y) {
      return cast(UInt(16), In(clamp(X, 0, In.width() - 1),
                               clamp(Y, 0, In.height() - 1)));
    };
    Blurx(x, y) =
        cast(UInt(16), (InC(x - 1, y) + InC(x, y) + InC(x + 1, y)) / 3);
    Out(x, y) = cast(UInt(8),
                     (Blurx(x, y - 1) + Blurx(x, y) + Blurx(x, y + 1)) / 3);
  }

  ParamBindings params(int W, int H) {
    Buffer<uint8_t> Input(W, H);
    Input.fill([](int X, int Y) { return (X * 23 + Y * 7) % 256; });
    Buffer<uint8_t> Output(W, H);
    Keep.push_back(Input);
    Keep.push_back(Output);
    ParamBindings P;
    P.bind(In.name(), Input);
    P.bind(Out.name(), Output);
    return P;
  }
};

void expectSelfTimesSumToWall(App &A, int W, int H) {
  profilerReset();
  // Serial VM: one thread, so summed self-time is directly comparable to
  // wall time. A warm-up run first so compile/pool effects are off the
  // clock, then reset and measure.
  const Target T = Target::vm().withProfile();
  timedRuns(A, T, 1, W, H, 1);
  profilerReset();
  const int64_t WallNs = timedRuns(A, T, 1, W, H, 3);
  ProfileReport R = profilerReport();
  const int64_t SelfSum = R.totalSelfNanos();
  ASSERT_GT(WallNs, 0) << A.Name;
  EXPECT_GE(SelfSum, WallNs * 95 / 100)
      << A.Name << ": stages unaccounted for\n"
      << R.str();
  EXPECT_LE(SelfSum, WallNs * 105 / 100)
      << A.Name << ": self-time exceeds wall\n"
      << R.str();
  // Total time of the outermost stage (the output) covers everything,
  // and child time shows up as total - self.
  bool FoundOutput = false;
  for (const StageProfile &S : R.Stages)
    if (S.Name == A.Output.name()) {
      FoundOutput = true;
      EXPECT_GE(S.TotalNanos, S.SelfNanos);
      EXPECT_GE(S.TotalNanos, WallNs * 95 / 100) << A.Name;
    }
  EXPECT_TRUE(FoundOutput) << A.Name << "\n" << R.str();
}

} // namespace

TEST(ProfilerTest, ProfileOffIsZeroCost) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  Pipeline Pipe(A.Output);
  const Target Off = Target::vm();
  const Target On = Off.withProfile();

  // The profile bit never reaches the lowering: same fingerprint, same
  // lowered IR, so the cache shares one lowering between both targets.
  EXPECT_EQ(Pipe.scheduleFingerprint(Off), Pipe.scheduleFingerprint(On));
  EXPECT_EQ(Pipe.loweredText(Off), Pipe.loweredText(On));

  std::shared_ptr<const Executable> ExeOff = Pipe.compile(Off);
  CompileCounters C1 = Pipeline::compileCounters();
  std::shared_ptr<const Executable> ExeOn = Pipe.compile(On);
  CompileCounters C2 = Pipeline::compileCounters();
  // Instrumentation happens at executable build, on a copy: a second
  // backend compile, but no second lowering.
  EXPECT_EQ(C2.Lowerings, C1.Lowerings);
  EXPECT_EQ(C2.BackendCompiles, C1.BackendCompiles + 1);
  EXPECT_NE(ExeOff.get(), ExeOn.get());
  // Both keys hit the executable cache on recompile.
  Pipe.compile(Off);
  Pipe.compile(On);
  EXPECT_EQ(Pipeline::compileCounters().CacheHits, C2.CacheHits + 2);

  // Markers exist only in the instrumented executable.
  EXPECT_EQ(ExeOff->source().find("prof_enter"), std::string::npos);
  EXPECT_NE(ExeOn->source().find("prof_enter"), std::string::npos);

  // Profiled and unprofiled runs produce bit-identical output.
  profilerReset();
  const int W = 96, H = 64;
  std::shared_ptr<void> KeepOff, KeepOn;
  RawBuffer OutOff, OutOn;
  timedRuns(A, Off, 0, W, H, 1, &OutOff, &KeepOff);
  timedRuns(A, On, 0, W, H, 1, &OutOn, &KeepOn);
  std::string Detail;
  EXPECT_TRUE(buffersMatch(OutOff, OutOn, 0.0, 0, &Detail)) << Detail;
}

TEST(ProfilerTest, InstrumentedDisassemblyNamesStages) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  std::shared_ptr<const Executable> Exe =
      Pipeline(A.Output).compile(Target::vm().withProfile());
  const std::string &Listing = Exe->source();
  EXPECT_NE(Listing.find("prof_enter"), std::string::npos);
  EXPECT_NE(Listing.find("prof_exit"), std::string::npos);
  EXPECT_NE(Listing.find(A.Output.name()), std::string::npos);
}

TEST(ProfilerTest, SelfTimesSumToWallBlur) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  expectSelfTimesSumToWall(A, 256, 192);
}

TEST(ProfilerTest, SelfTimesSumToWallLocalLaplacian) {
  App A = makeLocalLaplacianApp(/*Levels=*/3);
  A.ScheduleTuned();
  expectSelfTimesSumToWall(A, 128, 96);
}

TEST(ProfilerTest, ThreadedRunDoesNotDoubleCount) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  const int W = 128, H = 96;

  profilerReset();
  timedRuns(A, Target::vm().withProfile(), 1, W, H, 1);
  std::map<std::string, int64_t> Serial = invocationsByStage();

  profilerReset();
  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(4);
  timedRuns(A, Target::vm().withProfile(), 4, W, H, 1);
  setTaskSchedulerThreads(Before);
  std::map<std::string, int64_t> Threaded = invocationsByStage();

  // Chunk re-entries on workers charge time but never bump invocation
  // counts, so the threaded histogram is identical to the serial one.
  EXPECT_EQ(Serial, Threaded);
  EXPECT_FALSE(Serial.empty());
}

TEST(ProfilerTest, PeakBytesChargeTheAllocatingStage) {
  TwoStageBlur B;
  const int W = 48, H = 40;
  ParamBindings Params = B.params(W, H);
  struct Sched {
    const char *Name;
    std::function<void(TwoStageBlur &)> Apply;
  };
  const Sched Schedules[] = {
      {"sliding_window",
       [](TwoStageBlur &S) { S.Blurx.storeRoot().computeAt(S.Out, S.y); }},
      {"breadth_first", [](TwoStageBlur &S) { S.Blurx.computeRoot(); }},
  };
  for (const Sched &S : Schedules) {
    B.Out.function().resetSchedule();
    B.Blurx.function().resetSchedule();
    S.Apply(B);
    LoweredPipeline P = lower(B.Out.function());

    // The blurx buffer is allocated around the output stage's loops, so
    // the output stage owns the whole peak and blurx itself owns none.
    profilerReset();
    const Target Vm = Target::vm().withProfile();
    ExecutionStats Stats;
    ASSERT_EQ(runOnBackend(Vm, P, Params, &Stats, 1), 0);
    ASSERT_GT(Stats.PeakAllocationBytes, 0) << S.Name;
    std::map<std::string, int64_t> Expected = {
        {"pt_blurx", 0}, {"pt_out", Stats.PeakAllocationBytes}};
    EXPECT_EQ(peakBytesByStage(), Expected) << S.Name << " on the VM";

    profilerReset();
    ASSERT_EQ(runOnBackend(Target::jit().withJitFlags("-O0").withProfile(),
                           P, Params, nullptr, 1),
              0);
    EXPECT_EQ(peakBytesByStage(), Expected) << S.Name << " on jit_c";

    profilerReset();
    ExecutionStats RefStats = interpret(instrument(P, Vm), Params);
    EXPECT_EQ(RefStats.PeakAllocationBytes, Stats.PeakAllocationBytes);
    EXPECT_EQ(peakBytesByStage(), Expected)
        << S.Name << " on the reference interpreter";
  }
}

TEST(ProfilerTest, ParallelUpdateStageKeepsItsInvocations) {
  Var x("x"), y("y");
  Func G("pu_g"), F("pu_f"), Out("pu_out");
  G(x, y) = x * 3 + y;
  F(x, y) = x + y * 2;
  F(x, y) += G(x, y);
  Out(x, y) = F(x, y) + 1;
  F.computeRoot().updateParallel(0, y);

  const int W = 32, H = 24;
  Buffer<int32_t> Output(W, H);
  ParamBindings Params;
  Params.bind(Out.name(), Output);
  Pipeline Pipe(Out);

  profilerReset();
  ASSERT_EQ(Pipe.compile(Target::vm().withProfile())->run(Params, nullptr, 1),
            0);
  std::map<std::string, int64_t> Serial = invocationsByStage();
  EXPECT_EQ(Serial["pu_f.update(0)"], 1);

  profilerReset();
  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(4);
  ASSERT_EQ(Pipe.compile(Target::vm().withProfile())->run(Params, nullptr, 4),
            0);
  setTaskSchedulerThreads(Before);
  EXPECT_EQ(invocationsByStage(), Serial);

  // The update's parallel loop body is one chunk scope naming the
  // update sub-stage: its first instruction enters the scope and the one
  // before its task_ret leaves it.
  std::istringstream Listing(
      Pipe.compile(Target::vm().withProfile())->source());
  std::vector<std::string> Lines;
  for (std::string L; std::getline(Listing, L);)
    Lines.push_back(L);
  auto ParFor = std::find_if(Lines.begin(), Lines.end(), [](auto &L) {
    return L.find("\tpar_for ") != std::string::npos;
  });
  ASSERT_NE(ParFor, Lines.end());
  auto TaskRet = std::find_if(ParFor, Lines.end(), [](auto &L) {
    return L.find("\ttask_ret") != std::string::npos;
  });
  ASSERT_NE(TaskRet, Lines.end());
  EXPECT_NE(ParFor[1].find("prof_chunk \"pu_f.update(0)\""),
            std::string::npos)
      << ParFor[1];
  EXPECT_NE(TaskRet[-1].find("prof_exit \"pu_f.update(0)\""),
            std::string::npos)
      << TaskRet[-1];
}

TEST(ProfilerTest, TracedServingFrameEmitsSpans) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  const int W = 96, H = 64;
  Pipeline Pipe(A.Output);
  ParamBindings Params = A.MakeInputs(W, H);
  std::shared_ptr<void> Keep;
  RawBuffer Out = makeAppOutput(A, W, H, &Keep);

  traceStart();
  Pipe.realizeAsync(Out, Params, Target::vm(), /*Priority=*/1).wait();
  traceStop();
  const std::string Json = traceWriteJson();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("queue_wait"), std::string::npos);
  EXPECT_NE(Json.find("execute"), std::string::npos);
  EXPECT_NE(Json.find("\"priority\":1"), std::string::npos);

  // The metrics registry saw the frame.
  MetricsSnapshot M = metricsSnapshot();
  EXPECT_GE(M.get("serve.frames_submitted"), 1);
  EXPECT_GE(M.get("serve.frames_completed"), 1);
  EXPECT_NE(M.toJson().find("\"scheduler.threads\""), std::string::npos);
}

TEST(ProfilerTest, TracedLoweringRecordsOneSpanPerPass) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  Pipeline::clearCompileCache();
  traceStart();
  Pipeline(A.Output).compile(Target::vm());
  traceStop();
  const std::string Json = traceWriteJson();

  struct Span {
    std::string Name;
    double Start, End;
    int64_t Nodes;
  };
  std::vector<Span> Spans;
  const std::regex Event(
      "\\{\"name\":\"([^\"]+)\",\"cat\":\"compile\",\"ph\":\"X\","
      "\"ts\":([0-9.]+),\"dur\":([0-9.]+),[^}]*?(\"ir_nodes\":([0-9]+))?\\}");
  for (auto It = std::sregex_iterator(Json.begin(), Json.end(), Event);
       It != std::sregex_iterator(); ++It) {
    const std::smatch &M = *It;
    double Start = std::stod(M[2]);
    Spans.push_back({M[1], Start, Start + std::stod(M[3]),
                     M[5].matched ? std::stoll(M[5]) : -1});
  }
  auto Lower = std::find_if(Spans.begin(), Spans.end(), [&](const Span &S) {
    return S.Name == "lower " + A.Output.name();
  });
  ASSERT_NE(Lower, Spans.end()) << Json;

  // Every pass of lower() is one span inside the lowering span, carrying
  // the IR size it produced.
  std::map<std::string, int> PassSpans;
  for (const Span &S : Spans) {
    if (S.Nodes < 0)
      continue;
    EXPECT_GE(S.Start, Lower->Start) << S.Name;
    EXPECT_LE(S.End, Lower->End + 1e-3) << S.Name;
    EXPECT_GT(S.Nodes, 0) << S.Name;
    ++PassSpans[S.Name];
  }
  const std::map<std::string, int> Expected = {
      {"scheduleFunctions", 1}, {"inlineCalls", 1},  {"boundsInference", 1},
      {"slidingWindow", 1},     {"storageFolding", 1}, {"simplify", 3},
      {"storageFlattening", 1}, {"vectorizeLoops", 1}, {"unrollLoops", 1},
      {"partitionLoops", 1},    {"cse", 1}};
  EXPECT_EQ(PassSpans, Expected);
}
