//===-- tests/TracingTest.cpp ---------------------------------------------===//
//
// The observability contract of Target::Trace (observe/TraceStream.h +
// transforms/Instrument.h):
//
//  * Zero cost when off: the trace bit never reaches the lowering
//    fingerprint or the lowered IR — one cached lowering serves both the
//    instrumented and uninstrumented executables, the instrumented build
//    is one extra backend compile and zero extra lowerings, an off-target
//    artifact contains no trace ops, and a traced run produces
//    bit-identical output to an untraced one.
//  * Engine agreement: for the paper's Figure-3 blur under breadth-first,
//    tiled, and sliding-window schedules, the reference interpreter, the
//    bytecode VM, and the CodeGenC JIT emit *identical* serial event streams
//    (Name records excluded — the intern table is process-wide and grows
//    monotonically across runs).
//  * Analyzer consistency: per-buffer store lanes summed from the trace
//    equal the run's ExecutionStats, and the trace-derived recomputation
//    factor reproduces the Figure-3 shape (breadth-first 1.0, overlapping
//    tiles > 1).
//  * Threaded runs: a multi-threaded trace interleaves at flush
//    granularity but is the same event *multiset* as the serial trace.
//  * One event path: profiling counts the same stage invocations on all
//    three engines, and with both bits on each engine's trace and
//    invocation counts equal its trace-only and profile-only runs.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "codegen/Interpreter.h"
#include "lang/ImageParam.h"
#include "observe/MetricsRegistry.h"
#include "observe/Profiler.h"
#include "observe/TraceStream.h"
#include "runtime/TaskScheduler.h"
#include "support/DiffTest.h"
#include "transforms/Instrument.h"
#include "transforms/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include <unistd.h>

using namespace halide;

namespace {

std::string tmpTracePath(const char *Tag) {
  return "/tmp/halide_tracing_test_" + std::to_string(getpid()) + "_" + Tag +
         ".bin";
}

/// An engine under test: a compiled Target, or the reference interpreter.
/// The interpreter has no executable to instrument, so it walks
/// instrument()'s output for the same Trace and Profile bits.
struct Engine {
  const char *Name;
  bool Interpret; ///< the reference interpreter; otherwise T's backend
  Target T;       ///< instrumentation bits (and the backend, if compiled)
  int Threads = 0; ///< each compiled run's thread request

  int run(const LoweredPipeline &P, const ParamBindings &PB,
          ExecutionStats *Stats = nullptr) const {
    if (!Interpret)
      return runOnBackend(T, P, PB, Stats, Threads);
    ExecutionStats S = interpret(instrument(P, T), PB);
    if (Stats)
      *Stats = std::move(S);
    return 0;
  }
  Engine withTrace() const {
    return {Name, Interpret, T.withTrace(), Threads};
  }
  Engine withProfile() const {
    return {Name, Interpret, T.withProfile(), Threads};
  }
};

const Engine Interpreter{"interpreter", true, Target()};
const Engine SerialVm{"vm", false, Target::vm(), 1};
const Engine Jit{"jit_c", false, Target::jit().withJitFlags("-O0")};

/// Runs \p P on \p E with tracing enabled, streaming to a throwaway file,
/// and returns the decoded events.
std::vector<TraceEvent> runTraced(const Engine &E, const LoweredPipeline &P,
                                  const ParamBindings &PB, const char *Tag,
                                  ExecutionStats *Stats = nullptr) {
  const std::string Path = tmpTracePath(Tag);
  EXPECT_TRUE(traceStreamStart(Path)) << Path;
  EXPECT_EQ(E.withTrace().run(P, PB, Stats), 0);
  traceStreamStop();
  std::vector<TraceEvent> Events;
  std::string Error;
  EXPECT_TRUE(readTraceFile(Path, &Events, &Error)) << Error;
  std::remove(Path.c_str());
  return Events;
}

/// Strips Name records: the stage-id intern table is process-wide, so a
/// later run's trace names every id interned so far, not just its own.
std::vector<TraceEvent> accessStream(std::vector<TraceEvent> Events) {
  Events.erase(std::remove_if(Events.begin(), Events.end(),
                              [](const TraceEvent &E) {
                                return E.Kind == TraceEventKind::TraceName;
                              }),
               Events.end());
  return Events;
}

std::string eventStr(const TraceEvent &E) {
  std::ostringstream OS;
  OS << "stage=" << E.StageId << " kind=" << int(E.Kind)
     << " type=" << traceTypeCodeStr(E.TypeCode) << " coords=[";
  for (size_t I = 0; I < E.Coords.size(); ++I)
    OS << (I ? "," : "") << E.Coords[I];
  OS << "] bits=[";
  for (size_t I = 0; I < E.Bits.size(); ++I)
    OS << (I ? "," : "") << E.Bits[I];
  OS << "]";
  return OS.str();
}

void expectSameStream(const std::vector<TraceEvent> &A,
                      const std::vector<TraceEvent> &B, const char *Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_TRUE(A[I] == B[I]) << Label << ": first divergence at record "
                              << I << "\n  " << eventStr(A[I]) << "\n  "
                              << eventStr(B[I]);
}

bool eventLess(const TraceEvent &A, const TraceEvent &B) {
  return std::tie(A.StageId, A.Kind, A.TypeCode, A.Coords, A.Bits, A.Name) <
         std::tie(B.StageId, B.Kind, B.TypeCode, B.Coords, B.Bits, B.Name);
}

/// Runs \p P on \p E profiled and returns the per-stage invocation
/// counts; with \p Events, the run is also traced into it (Name records
/// stripped).
std::map<std::string, int64_t>
runProfiled(const Engine &E, const LoweredPipeline &P,
            const ParamBindings &PB,
            std::vector<TraceEvent> *Events = nullptr) {
  profilerReset();
  if (Events)
    *Events = accessStream(runTraced(E.withProfile(), P, PB, "profiled"));
  else
    EXPECT_EQ(E.withProfile().run(P, PB), 0);
  std::map<std::string, int64_t> Counts;
  for (const StageProfile &S : profilerReport().Stages)
    Counts[S.Name] = S.Invocations;
  return Counts;
}

/// The paper's Figure-3 two-stage blur, self-contained so the test owns
/// the schedules (stage names prefixed to stay out of other tests' way).
struct BlurHarness {
  ImageParam In;
  Var x{"x"}, y{"y"};
  Func Blurx, Out;

  BlurHarness() : In(UInt(8), 2, "tt_in"), Blurx("tt_blurx"), Out("tt_out") {
    auto InC = [&](Expr X, Expr Y) {
      return cast(UInt(16), In(clamp(X, 0, In.width() - 1),
                               clamp(Y, 0, In.height() - 1)));
    };
    Blurx(x, y) =
        cast(UInt(16), (InC(x - 1, y) + InC(x, y) + InC(x + 1, y)) / 3);
    Out(x, y) = cast(UInt(8),
                     (Blurx(x, y - 1) + Blurx(x, y) + Blurx(x, y + 1)) / 3);
  }

  void reset() {
    Out.function().resetSchedule();
    Blurx.function().resetSchedule();
  }

  ParamBindings params(int W, int H, std::vector<Buffer<uint8_t>> *Keep) {
    Buffer<uint8_t> Input(W, H);
    Input.fill([](int X, int Y) { return (X * 23 + Y * 7) % 256; });
    Buffer<uint8_t> Output(W, H);
    Keep->push_back(Input);
    Keep->push_back(Output);
    ParamBindings P;
    P.bind("tt_in", Input);
    P.bind(Out.name(), Output);
    return P;
  }
};

/// Sums per-lane load/store records per stage name.
struct TraceTraffic {
  std::map<std::string, int64_t> LoadLanes, StoreLanes;
  std::map<std::string, int64_t> DistinctStored;
};

TraceTraffic trafficOf(const std::vector<TraceEvent> &Events) {
  std::map<uint16_t, std::string> Names;
  for (const TraceEvent &E : Events)
    if (E.Kind == TraceEventKind::TraceName)
      Names[E.StageId] = E.Name;
  std::map<std::string, std::map<int32_t, int64_t>> Stored;
  TraceTraffic T;
  for (const TraceEvent &E : Events) {
    if (E.Kind == TraceEventKind::TraceLoad)
      T.LoadLanes[Names[E.StageId]] += int64_t(E.Coords.size());
    else if (E.Kind == TraceEventKind::TraceStore) {
      T.StoreLanes[Names[E.StageId]] += int64_t(E.Coords.size());
      for (int32_t C : E.Coords)
        ++Stored[Names[E.StageId]][C];
    }
  }
  for (const auto &[Name, Coords] : Stored)
    T.DistinctStored[Name] = int64_t(Coords.size());
  return T;
}

} // namespace

TEST(TracingTest, TraceOffIsZeroCost) {
  App A = makeBlurApp();
  A.ScheduleTuned();
  Pipeline Pipe(A.Output);
  const Target Off = Target::vm();
  const Target On = Off.withTrace();

  // The trace bit never reaches the lowering: same fingerprint, same
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

  // Trace ops exist only in the instrumented artifact (VM disassembly
  // names them trace.load / trace.store / trace.begin / trace.end).
  EXPECT_EQ(ExeOff->source().find("trace."), std::string::npos);
  EXPECT_NE(ExeOn->source().find("trace.load"), std::string::npos);
  EXPECT_NE(ExeOn->source().find("trace.store"), std::string::npos);
  EXPECT_NE(ExeOn->source().find("trace.begin"), std::string::npos);

  // Traced and untraced runs produce bit-identical output, and the
  // stream's counters surface through the metrics registry.
  const int W = 96, H = 64;
  ParamBindings Params = A.MakeInputs(W, H);
  std::shared_ptr<void> KeepOff, KeepOn;
  RawBuffer OutOff = makeAppOutput(A, W, H, &KeepOff);
  RawBuffer OutOn = makeAppOutput(A, W, H, &KeepOn);
  ParamBindings POff = Params, POn = Params;
  POff.bind(A.Output.name(), OutOff);
  POn.bind(A.Output.name(), OutOn);
  EXPECT_EQ(ExeOff->run(POff), 0);
  const std::string Path = tmpTracePath("zerocost");
  ASSERT_TRUE(traceStreamStart(Path));
  EXPECT_EQ(ExeOn->run(POn), 0);
  traceStreamStop();
  std::remove(Path.c_str());
  std::string Detail;
  EXPECT_TRUE(buffersMatch(OutOff, OutOn, 0.0, 0, &Detail)) << Detail;
  TraceStreamStats TS = traceStreamStats();
  EXPECT_GT(TS.EventsEmitted, 0);
  EXPECT_EQ(TS.EventsDropped, 0);
  EXPECT_GT(TS.BytesWritten, 0);
  MetricsSnapshot M = metricsSnapshot();
  EXPECT_EQ(M.get("trace.events_emitted"), TS.EventsEmitted);
  EXPECT_EQ(M.get("trace.events_dropped"), 0);
  EXPECT_EQ(M.get("trace.bytes_written"), TS.BytesWritten);
}

TEST(TracingTest, EnginesEmitIdenticalSerialStreams) {
  BlurHarness B;
  const int W = 32, H = 32; // multiple of the tile size below
  std::vector<Buffer<uint8_t>> Keep;
  ParamBindings Params = B.params(W, H, &Keep);

  struct Sched {
    const char *Name;
    std::function<void(BlurHarness &)> Apply;
  };
  std::vector<Sched> Schedules = {
      {"breadth_first", [](BlurHarness &H) { H.Blurx.computeRoot(); }},
      {"tiled",
       [](BlurHarness &H) {
         Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
         H.Out.tile(H.x, H.y, xo, yo, xi, yi, 16, 16);
         H.Blurx.computeAt(H.Out, xo);
       }},
      {"sliding_window",
       [](BlurHarness &H) {
         H.Blurx.storeRoot().computeAt(H.Out, H.y);
       }},
  };

  for (const Sched &S : Schedules) {
    B.reset();
    S.Apply(B);
    LoweredPipeline P = lower(B.Out.function());

    std::vector<TraceEvent> Interp =
        accessStream(runTraced(Interpreter, P, Params, "interp"));
    std::vector<TraceEvent> Vm =
        accessStream(runTraced(SerialVm, P, Params, "vm"));
    std::vector<TraceEvent> FromJit =
        accessStream(runTraced(Jit, P, Params, "jit"));

    ASSERT_FALSE(Interp.empty()) << S.Name;
    expectSameStream(Interp, Vm,
                     (std::string(S.Name) + ": interpreter vs vm").c_str());
    expectSameStream(Interp, FromJit,
                     (std::string(S.Name) + ": interpreter vs jit_c").c_str());
  }
}

TEST(TracingTest, ProfilingAgreesAcrossEnginesAndComposesWithTracing) {
  // Tuned histeq's update stages are profiled as name.update(k)
  // sub-stages, so the per-update bracketing is exercised too.
  for (App A : {makeBlurApp(), makeHistogramEqualizeApp()}) {
    A.ScheduleTuned();
    LoweredPipeline P = lower(A.Output.function());
    const int W = 64, H = 48;
    ParamBindings Params = A.MakeInputs(W, H);
    std::shared_ptr<void> Keep;
    Params.bind(A.Output.name(), makeAppOutput(A, W, H, &Keep));

    std::map<std::string, int64_t> Reference;
    for (const Engine &E : {Interpreter, SerialVm, Jit}) {
      const std::string Label = A.Name + " on " + E.Name;
      std::map<std::string, int64_t> Counts = runProfiled(E, P, Params);
      ASSERT_TRUE(Counts.count(A.Output.name())) << Label;
      if (Reference.empty())
        Reference = Counts;
      EXPECT_EQ(Counts, Reference) << Label;

      std::vector<TraceEvent> TraceOnly =
          accessStream(runTraced(E, P, Params, "trace_only"));
      std::vector<TraceEvent> Both;
      EXPECT_EQ(runProfiled(E, P, Params, &Both), Counts) << Label;
      ASSERT_FALSE(TraceOnly.empty()) << Label;
      if (!E.Interpret && E.T.TargetBackend == Backend::JitC) {
        // Compiled parallel loops always run on the task scheduler's
        // pool, so a jit_c trace is an event multiset.
        std::sort(TraceOnly.begin(), TraceOnly.end(), eventLess);
        std::sort(Both.begin(), Both.end(), eventLess);
      }
      expectSameStream(TraceOnly, Both,
                       (Label + ": profiled+traced vs traced").c_str());
    }
    if (A.Name == "histeq") {
      bool HasUpdateStage = false;
      for (const auto &[Stage, N] : Reference)
        HasUpdateStage |= Stage.find(".update(") != std::string::npos;
      EXPECT_TRUE(HasUpdateStage) << "no name.update(k) sub-stage profiled";
    }
  }
}

TEST(TracingTest, AnalyzerCountsMatchExecutionStats) {
  BlurHarness B;
  const int W = 64, H = 48;
  std::vector<Buffer<uint8_t>> Keep;
  ParamBindings Params = B.params(W, H, &Keep);

  // Breadth-first: every blurx element is stored exactly once — the
  // trace-derived recomputation factor is exactly 1.
  B.reset();
  B.Blurx.computeRoot();
  LoweredPipeline BF = lower(B.Out.function());
  ExecutionStats BFStats;
  TraceTraffic BFT =
      trafficOf(runTraced(SerialVm, BF, Params, "bf", &BFStats));
  EXPECT_EQ(BFT.LoadLanes, BFStats.LoadsPerBuffer);
  EXPECT_EQ(BFT.StoreLanes, BFStats.StoresPerBuffer);
  ASSERT_GT(BFT.DistinctStored["tt_blurx"], 0);
  EXPECT_EQ(BFT.StoreLanes["tt_blurx"], BFT.DistinctStored["tt_blurx"]);
  EXPECT_EQ(BFT.StoreLanes["tt_out"], int64_t(W) * H);

  // Overlapping 16x16 tiles: each tile re-derives its neighbours' blurx
  // fringe rows, so stores outnumber distinct elements (Figure 3's
  // work-amplification, measured from the actual execution).
  B.reset();
  Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
  B.Out.tile(B.x, B.y, xo, yo, xi, yi, 16, 16);
  B.Blurx.computeAt(B.Out, xo);
  LoweredPipeline Tiled = lower(B.Out.function());
  ExecutionStats TiledStats;
  TraceTraffic TiledT =
      trafficOf(runTraced(SerialVm, Tiled, Params, "tiled", &TiledStats));
  EXPECT_EQ(TiledT.LoadLanes, TiledStats.LoadsPerBuffer);
  EXPECT_EQ(TiledT.StoreLanes, TiledStats.StoresPerBuffer);
  EXPECT_GT(TiledT.StoreLanes["tt_blurx"], TiledT.DistinctStored["tt_blurx"]);
  // The output itself is never recomputed by any schedule.
  EXPECT_EQ(TiledT.StoreLanes["tt_out"], int64_t(W) * H);
}

TEST(TracingTest, ThreadedTraceIsSerialMultiset) {
  BlurHarness B;
  const int W = 64, H = 48;
  std::vector<Buffer<uint8_t>> Keep;
  ParamBindings Params = B.params(W, H, &Keep);

  B.reset();
  Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
  B.Out.tile(B.x, B.y, xo, yo, xi, yi, 16, 16).parallel(yo);
  B.Blurx.computeAt(B.Out, xo);
  LoweredPipeline P = lower(B.Out.function());

  std::vector<TraceEvent> Serial =
      accessStream(runTraced(SerialVm, P, Params, "serial"));

  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(4);
  std::vector<TraceEvent> Threaded = accessStream(runTraced(
      {"vm", false, Target::vm(), 4}, P, Params, "threaded"));
  setTaskSchedulerThreads(Before);

  // Worker buffers flush in nondeterministic order, but every event of
  // the serial run appears exactly once: same multiset.
  ASSERT_FALSE(Serial.empty());
  ASSERT_EQ(Serial.size(), Threaded.size());
  std::sort(Serial.begin(), Serial.end(), eventLess);
  std::sort(Threaded.begin(), Threaded.end(), eventLess);
  expectSameStream(Serial, Threaded, "threaded vs serial (sorted)");
}
