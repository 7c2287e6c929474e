//===-- perfbench/src/Workloads.cpp - The benchmark's workloads -----------===//
//
// Every gated time is host-normalized (Measure.h), taken on one thread with
// a task-scheduler pool of one, and reported as a median or percentile over
// many samples interleaved round-robin across the workload's programs in a
// seeded order. Each program's median is its own per-layer row; a gated
// value is the geometric mean of its rows. Output checks run outside every
// timed window.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "Programs.h"
#include "Spans.h"

#include "analysis/Bounds.h"
#include "codegen/CodeGenC.h"
#include "codegen/Executable.h"
#include "ir/IRVisitor.h"
#include "runtime/BufferPool.h"
#include "runtime/TaskScheduler.h"
#include "vm/VmCompiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace halide;

namespace pb {

void RunContext::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
  }
}

void RunContext::endToEnd(const std::string &Name, double Value,
                          const char *Unit, int64_t Samples) {
  EndToEnd.push_back({Name, Value, Unit, Samples});
}

void RunContext::perLayer(const std::string &Name, double Value,
                          const char *Unit, int64_t Samples) {
  PerLayer.push_back({Name, Value, Unit, Samples});
}

void RunContext::exactCount(const std::string &Name, int64_t Value) {
  auto [It, Inserted] = ExactCounts.emplace(Name, Value);
  if (!Inserted && It->second != Value) {
    ++CountMismatches;
    std::fprintf(stderr,
                 "perfbench: exact count %s changed within the run: %lld "
                 "then %lld\n",
                 Name.c_str(), (long long)It->second, (long long)Value);
  }
}

namespace {

using Spec = std::pair<const char *, const char *>; // app, schedule

const char *const SixApps[] = {"blur",        "bilateral_grid",
                               "camera_pipe", "interpolate",
                               "local_laplacian", "histeq"};
const char *const FiveApps[] = {"blur", "bilateral_grid", "camera_pipe",
                                "interpolate", "histeq"};
const char *const ServeApps[] = {"blur", "histeq", "camera_pipe",
                                 "bilateral_grid"};

/// Times set-up steps, each preceded by a calibration pass so the whole
/// set-up is normalized piecewise like any other sample.
class SetupTimer {
public:
  explicit SetupTimer(HostClock &C) : C(C) {}

  template <typename Fn> void step(Fn &&F) {
    C.calibrate();
    Sample S;
    S.Mark = C.mark();
    const double T0 = nowMs();
    F();
    S.RawMs = nowMs() - T0;
    Steps.push_back(S);
  }
  /// Valid once two more calibrations follow the last step.
  double seconds(bool Normalized) const {
    double Ms = 0;
    for (const Sample &S : Steps)
      Ms += Normalized ? C.normalizedMs(S) : S.RawMs;
    return Ms / 1000.0;
  }

private:
  HostClock &C;
  std::vector<Sample> Steps;
};

/// Runs \p Reps set-ups through \p Build and reports setup_s as the median
/// of their normalized totals. Each repetition starts from an empty
/// compile cache.
template <typename Fn>
void timeSetups(RunContext &Ctx, int Reps, Fn &&Build) {
  std::vector<SetupTimer> Timers;
  for (int R = 0; R < Reps; ++R) {
    Pipeline::clearCompileCache();
    Timers.emplace_back(Ctx.Clock);
    Build(Timers.back());
  }
  Ctx.Clock.calibrate();
  Ctx.Clock.calibrate();
  std::vector<double> Norm, Raw;
  for (const SetupTimer &T : Timers) {
    Norm.push_back(T.seconds(true));
    Raw.push_back(T.seconds(false));
  }
  Ctx.endToEnd("setup_s", median(Norm), "s", Reps);
  Ctx.perLayer("raw.setup_s", median(Raw), "s", Reps);
}

/// Per-program normalized and raw per-operation times.
struct Rows {
  std::vector<std::vector<double>> Norm, Raw;

  Rows(const HostClock &C, const std::vector<Sample> &Samples, size_t N)
      : Norm(N), Raw(N) {
    for (const Sample &S : Samples) {
      Norm[size_t(S.Program)].push_back(C.normalizedMs(S));
      Raw[size_t(S.Program)].push_back(S.RawMs / S.Count);
    }
  }
  /// Geometric mean over \p Progs of each program's statistic.
  double gm(const std::vector<size_t> &Progs, bool Normalized,
            double P = 0.5) const {
    std::vector<double> V;
    for (size_t I : Progs)
      V.push_back(P == 0.5 ? median((Normalized ? Norm : Raw)[I])
                           : percentile((Normalized ? Norm : Raw)[I], P));
    return geomean(V);
  }
  /// Operations per second of a round that runs every program once: the
  /// program count over the sum of per-program medians. Per-program
  /// medians keep it independent of which programs the seed drew more
  /// often and of where the run's time ran out.
  double opsPerSecond(bool Normalized) const {
    double Ms = 0;
    for (size_t I = 0; I < Norm.size(); ++I)
      Ms += median((Normalized ? Norm : Raw)[I]);
    return Ms > 0 ? double(Norm.size()) * 1000.0 / Ms : 0;
  }
};

std::vector<size_t> shuffledOrder(RunContext &Ctx, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Ctx.Rng);
  return Order;
}

/// Public library counters, sampled around a timed window.
struct Counters {
  CompileCounters Compile;
  TaskSchedulerStats Tasks;
  BufferPoolStats Pool;

  static Counters take() {
    return {Pipeline::compileCounters(), taskSchedulerStats(),
            bufferPoolStats()};
  }
};

/// The samples of a timed window and the library counters around it. A
/// traced run splits the window: the first half runs with spans off
/// (Untraced), the second with spans on (Samples), so the gap between the
/// halves is the tracing overhead. An untraced run fills Samples only.
struct Window {
  std::vector<Sample> Untraced, Samples;
  Counters Before, After;
};

/// The lang and runtime per-layer counters over a window's operations
/// (frames, compiles or requests; a batched sample counts each).
void reportCounters(RunContext &Ctx, const Window &W) {
  const Counters &B = W.Before, &A = W.After;
  int64_t Ops = 0;
  for (const Sample &S : W.Samples)
    Ops += S.Count;
  const double N = double(std::max<int64_t>(Ops, 1));
  const double Lowerings = double(A.Compile.Lowerings - B.Compile.Lowerings);
  const double Backend =
      double(A.Compile.BackendCompiles - B.Compile.BackendCompiles);
  const double Hits = double(A.Compile.CacheHits - B.Compile.CacheHits);
  const double PoolHits = double(A.Pool.PoolHits - B.Pool.PoolHits);
  const double Fresh =
      double(A.Pool.FreshAllocations - B.Pool.FreshAllocations);
  Ctx.perLayer("lang.lowerings", Lowerings / N, "1/op", Ops);
  Ctx.perLayer("lang.backend_compiles", Backend / N, "1/op", Ops);
  Ctx.perLayer("lang.cache_hits", Hits / N, "1/op", Ops);
  Ctx.perLayer("runtime.async_jobs",
               double(A.Tasks.AsyncJobsExecuted - B.Tasks.AsyncJobsExecuted) /
                   N,
               "1/op", Ops);
  Ctx.perLayer("runtime.chunks_per_frame",
               double(A.Tasks.ChunksExecuted - B.Tasks.ChunksExecuted) / N,
               "1/op", Ops);
  Ctx.perLayer("runtime.pool_hit_ratio",
               PoolHits + Fresh > 0 ? PoolHits / (PoolHits + Fresh) : 0,
               "ratio", Ops);
  Ctx.perLayer("runtime.fresh_allocs_per_frame", Fresh / N, "1/op", Ops);
  Ctx.perLayer("runtime.pool_bytes_held", double(A.Pool.BytesHeld), "B");
  Ctx.exactCount("lang.lowerings_per_1000_ops",
                 std::llround(1000.0 * Lowerings / N));
}


/// Calls \p Body(Samples, Request, EndMs) until the run's seconds elapse.
template <typename Fn>
Window timedWindow(RunContext &Ctx, Fn &&Body) {
  Window W;
  auto Loop = [&](double Ms, std::vector<Sample> &Out) {
    const double End = nowMs() + Ms;
    int64_t Request = 0;
    while (nowMs() < End)
      Body(Out, Request++, End);
  };
  spans().Enabled = false;
  if (Ctx.Traced)
    Loop(Ctx.Seconds * 500.0, W.Untraced);
  spans().Enabled = Ctx.Traced;
  W.Before = Counters::take();
  Loop(Ctx.Traced ? Ctx.Seconds * 500.0 : Ctx.Seconds * 1000.0, W.Samples);
  W.After = Counters::take();
  Ctx.Clock.calibrate();
  Ctx.Clock.calibrate();
  return W;
}

/// observe.bench_trace_overhead_pct from a gated statistic computed over
/// the untraced and traced halves.
template <typename Fn>
void reportOverhead(RunContext &Ctx, const Window &W, Fn &&Statistic) {
  if (!Ctx.Traced)
    return;
  const double U = Statistic(W.Untraced), T = Statistic(W.Samples);
  Ctx.perLayer("observe.bench_trace_overhead_pct",
               U > 0 ? (T / U - 1.0) * 100.0 : 0, "%");
}

/// The three gated statistics of a workload, printed with their raw
/// twins and the calibration beside them.
void reportGated(RunContext &Ctx, double Primary, double RawPrimary,
                 double Secondary, double RawSecondary, double Ops,
                 double RawOps, int64_t Samples) {
  Ctx.endToEnd("primary_ms", Primary, "ms", Samples);
  Ctx.endToEnd("secondary_ms", Secondary, "ms", Samples);
  Ctx.endToEnd("ops_per_s", Ops, "1/s", Samples);
  Ctx.perLayer("raw.primary_ms", RawPrimary, "ms", Samples);
  Ctx.perLayer("raw.secondary_ms", RawSecondary, "ms", Samples);
  Ctx.perLayer("raw.ops_per_s", RawOps, "1/s", Samples);
  Ctx.perLayer("host.calib_ms", Ctx.Clock.medianCalibMs(), "ms",
               int64_t(Ctx.Clock.calibrations()));
}

//===----------------------------------------------------------------------===//
// frames
//===----------------------------------------------------------------------===//

struct FrameSet {
  std::vector<App> Apps;
  std::vector<Program> Progs;
};

void buildFrameSet(FrameSet &FS, SetupTimer &T, Engine E, int W, int H,
                   const std::vector<Spec> &Specs) {
  T.step([&] { FS.Apps = makeApps(); });
  FS.Progs.clear();
  for (const Spec &S : Specs) {
    Program P;
    P.A = &findApp(FS.Apps, S.first);
    P.Schedule = S.second;
    P.E = E;
    P.W = W;
    P.H = H;
    FS.Progs.push_back(std::move(P));
  }
  T.step([&] {
    for (Program &P : FS.Progs)
      P.makeBuffers();
  });
  for (Program &P : FS.Progs)
    T.step([&] { P.compile(); });
}

/// Frames per sample: the power of two that makes a sample at least a
/// millisecond, from the normalized median of three warm frames.
void chooseBatch(RunContext &Ctx, Program &P) {
  std::vector<double> Ms;
  for (int I = 0; I < 3; ++I) {
    const double T0 = nowMs();
    P.run();
    Ms.push_back(nowMs() - T0);
  }
  const double Norm = median(Ms) * Ctx.Clock.factor(Ctx.Clock.mark());
  P.Batch = 1;
  while (P.Batch < 64 && Norm * P.Batch < 1.0)
    P.Batch *= 2;
}

void runFrameWorkload(RunContext &Ctx, Engine E, int W, int H,
                      const std::vector<Spec> &Specs, int SetupReps,
                      const char *PrimaryName, const char *SecondaryName) {
  FrameSet FS;
  timeSetups(Ctx, SetupReps, [&](SetupTimer &T) {
    buildFrameSet(FS, T, E, W, H, Specs);
  });

  for (Program &P : FS.Progs) {
    std::string Detail;
    const bool Ok = verifyProgram(P, &Detail);
    Ctx.check(Ok, P.name() + "." + engineName(E) + ": " + Detail);
    std::printf("verify %s.%s %dx%d: %s\n", P.name().c_str(), engineName(E),
                P.W, P.H, Detail.c_str());
  }
  for (Program &P : FS.Progs)
    chooseBatch(Ctx, P);

  Window Win = timedWindow(Ctx, [&](std::vector<Sample> &Out,
                                    int64_t Request, double End) {
    for (size_t I : shuffledOrder(Ctx, FS.Progs.size())) {
      if (nowMs() >= End && Request > 0)
        return;
      Program &P = FS.Progs[I];
      Ctx.Clock.maybeCalibrate();
      Sample S;
      S.Program = int(I);
      S.Count = P.Batch;
      S.Mark = Ctx.Clock.mark();
      int Rc = 0;
      {
        ScopedSpan Span("perfbench.sample", Request);
        const double T0 = nowMs();
        for (int B = 0; B < P.Batch; ++B) {
          ScopedSpan Run("executable.run");
          Rc |= P.run();
        }
        S.RawMs = nowMs() - T0;
      }
      Out.push_back(S);
      Ctx.Attempted += P.Batch - 1;
      Ctx.check(Rc == 0 && P.outputHash() == P.VerifiedHash,
                P.name() + " frame output differs from the verified one");
    }
  });

  std::vector<size_t> Tuned, Bf;
  for (size_t I = 0; I < FS.Progs.size(); ++I)
    (FS.Progs[I].Schedule == "tuned" ? Tuned : Bf).push_back(I);

  const HostClock &C = Ctx.Clock;
  Rows R(C, Win.Samples, FS.Progs.size());
  const int64_t N = int64_t(Win.Samples.size());
  reportGated(Ctx, R.gm(Tuned, true), R.gm(Tuned, false), R.gm(Bf, true),
              R.gm(Bf, false), R.opsPerSecond(true), R.opsPerSecond(false), N);
  Ctx.endToEnd("peak_rss_mb", peakRssMb(), "MB", 1);
  std::printf("%s = %.4f ms, %s = %.4f ms (geometric means of per-program "
              "medians)\n",
              PrimaryName, R.gm(Tuned, true), SecondaryName, R.gm(Bf, true));

  for (size_t I = 0; I < FS.Progs.size(); ++I)
    Ctx.perLayer("frames." + FS.Progs[I].name() + "." + engineName(E) +
                     "_ms",
                 median(R.Norm[I]), "ms", int64_t(R.Norm[I].size()));
  if (Ctx.Traced) {
    reportOverhead(Ctx, Win, [&](const std::vector<Sample> &S) {
      return Rows(C, S, FS.Progs.size()).gm(Tuned, true);
    });
    reportCounters(Ctx, Win);
  }

  if (Ctx.Traced && E == Engine::Vm) {
    int64_t Loads = 0, Stores = 0, Peak = 0;
    for (Program &P : FS.Progs) {
      ExecutionStats St;
      P.Exe->run(P.Params, &St);
      for (const auto &KV : St.LoadsPerBuffer)
        Loads += KV.second;
      Stores += St.totalStores();
      Peak += St.PeakAllocationBytes;
    }
    Ctx.perLayer("vm.loads_per_frame", double(Loads), "count");
    Ctx.perLayer("vm.stores_per_frame", double(Stores), "count");
    Ctx.perLayer("vm.peak_alloc_bytes", double(Peak), "B");
    Ctx.exactCount("vm.loads_per_frame", Loads);
    Ctx.exactCount("vm.stores_per_frame", Stores);
  }

  if (Ctx.Traced && E == Engine::Jit) {
    // Informational only: parallel frames are too noisy on a shared host
    // to gate (README.md). Pool of two against the pool-of-one rows above.
    pinToOneCpu(false);
    setTaskSchedulerThreads(2);
    std::vector<Sample> Two;
    for (int Round = 0; Round < 3; ++Round)
      for (size_t I : Tuned) {
        Program &P = FS.Progs[I];
        Ctx.Clock.maybeCalibrate();
        Sample S{int(I), 0, P.Batch, Ctx.Clock.mark()};
        const double T0 = nowMs();
        for (int B = 0; B < P.Batch; ++B)
          P.run();
        S.RawMs = nowMs() - T0;
        Two.push_back(S);
      }
    setTaskSchedulerThreads(1);
    pinToOneCpu(true);
    Ctx.Clock.calibrate();
    Ctx.Clock.calibrate();
    Ctx.perLayer("runtime.speedup_2t",
                 R.gm(Tuned, true) /
                     Rows(C, Two, FS.Progs.size()).gm(Tuned, true),
                 "x", int64_t(Two.size()));
  }
}

std::vector<Spec> frameSpecs(bool WithLocalLaplacian) {
  std::vector<Spec> Specs;
  if (WithLocalLaplacian)
    for (const char *A : SixApps)
      Specs.push_back({A, "tuned"});
  else
    for (const char *A : FiveApps)
      Specs.push_back({A, "tuned"});
  for (const char *A : FiveApps)
    Specs.push_back({A, "breadth_first"});
  return Specs;
}

} // namespace

void runFrames(RunContext &Ctx) {
  runFrameWorkload(Ctx, Engine::Jit, 512, 384, frameSpecs(true),
                   /*SetupReps=*/2, "frame_ms", "frame_bf_ms");
  // VM frames slow down far more than the calibration kernel in this
  // host's heavy phases (README.md), so they are not gated; a traced run
  // still reports their per-program rows and VM counters. The jit_c
  // values of shared per-layer names stay the reported ones.
  if (Ctx.Traced)
    runFrameWorkload(Ctx, Engine::Vm, 128, 96, frameSpecs(false),
                     /*SetupReps=*/1, "vm_frame_ms", "vm_frame_bf_ms");
}

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

/// Records the exact counts of what each layer produces for \p P: IR
/// nodes after lower(), bounds-cache hits and misses during it, and the
/// size of the emitted C or bytecode. Generated names carry process-wide
/// counters, so the C size depends on everything lowered before; callers
/// keep that history fixed (set-up and verification, in program order).
static void countCompileLayers(RunContext &Ctx, const Program &P) {
  const std::string Name = P.name() + "." + engineName(P.E);
  const BoundsStatistics B0 = Bounds::statistics();
  const LoweredPipeline LP = lower(P.A->Output.function(), engineTarget(P.E));
  const BoundsStatistics B1 = Bounds::statistics();
  Ctx.exactCount("analysis.bounds_cache_hits." + Name,
                 int64_t(B1.CacheHits - B0.CacheHits));
  Ctx.exactCount("analysis.bounds_cache_misses." + Name,
                 int64_t(B1.CacheMisses - B0.CacheMisses));
  Ctx.exactCount("transforms.ir_nodes." + Name,
                 int64_t(countIRNodes(LP.Body)));
  if (P.E == Engine::Jit)
    Ctx.exactCount("codegen.c_bytes." + Name,
                   int64_t(codegenC(LP, "hl_pipeline").size()));
  else
    Ctx.exactCount("vm.instrs." + Name,
                   int64_t(compileToBytecode(LP).Code.size()));
}

/// The traced half's layer breakdown of one program's compile, after its
/// timed sample: lower(), then codegenC() and makeExecutable() for jit_c or
/// compileToBytecode() and makeExecutable() for the VM, each in its own
/// span.
static void traceCompileLayers(const Program &P, int64_t Request) {
  const Target T = engineTarget(P.E);
  LoweredPipeline LP;
  {
    ScopedSpan Lower("transforms.lower", Request);
    LP = lower(P.A->Output.function(), T);
  }
  if (P.E == Engine::Jit) {
    {
      ScopedSpan Emit("codegen.emit_c", Request);
      codegenC(LP, "hl_pipeline");
    }
    ScopedSpan Make("codegen.make_executable", Request);
    makeExecutable(LP, T);
  } else {
    {
      ScopedSpan Vm("vm.compile", Request);
      compileToBytecode(LP);
    }
    ScopedSpan Make("vm.make_executable", Request);
    makeExecutable(LP, T);
  }
}

void runCompile(RunContext &Ctx) {
  std::vector<App> Apps;
  timeSetups(Ctx, 3, [&](SetupTimer &T) {
    T.step([&] { Apps = makeApps(); });
    // First use of the host compiler and of the VM compiler pays for
    // loading them; the workload measures compiles after that.
    T.step([&] {
      App &Blur = findApp(Apps, "blur");
      applySchedule(Blur, "tuned");
      Pipeline(Blur.Output).compile(Target::jit());
      Pipeline(Blur.Output).compile(Target::vm());
    });
  });

  std::vector<Program> Progs;
  auto Add = [&](const char *AppName, const char *Schedule, Engine E) {
    Program P;
    P.A = &findApp(Apps, AppName);
    P.Schedule = Schedule;
    P.E = E;
    // Outputs are checked at a small frame: the compile is what is timed.
    P.W = E == Engine::Jit ? 128 : 48;
    P.H = E == Engine::Jit ? 96 : 32;
    P.makeBuffers();
    Progs.push_back(std::move(P));
  };
  for (const char *A : ServeApps) {
    Add(A, "tuned", Engine::Jit);
    Add(A, "breadth_first", Engine::Jit);
  }
  for (const char *A : FiveApps) {
    Add(A, "tuned", Engine::Vm);
    Add(A, "breadth_first", Engine::Vm);
  }
  Add("local_laplacian", "tuned", Engine::Vm);

  // Each program's first compile is verified before the timed window;
  // every timed compile's artifact must then compute the verified output.
  // VM compiles of small pipelines take under a millisecond and jit_c
  // compiles of them under 100 ms, so a sample batches the power of two of
  // cold compiles that lasts 200 ms (at most 64).
  for (Program &P : Progs) {
    Pipeline::clearCompileCache();
    Ctx.Clock.calibrate();
    const size_t Mark = Ctx.Clock.mark();
    const double T0 = nowMs();
    P.compile();
    const double Ms = (nowMs() - T0) * Ctx.Clock.factor(Mark);
    while (P.Batch < 64 && Ms * P.Batch < 200.0)
      P.Batch *= 2;
    std::string Detail;
    const std::string Name = P.name() + "." + engineName(P.E);
    Ctx.check(verifyProgram(P, &Detail), Name + ": " + Detail);
    std::printf("verify %s %dx%d: %s\n", Name.c_str(), P.W, P.H,
                Detail.c_str());
  }

  if (Ctx.Traced)
    for (Program &P : Progs) {
      applySchedule(*P.A, P.Schedule);
      countCompileLayers(Ctx, P);
    }

  double RssAfterFirstRound = 0;
  size_t Compiles = 0;

  Window Win = timedWindow(Ctx, [&](std::vector<Sample> &Out,
                                    int64_t Request, double End) {
    for (size_t I : shuffledOrder(Ctx, Progs.size())) {
      if (nowMs() >= End && Request > 0)
        return;
      Program &P = Progs[I];
      const Target T = engineTarget(P.E);
      applySchedule(*P.A, P.Schedule);
      Ctx.Clock.calibrate();
      Sample S{int(I), 0, P.Batch, Ctx.Clock.mark()};
      for (int B = 0; B < P.Batch; ++B) {
        P.Exe.reset();
        Pipeline::clearCompileCache();
        ScopedSpan Span("perfbench.sample", Request);
        const double T0 = nowMs();
        std::shared_ptr<const Executable> Exe =
            Pipeline(P.A->Output).compile(T);
        S.RawMs += nowMs() - T0;
        P.Exe = std::move(Exe);
      }
      Out.push_back(S);
      Ctx.Attempted += P.Batch - 1;
      const std::string Name = P.name() + "." + engineName(P.E);
      if (spans().Enabled)
        traceCompileLayers(P, Request);
      Ctx.check(P.run() == 0 && P.outputHash() == P.VerifiedHash,
                Name + " recompiled artifact computes a different output");
      if (++Compiles == Progs.size())
        RssAfterFirstRound = peakRssMb();
    }
  });

  std::vector<size_t> Jit, Vm;
  for (size_t I = 0; I < Progs.size(); ++I)
    (Progs[I].E == Engine::Jit ? Jit : Vm).push_back(I);
  const HostClock &C = Ctx.Clock;
  Rows R(C, Win.Samples, Progs.size());
  const int64_t N = int64_t(Win.Samples.size());
  reportGated(Ctx, R.gm(Jit, true), R.gm(Jit, false), R.gm(Vm, true),
              R.gm(Vm, false), R.opsPerSecond(true), R.opsPerSecond(false), N);
  // Read after a fixed amount of work, so a faster host that fits more
  // compiles into the run does not report more memory.
  Ctx.endToEnd("peak_rss_mb",
               RssAfterFirstRound > 0 ? RssAfterFirstRound : peakRssMb(),
               "MB", 1);
  std::printf("compile_ms = %.4f ms, compile_vm_ms = %.4f ms (geometric "
              "means of per-program medians)\n",
              R.gm(Jit, true), R.gm(Vm, true));

  for (size_t I = 0; I < Progs.size(); ++I)
    Ctx.perLayer("compile." + Progs[I].name() + "." +
                     engineName(Progs[I].E) + "_ms",
                 median(R.Norm[I]), "ms", int64_t(R.Norm[I].size()));
  if (!Ctx.Traced)
    return;
  reportOverhead(Ctx, Win, [&](const std::vector<Sample> &S) {
    return Rows(C, S, Progs.size()).gm(Jit, true);
  });
  reportCounters(Ctx, Win);

  // Layer times: per program, the median span self time; across programs,
  // the geometric mean. Every traced sample of a program in Set recorded
  // exactly one span of each of its layers, in sample order.
  auto LayerMs = [&](const char *SpanName, const std::vector<size_t> &Set) {
    std::vector<std::vector<double>> Per(Progs.size());
    const std::vector<double> Self = spans().selfTimes(SpanName);
    std::vector<size_t> Owners;
    for (const Sample &S : Win.Samples)
      if (std::find(Set.begin(), Set.end(), size_t(S.Program)) != Set.end())
        Owners.push_back(size_t(S.Program));
    for (size_t K = 0; K < Self.size() && K < Owners.size(); ++K)
      Per[Owners[K]].push_back(Self[K]);
    std::vector<double> Medians;
    for (size_t I : Set)
      if (!Per[I].empty())
        Medians.push_back(median(Per[I]));
    return geomean(Medians);
  };
  std::vector<size_t> All(Progs.size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  const double EmitMs = LayerMs("codegen.emit_c", Jit);
  Ctx.perLayer("transforms.lower_ms", LayerMs("transforms.lower", All), "ms");
  Ctx.perLayer("codegen.emit_c_ms", EmitMs, "ms");
  Ctx.perLayer("codegen.cc_ms",
               LayerMs("codegen.make_executable", Jit) - EmitMs, "ms");
  Ctx.perLayer("vm.compile_ms", LayerMs("vm.compile", Vm), "ms");

  auto SumCounts = [&](const std::string &Prefix) {
    int64_t Sum = 0;
    for (const auto &[Name, Value] : Ctx.ExactCounts)
      if (Name.rfind(Prefix, 0) == 0)
        Sum += Value;
    return double(Sum);
  };
  Ctx.perLayer("transforms.ir_nodes", SumCounts("transforms.ir_nodes."),
               "count");
  Ctx.perLayer("analysis.bounds_cache_hits",
               SumCounts("analysis.bounds_cache_hits."), "count");
  Ctx.perLayer("analysis.bounds_cache_misses",
               SumCounts("analysis.bounds_cache_misses."), "count");
  Ctx.perLayer("codegen.c_bytes", SumCounts("codegen.c_bytes."), "B");
  Ctx.perLayer("vm.instrs", SumCounts("vm.instrs."), "count");

  // Memory kept per cold compile, from resident-set growth over a loop of
  // cold VM compiles of one small pipeline.
  App &Blur = findApp(Apps, "blur");
  applySchedule(Blur, "tuned");
  constexpr int Loops = 400;
  const double Rss0 = currentRssKb();
  for (int I = 0; I < Loops; ++I) {
    Pipeline::clearCompileCache();
    Pipeline(Blur.Output).compile(Target::vm());
  }
  Ctx.perLayer("lang.rss_kb_per_compile",
               (currentRssKb() - Rss0) / Loops, "KB", Loops);
}

//===----------------------------------------------------------------------===//
// serve-mix
//===----------------------------------------------------------------------===//

void runServeMix(RunContext &Ctx) {
  const int Sizes[2][2] = {{256, 192}, {512, 384}};
  std::vector<App> Apps;
  std::vector<Program> Classes;
  timeSetups(Ctx, 3, [&](SetupTimer &T) {
    T.step([&] { Apps = makeApps(); });
    Classes.clear();
    T.step([&] {
      for (const char *A : ServeApps)
        for (const auto &WH : Sizes) {
          Program P;
          P.A = &findApp(Apps, A);
          P.Schedule = "tuned";
          P.W = WH[0];
          P.H = WH[1];
          P.makeBuffers();
          Classes.push_back(std::move(P));
        }
    });
    for (size_t I = 0; I < Classes.size(); I += 2)
      T.step([&] {
        Classes[I].compile();
        Classes[I + 1].Exe = Classes[I].Exe;
      });
  });

  std::vector<Pipeline> Pipes;
  for (Program &P : Classes) {
    std::string Detail;
    Ctx.check(verifyProgram(P, &Detail), P.name() + ": " + Detail);
    std::printf("verify %s %dx%d: %s\n", P.name().c_str(), P.W, P.H,
                Detail.c_str());
    // Verification may leave another schedule applied.
    applySchedule(*P.A, "tuned");
  }
  for (Program &P : Classes) {
    Pipes.emplace_back(P.A->Output);
    Pipes.back().realizeAsync(P.Out, P.Params, Target::jit()).wait();
  }

  Window Win = timedWindow(Ctx, [&](std::vector<Sample> &Out,
                                    int64_t Request, double) {
    Ctx.Clock.maybeCalibrate();
    const size_t I = size_t(Ctx.Rng() % Classes.size());
    Program &P = Classes[I];
    Sample S{int(I), 0, 1, Ctx.Clock.mark()};
    {
      ScopedSpan Span("perfbench.request", Request);
      const double T0 = nowMs();
      FrameFuture F;
      {
        ScopedSpan Submit("lang.realize_async");
        F = Pipes[I].realizeAsync(P.Out, P.Params, Target::jit());
      }
      {
        ScopedSpan Wait("runtime.wait");
        F.wait();
      }
      S.RawMs = nowMs() - T0;
    }
    Out.push_back(S);
    Ctx.check(P.outputHash() == P.VerifiedHash,
              P.name() + " served output differs from the verified one");
  });

  std::vector<size_t> All(Classes.size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  const HostClock &C = Ctx.Clock;
  Rows R(C, Win.Samples, Classes.size());
  const int64_t N = int64_t(Win.Samples.size());
  reportGated(Ctx, R.gm(All, true), R.gm(All, false), R.gm(All, true, 0.99),
              R.gm(All, false, 0.99), R.opsPerSecond(true), R.opsPerSecond(false), N);
  Ctx.endToEnd("peak_rss_mb", peakRssMb(), "MB", 1);
  size_t Fewest = SIZE_MAX;
  for (const std::vector<double> &V : R.Norm)
    Fewest = std::min(Fewest, V.size());
  std::printf("serve_p50_ms = %.4f ms, serve_p99_ms = %.4f ms, serve_fps = "
              "%.2f frames/s (per-class percentiles, fewest samples in a "
              "class: %zu)\n",
              R.gm(All, true), R.gm(All, true, 0.99),
              R.opsPerSecond(true), Fewest);

  for (size_t I = 0; I < Classes.size(); ++I)
    Ctx.perLayer("serve." + Classes[I].A->Name + "." +
                     std::to_string(Classes[I].W) + "x" +
                     std::to_string(Classes[I].H) + ".p50_ms",
                 median(R.Norm[I]), "ms", int64_t(R.Norm[I].size()));
  if (!Ctx.Traced)
    return;
  reportOverhead(Ctx, Win, [&](const std::vector<Sample> &S) {
    return Rows(C, S, Classes.size()).gm(All, true);
  });
  reportCounters(Ctx, Win);

  // The lang layer's per-frame cost, back to back against the executable
  // it dispatches to: a warm Pipeline::compile (a cache hit), and
  // Pipeline::realize against Executable::run of the same frame.
  std::vector<double> HitUs, OverheadUs;
  for (size_t I = 1; I < Classes.size(); I += 2) {
    Program &P = Classes[I];
    Pipeline &Pipe = Pipes[I];
    std::vector<Sample> Runs;
    std::vector<double> Hit, Realize, Run;
    for (int K = 0; K < 40; ++K) {
      Ctx.Clock.maybeCalibrate();
      double T0 = nowMs();
      {
        ScopedSpan Span("lang.compile_hit");
        Pipe.compile(Target::jit());
      }
      Hit.push_back(nowMs() - T0);
      T0 = nowMs();
      {
        ScopedSpan Span("lang.realize");
        Pipe.realize(P.Out, P.Params, Target::jit());
      }
      Realize.push_back(nowMs() - T0);
      Sample S{int(I), 0, 1, Ctx.Clock.mark()};
      T0 = nowMs();
      {
        ScopedSpan Span("executable.run");
        P.run();
      }
      S.RawMs = nowMs() - T0;
      Run.push_back(S.RawMs);
      Runs.push_back(S);
    }
    Ctx.Clock.calibrate();
    Ctx.Clock.calibrate();
    HitUs.push_back(median(Hit) * 1000.0);
    OverheadUs.push_back((median(Realize) - median(Run)) * 1000.0);
    std::vector<double> Norm;
    for (const Sample &S : Runs)
      Norm.push_back(C.normalizedMs(S));
    Ctx.perLayer("frames." + P.name() + ".jit_ms", median(Norm), "ms",
                 int64_t(Norm.size()));
  }
  double Sum = 0;
  for (double V : OverheadUs)
    Sum += V;
  Ctx.perLayer("lang.compile_hit_us", median(HitUs), "us");
  Ctx.perLayer("lang.realize_overhead_us", Sum / double(OverheadUs.size()),
               "us");
}

//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &perLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> Catalog = [] {
    std::vector<std::pair<std::string, std::string>> C = {
        {"raw.setup_s", "s"},
        {"raw.primary_ms", "ms"},
        {"raw.secondary_ms", "ms"},
        {"raw.ops_per_s", "1/s"},
        {"host.calib_ms", "ms"},
        {"observe.bench_trace_overhead_pct", "%"},
        {"observe.exact_count_mismatches", "count"},
        {"transforms.lower_ms", "ms"},
        {"transforms.ir_nodes", "count"},
        {"analysis.bounds_cache_hits", "count"},
        {"analysis.bounds_cache_misses", "count"},
        {"codegen.emit_c_ms", "ms"},
        {"codegen.c_bytes", "B"},
        {"codegen.cc_ms", "ms"},
        {"vm.compile_ms", "ms"},
        {"vm.instrs", "count"},
        {"vm.loads_per_frame", "count"},
        {"vm.stores_per_frame", "count"},
        {"vm.peak_alloc_bytes", "B"},
        {"lang.compile_hit_us", "us"},
        {"lang.realize_overhead_us", "us"},
        {"lang.lowerings", "1/op"},
        {"lang.backend_compiles", "1/op"},
        {"lang.cache_hits", "1/op"},
        {"lang.rss_kb_per_compile", "KB"},
        {"runtime.async_jobs", "1/op"},
        {"runtime.chunks_per_frame", "1/op"},
        {"runtime.pool_hit_ratio", "ratio"},
        {"runtime.fresh_allocs_per_frame", "1/op"},
        {"runtime.pool_bytes_held", "B"},
        {"runtime.speedup_2t", "x"},
    };
    for (const Spec &S : frameSpecs(true))
      C.push_back({std::string("frames.") + S.first + "." + S.second +
                       ".jit_ms",
                   "ms"});
    for (const Spec &S : frameSpecs(false))
      C.push_back({std::string("frames.") + S.first + "." + S.second +
                       ".vm_ms",
                   "ms"});
    for (const char *A : ServeApps)
      for (const char *Sched : {"tuned", "breadth_first"})
        C.push_back({std::string("compile.") + A + "." + Sched + ".jit_ms",
                     "ms"});
    for (const char *A : FiveApps)
      for (const char *Sched : {"tuned", "breadth_first"})
        C.push_back({std::string("compile.") + A + "." + Sched + ".vm_ms",
                     "ms"});
    C.push_back({"compile.local_laplacian.tuned.vm_ms", "ms"});
    for (const char *A : ServeApps)
      for (const char *Size : {"256x192", "512x384"})
        C.push_back({std::string("serve.") + A + "." + Size + ".p50_ms",
                     "ms"});
    return C;
  }();
  return Catalog;
}

} // namespace pb
