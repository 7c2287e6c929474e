//===-- bench/bench_runner.cpp - Perf-baseline runner ---------------------===//
//
// Times every registered app under each of its packaged schedules through
// the selected backend and (with --json <path>) writes the results as a
// JSON perf baseline — time-per-pixel per app per schedule — that future
// optimization PRs benchmark themselves against (BENCH_seed.json at the
// repo root holds the seed trajectory).
//
// --threads=N sets both the task scheduler's pool size and every run's
// thread request, and is recorded in every row. A built-in threads sweep
// additionally times the parallel (tuned) schedules of blur and
// local_laplacian on the bytecode VM serially and at 4 threads, so the
// parallel-runtime speedup is part of the tracked trajectory
// (--no-thread-sweep skips it). A thread request belongs to the run, so
// the sweep's rows share one compiled executable per program, and the
// JSON's backend_compiles (Pipeline::compileCounters) counts one backend
// compile per distinct (app, schedule, backend).
//
// --serve switches to throughput mode: N client threads (--serve-clients)
// each submit M frames (--serve-frames) of every app's tuned schedule
// through Pipeline::realizeAsync against the shared task scheduler, and
// the rows report aggregate frames/sec plus p50/p99 per-frame latency —
// the serving trajectory rather than the single-frame one.
//
// Observability (see README's Observability section): --profile compiles
// with Target::Profile and prints the per-stage profiler report plus the
// unified metrics snapshot after the runs; --trace <path> records a
// Chrome trace-event JSON of the whole bench (load it in
// chrome://tracing or https://ui.perfetto.dev); --value-trace <path>
// compiles with Target::Trace and streams every load/store/realization
// of the runs into a binary value trace (README "Value tracing") that
// trace_analyzer replays into per-stage locality reports. --app <name>
// restricts the run to one registered app. Requesting more --threads
// than the host has cores warns and is recorded in the JSON baseline
// (threads_oversubscribed), since such rows time contention, not
// speedup. When BENCH_seed.json is readable and records a different
// host_threads than this machine's, a warning is printed and the
// mismatch lands in the JSON output (baseline_host_threads_mismatch) —
// rows timed on different core counts are not comparable.
//
// Every single-frame row records the schedule's requested vector width
// (vector_width in the JSON; 1 = scalar), so SIMD regressions show up in
// the baseline. --novec demotes each schedule's vectorized loops to
// serial before compiling (splits intact — the same loop structure minus
// the lanes), and --jit-flags are split on whitespace and appended to
// the C backend's host-compiler arguments, so they win (no shell runs:
// quotes and other shell syntax reach the compiler as they are).
// Together they isolate the emitted SIMD's contribution, e.g.
//   bench_runner --backend=jit --app=blur [--novec]
//                --jit-flags "-fno-tree-vectorize -fno-tree-slp-vectorize"
//
// Usage: bench_runner [--backend vm|jit] [--threads N]
//                     [--json <path>] [--width W] [--height H]
//                     [--iters N] [--no-thread-sweep] [--novec]
//                     [--jit-flags "<flag> <flag>..."] [--app <name>]
//                     [--serve] [--serve-clients N] [--serve-frames M]
//                     [--profile] [--trace <path>] [--value-trace <path>]
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "metrics/ScheduleMetrics.h"
#include "observe/MetricsRegistry.h"
#include "observe/Profiler.h"
#include "observe/TraceRecorder.h"
#include "observe/TraceStream.h"
#include "runtime/TaskScheduler.h"
#include "support/DiffTest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace halide;

namespace {

struct BenchRow {
  std::string App;
  std::string Schedule;
  std::string BackendName;
  int Threads = 1;
  int VecWidth = 1;
  int Width = 0, Height = 0;
  double Ms = 0;
  double NsPerPixel = 0;
};

/// --novec: after each schedule is applied, demote its vectorized loops
/// to serial (splits intact). Comparing a run against its --novec twin
/// isolates the SIMD contribution of an otherwise identical schedule.
bool ScalarizeSchedules = false;

void runOne(App &A, const char *ScheduleName,
            const std::function<void()> &Apply, const Target &T,
            int Threads, int W, int H, int Iters,
            std::vector<BenchRow> *Rows) {
  if (!Apply)
    return;
  Apply();
  if (ScalarizeSchedules)
    scalarizeVectorLoops(A.Output.function());
  std::shared_ptr<const Executable> Exe = Pipeline(A.Output).compile(T);
  ParamBindings Params = A.MakeInputs(W, H);
  std::shared_ptr<void> Keep;
  RawBuffer Out = makeAppOutput(A, W, H, &Keep);
  Params.bind(A.Output.name(), Out);
  double Ms = benchmarkMs(*Exe, Params, Iters, Threads);
  BenchRow Row;
  Row.App = A.Name;
  Row.Schedule = ScheduleName;
  Row.BackendName = backendName(T.TargetBackend);
  Row.Threads = Threads > 0 ? Threads : taskSchedulerThreads();
  Row.VecWidth = scheduleVectorWidth(A.Output.function());
  Row.Width = W;
  Row.Height = H;
  Row.Ms = Ms;
  Row.NsPerPixel = Ms * 1e6 / (double(W) * H);
  Rows->push_back(Row);
  std::printf(
      "%-16s %-14s %-11s t%-2d v%-2d %4dx%-4d %9.3f ms  %8.3f ns/px\n",
      A.Name.c_str(), ScheduleName, Row.BackendName.c_str(), Row.Threads,
      Row.VecWidth, W, H, Ms, Row.NsPerPixel);
}

struct ServeRow {
  std::string App;
  std::string Schedule;
  std::string BackendName;
  int Threads = 1;
  int Clients = 0, FramesPerClient = 0;
  int Width = 0, Height = 0;
  double Fps = 0;
  double P50Ms = 0, P99Ms = 0;
};

double percentileMs(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = size_t(P * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

/// Throughput mode for one app: \p Clients client threads each realize
/// \p FramesPer frames asynchronously (alternating request priorities,
/// waiting on each frame's future before submitting the next — a closed
/// per-client loop, like a serving tier with per-connection pipelining of
/// depth one). Compile and one warmup frame happen before the clock
/// starts, so the row measures steady-state serving: cached executable,
/// warm buffer pool.
void runServe(App &A, const Target &T, int W, int H, int Clients,
              int FramesPer, std::vector<ServeRow> *Rows) {
  const bool Tuned = A.ScheduleTuned != nullptr;
  const std::function<void()> &Apply =
      Tuned ? A.ScheduleTuned : A.ScheduleBreadthFirst;
  if (!Apply)
    return;
  Apply();
  Pipeline Pipe(A.Output);
  ParamBindings Params = A.MakeInputs(W, H);
  {
    std::shared_ptr<void> Keep;
    RawBuffer Out = makeAppOutput(A, W, H, &Keep);
    Pipe.realizeAsync(Out, Params, T).wait(); // compile + warm the pools
  }

  std::vector<std::vector<double>> Latencies;
  Latencies.resize(size_t(Clients));
  const auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> ClientThreads;
  for (int C = 0; C < Clients; ++C) {
    ClientThreads.emplace_back([&, C] {
      std::shared_ptr<void> Keep;
      RawBuffer Out = makeAppOutput(A, W, H, &Keep);
      for (int F = 0; F < FramesPer; ++F) {
        const auto T0 = std::chrono::steady_clock::now();
        Pipe.realizeAsync(Out, Params, T, /*Priority=*/C % 2).wait();
        Latencies[size_t(C)].push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - T0)
                .count());
      }
    });
  }
  for (std::thread &Th : ClientThreads)
    Th.join();
  const double WallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  std::vector<double> All;
  for (const std::vector<double> &L : Latencies)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());

  ServeRow Row;
  Row.App = A.Name;
  Row.Schedule = Tuned ? "tuned" : "breadth_first";
  Row.BackendName = backendName(T.TargetBackend);
  Row.Threads = T.NumThreads > 0 ? T.NumThreads : taskSchedulerThreads();
  Row.Clients = Clients;
  Row.FramesPerClient = FramesPer;
  Row.Width = W;
  Row.Height = H;
  Row.Fps = WallSec > 0 ? double(All.size()) / WallSec : 0;
  Row.P50Ms = percentileMs(All, 0.50);
  Row.P99Ms = percentileMs(All, 0.99);
  Rows->push_back(Row);
  std::printf("%-16s %-14s %-11s t%-2d %dx%-2d clients  %8.2f fps  "
              "p50 %8.3f ms  p99 %8.3f ms\n",
              A.Name.c_str(), Row.Schedule.c_str(), Row.BackendName.c_str(),
              Row.Threads, Clients, FramesPer, Row.Fps, Row.P50Ms,
              Row.P99Ms);
}

/// The threads sweep: the two apps whose tuned schedules carry the
/// paper's parallel strategies, timed on the VM serially and at 4
/// threads. The scheduler pool is resized around each row so the thread
/// request measures real workers, then restored.
void runThreadsSweep(std::vector<App> &Apps, int W, int H, int Iters,
                     std::vector<BenchRow> *Rows) {
  const int Before = taskSchedulerThreads();
  for (App &A : Apps) {
    if (A.Name != "blur" && A.Name != "local_laplacian")
      continue;
    for (int N : {1, 4}) {
      setTaskSchedulerThreads(N);
      runOne(A, "tuned", A.ScheduleTuned, Target::vm(), N, W, H, Iters,
             Rows);
    }
  }
  setTaskSchedulerThreads(Before);
}

/// host_threads recorded in a baseline JSON (0 when absent/unreadable).
int baselineHostThreads(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return 0;
  std::stringstream SS;
  SS << In.rdbuf();
  const std::string Text = SS.str();
  size_t Pos = Text.find("\"host_threads\"");
  if (Pos == std::string::npos)
    return 0;
  Pos = Text.find(':', Pos);
  if (Pos == std::string::npos)
    return 0;
  return std::atoi(Text.c_str() + Pos + 1);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  Target T = Target::jit();
  int W = 512, H = 384, Iters = 5, Threads = 0;
  bool ThreadSweep = true;
  bool Serve = false;
  int ServeClients = 4, ServeFrames = 16;
  bool Profile = false;
  std::string TracePath;
  std::string ValueTracePath;
  std::string AppFilter;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string BackendText;
    if (Arg.rfind("--backend=", 0) == 0)
      BackendText = Arg.substr(std::strlen("--backend="));
    else if (Arg == "--backend" && I + 1 < Argc)
      BackendText = Argv[++I];

    if (!BackendText.empty()) {
      if (!Target::parse(BackendText, &T)) {
        std::fprintf(stderr,
                     "unknown backend '%s' (try vm or jit)\n",
                     BackendText.c_str());
        return 2;
      }
    } else if (Arg.rfind("--threads=", 0) == 0)
      Threads = std::atoi(Arg.c_str() + std::strlen("--threads="));
    else if (Arg == "--threads" && I + 1 < Argc)
      Threads = std::atoi(Argv[++I]);
    else if (Arg == "--json" && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (Arg == "--width" && I + 1 < Argc)
      W = std::atoi(Argv[++I]);
    else if (Arg == "--height" && I + 1 < Argc)
      H = std::atoi(Argv[++I]);
    else if (Arg == "--iters" && I + 1 < Argc)
      Iters = std::atoi(Argv[++I]);
    else if (Arg == "--no-thread-sweep")
      ThreadSweep = false;
    else if (Arg == "--novec")
      ScalarizeSchedules = true;
    else if (Arg.rfind("--jit-flags=", 0) == 0)
      T = T.withJitFlags(Arg.substr(std::strlen("--jit-flags=")));
    else if (Arg == "--jit-flags" && I + 1 < Argc)
      T = T.withJitFlags(Argv[++I]);
    else if (Arg == "--serve")
      Serve = true;
    else if (Arg == "--serve-clients" && I + 1 < Argc)
      ServeClients = std::atoi(Argv[++I]);
    else if (Arg == "--serve-frames" && I + 1 < Argc)
      ServeFrames = std::atoi(Argv[++I]);
    else if (Arg == "--profile")
      Profile = true;
    else if (Arg.rfind("--trace=", 0) == 0)
      TracePath = Arg.substr(std::strlen("--trace="));
    else if (Arg == "--trace" && I + 1 < Argc)
      TracePath = Argv[++I];
    else if (Arg.rfind("--value-trace=", 0) == 0)
      ValueTracePath = Arg.substr(std::strlen("--value-trace="));
    else if (Arg == "--value-trace" && I + 1 < Argc)
      ValueTracePath = Argv[++I];
    else if (Arg.rfind("--app=", 0) == 0)
      AppFilter = Arg.substr(std::strlen("--app="));
    else if (Arg == "--app" && I + 1 < Argc)
      AppFilter = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: %s [--backend vm|jit] [--threads N] "
                   "[--json <path>] [--width W] [--height H] [--iters N] "
                   "[--no-thread-sweep] [--novec] "
                   "[--jit-flags \"<flag> <flag>...\"] "
                   "[--app <name>] [--serve] "
                   "[--serve-clients N] [--serve-frames M] [--profile] "
                   "[--trace <path>] [--value-trace <path>]\n",
                   Argv[0]);
      return 2;
    }
  }

  const int HostThreads = int(std::thread::hardware_concurrency());
  const bool Oversubscribed =
      Threads > 0 && HostThreads > 0 && Threads > HostThreads;
  if (Oversubscribed)
    std::fprintf(stderr,
                 "warning: --threads %d exceeds this host's %d hardware "
                 "threads; rows will time scheduling contention, not "
                 "parallel speedup\n",
                 Threads, HostThreads);

  const int BaselineThreads = baselineHostThreads("BENCH_seed.json");
  const bool BaselineMismatch =
      BaselineThreads > 0 && HostThreads > 0 && BaselineThreads != HostThreads;
  if (BaselineMismatch)
    std::fprintf(stderr,
                 "warning: BENCH_seed.json was measured on a host with %d "
                 "hardware threads, this host has %d; absolute times are "
                 "not comparable against that baseline\n",
                 BaselineThreads, HostThreads);

  if (Threads > 0)
    setTaskSchedulerThreads(Threads);
  // Every run gets the thread request: --threads, else a "-threads<N>"
  // the --backend text named.
  const int Request = Threads > 0 ? Threads : T.NumThreads;
  T = T.withThreads(0);
  if (Profile)
    T = T.withProfile();
  if (!TracePath.empty()) {
    traceSetThreadName("main");
    traceStart();
  }
  if (!ValueTracePath.empty()) {
    T = T.withTrace();
    if (!traceStreamStart(ValueTracePath)) {
      std::fprintf(stderr, "cannot write %s\n", ValueTracePath.c_str());
      return 1;
    }
  }

  std::vector<BenchRow> Rows;
  std::vector<ServeRow> ServeRows;
  std::vector<App> Apps = paperApps();
  Apps.push_back(makeHistogramEqualizeApp());
  if (!AppFilter.empty()) {
    bool Known = false;
    for (App &A : Apps)
      Known = Known || A.Name == AppFilter;
    if (!Known) {
      std::fprintf(stderr, "unknown app '%s'\n", AppFilter.c_str());
      return 2;
    }
  }
  if (Serve) {
    for (App &A : Apps) {
      if (!AppFilter.empty() && A.Name != AppFilter)
        continue;
      runServe(A, T.withThreads(Request), W, H, ServeClients, ServeFrames,
               &ServeRows);
    }
  } else {
    for (App &A : Apps) {
      if (!AppFilter.empty() && A.Name != AppFilter)
        continue;
      runOne(A, "breadth_first", A.ScheduleBreadthFirst, T, Request, W, H,
             Iters, &Rows);
      runOne(A, "tuned", A.ScheduleTuned, T, Request, W, H, Iters, &Rows);
      runOne(A, "gpu_sim", A.ScheduleGpu, T, Request, W, H, Iters, &Rows);
    }
    if (ThreadSweep && AppFilter.empty())
      runThreadsSweep(Apps, W, H, Iters, &Rows);
  }

  if (!TracePath.empty()) {
    traceStop();
    if (traceWriteFile(TracePath))
      std::printf("wrote trace to %s\n", TracePath.c_str());
    else {
      std::fprintf(stderr, "cannot write %s\n", TracePath.c_str());
      return 1;
    }
  }
  if (!ValueTracePath.empty()) {
    traceStreamStop();
    TraceStreamStats TS = traceStreamStats();
    std::printf("wrote value trace to %s (%lld events, %lld dropped, "
                "%lld bytes)\n",
                ValueTracePath.c_str(), (long long)TS.EventsEmitted,
                (long long)TS.EventsDropped, (long long)TS.BytesWritten);
  }
  if (Profile) {
    std::printf("\n%s\n", profilerReport().str().c_str());
    std::printf("%s", metricsSnapshot().str().c_str());
  }

  if (!JsonPath.empty()) {
    std::ofstream Json(JsonPath);
    if (!Json) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    // host_threads records the runner's core count: baselines from
    // different machines are not comparable, and the field makes that
    // visible in the artifact instead of folklore.
    Json << "{\n  \"frame\": {\"width\": " << W << ", \"height\": " << H
         << "},\n  \"iters\": " << Iters << ",\n  \"host_threads\": "
         << std::thread::hardware_concurrency()
         << ",\n  \"threads_oversubscribed\": "
         << (Oversubscribed ? "true" : "false")
         << ",\n  \"baseline_host_threads\": " << BaselineThreads
         << ",\n  \"baseline_host_threads_mismatch\": "
         << (BaselineMismatch ? "true" : "false") << ",\n  \"backend\": \""
         << backendName(T.TargetBackend) << "\",\n  \"backend_compiles\": "
         << Pipeline::compileCounters().BackendCompiles
         << ",\n  \"results\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const BenchRow &R = Rows[I];
      Json << "    {\"app\": \"" << R.App << "\", \"schedule\": \""
           << R.Schedule << "\", \"backend\": \"" << R.BackendName
           << "\", \"threads\": " << R.Threads
           << ", \"vector_width\": " << R.VecWidth
           << ", \"ms\": " << R.Ms
           << ", \"ns_per_pixel\": " << R.NsPerPixel << "}"
           << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Json << "  ],\n  \"serve_results\": [\n";
    for (size_t I = 0; I < ServeRows.size(); ++I) {
      const ServeRow &R = ServeRows[I];
      Json << "    {\"app\": \"" << R.App << "\", \"schedule\": \""
           << R.Schedule << "\", \"backend\": \"" << R.BackendName
           << "\", \"threads\": " << R.Threads
           << ", \"clients\": " << R.Clients
           << ", \"frames_per_client\": " << R.FramesPerClient
           << ", \"fps\": " << R.Fps << ", \"p50_ms\": " << R.P50Ms
           << ", \"p99_ms\": " << R.P99Ms << "}"
           << (I + 1 < ServeRows.size() ? "," : "") << "\n";
    }
    Json << "  ]\n}\n";
    std::printf("wrote %zu rows to %s\n", Rows.size() + ServeRows.size(),
                JsonPath.c_str());
  }
  return 0;
}
