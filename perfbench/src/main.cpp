//===-- perfbench/src/main.cpp - The benchmark binary ---------------------===//
//
// Usage: perfbench --workload <frames|compile|serve-mix>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <chrome-trace.json>]
//
// Runs one workload and prints a human-readable report, a COUNTS line with
// the exact counts of the run, and a RESULT line: one JSON object with
// correct/attempted/failed and the metrics (end-to-end when untraced,
// per-layer when traced). perfbench/run.py builds this binary, runs it and
// turns the RESULT line into the benchmark's final output.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "lang/Pipeline.h"
#include "runtime/TaskScheduler.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <string>

// The C backend's JIT makes its scratch directory with
// mkdtemp("/tmp/hl_jit_XXXXXX"). The benchmark must write only inside its
// checkout, so when PERFBENCH_TMP names a (short, relative) directory the
// template is rewritten to "<PERFBENCH_TMP>/XXXXXX" before the real mkdtemp
// runs. A rewrite that would not fit the caller's buffer is skipped.
extern "C" char *mkdtemp(char *Template) {
  using MkdtempFn = char *(*)(char *);
  static const MkdtempFn Real =
      reinterpret_cast<MkdtempFn>(dlsym(RTLD_NEXT, "mkdtemp"));
  const char *Dir = std::getenv("PERFBENCH_TMP");
  const size_t Len = std::strlen(Template);
  if (Dir && std::strncmp(Template, "/tmp/", 5) == 0 && Len >= 6) {
    const std::string Rewritten =
        std::string(Dir) + "/" + (Template + Len - 6);
    if (Rewritten.size() <= Len)
      std::memcpy(Template, Rewritten.c_str(), Rewritten.size() + 1);
  }
  return Real(Template);
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload frames|compile|serve-mix "
               "--seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n");
  std::exit(2);
}

void printJsonMetric(bool First, const pb::Metric &M) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              First ? "" : ", ", M.Name.c_str(), M.Value, M.Unit.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  pb::nowMs(); // start of the benchmark's clock: set-up is timed from here
  pb::RunContext Ctx;
  std::string TraceOut;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Ctx.Workload = Value;
    else if (Flag == "--seed")
      Ctx.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Ctx.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      Ctx.Traced = Value == "1";
    else if (Flag == "--trace-out")
      TraceOut = Value;
    else
      usage();
  }
  if (Argc % 2 == 0 || Ctx.Seconds <= 0)
    usage();
  Ctx.Rng.seed(Ctx.Seed);
  std::printf("perfbench workload %s seed %llu seconds %g trace %d\n",
              Ctx.Workload.c_str(), (unsigned long long)Ctx.Seed,
              Ctx.Seconds, Ctx.Traced ? 1 : 0);

  // Every gated timing runs on this thread: parallel work on a shared
  // host is too noisy to gate (README.md). The process stays on one CPU,
  // and the host compiler it spawns inherits that CPU, so the calibration
  // passes see the same contention as every sample, cold compiles
  // included.
  halide::setTaskSchedulerThreads(1);
  pb::pinToOneCpu(true);

  if (Ctx.Workload == "frames")
    pb::runFrames(Ctx);
  else if (Ctx.Workload == "compile")
    pb::runCompile(Ctx);
  else if (Ctx.Workload == "serve-mix")
    pb::runServeMix(Ctx);
  else
    usage();

  for (const pb::Metric &M : Ctx.EndToEnd)
    std::printf("metric %-36s %14.6g %-6s samples %lld\n", M.Name.c_str(),
                M.Value, M.Unit.c_str(), (long long)M.Samples);
  for (const pb::Metric &M : Ctx.PerLayer)
    std::printf("layer  %-36s %14.6g %-6s samples %lld\n", M.Name.c_str(),
                M.Value, M.Unit.c_str(), (long long)M.Samples);

  std::printf("COUNTS {");
  bool First = true;
  for (const auto &[Name, Value] : Ctx.ExactCounts) {
    std::printf("%s\"%s\": %lld", First ? "" : ", ", Name.c_str(),
                (long long)Value);
    First = false;
  }
  std::printf("}\n");

  if (Ctx.Traced) {
    Ctx.perLayer("observe.exact_count_mismatches",
                 double(Ctx.CountMismatches), "count");
    if (!TraceOut.empty()) {
      if (pb::spans().writeChromeTrace(TraceOut))
        std::printf("wrote %zu spans to %s\n", pb::spans().size(),
                    TraceOut.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     TraceOut.c_str());
    }
  }

  // The RESULT line carries every metric of the catalog for this mode; a
  // per-layer metric this workload does not reach reads 0.
  std::printf("RESULT {\"correct\": %s, \"attempted\": %lld, \"failed\": "
              "%lld, \"metrics\": {",
              Ctx.Failed == 0 && Ctx.Attempted > 0 ? "true" : "false",
              (long long)Ctx.Attempted, (long long)Ctx.Failed);
  First = true;
  if (!Ctx.Traced) {
    for (const pb::Metric &M : Ctx.EndToEnd) {
      printJsonMetric(First, M);
      First = false;
    }
  } else {
    for (const auto &[Name, Unit] : pb::perLayerCatalog()) {
      pb::Metric M{Name, 0, Unit, 0};
      for (const pb::Metric &Got : Ctx.PerLayer)
        if (Got.Name == Name) {
          M.Value = Got.Value;
          break;
        }
      printJsonMetric(First, M);
      First = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  // Cached lowerings hold Functions whose destructors unregister them from
  // the library's Function registry; drop the cache while that registry
  // is still alive rather than during static destruction.
  halide::Pipeline::clearCompileCache();
  return 0;
}
