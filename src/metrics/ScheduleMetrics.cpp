//===-- metrics/ScheduleMetrics.cpp ----------------------------------------------=//

#include "metrics/ScheduleMetrics.h"
#include "codegen/Executable.h"
#include "observe/TraceStream.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include <unistd.h>

using namespace halide;

namespace {

/// Figure 3's max reuse distance, replayed from a serial value trace: a
/// clock ticks once per load or store lane of any buffer, each stored
/// element is stamped with the clock, and a load of a stamped element
/// measures the ticks since its last store. A buffer's stamps reset at
/// each of its Begin events (one per realization).
int64_t maxReuseDistance(const std::vector<TraceEvent> &Events) {
  std::map<uint16_t, std::vector<int64_t>> LastStore; // per stage id
  int64_t Clock = 0, Max = 0;
  for (const TraceEvent &E : Events) {
    std::vector<int64_t> &Stamps = LastStore[E.StageId];
    if (E.Kind == TraceEventKind::TraceBegin)
      Stamps.clear();
    if (E.Kind != TraceEventKind::TraceLoad &&
        E.Kind != TraceEventKind::TraceStore)
      continue;
    for (int32_t Coord : E.Coords) {
      size_t I = size_t(Coord);
      if (E.Kind == TraceEventKind::TraceStore) {
        if (I >= Stamps.size())
          Stamps.resize(I + 1, -1);
        Stamps[I] = Clock;
      } else if (I < Stamps.size() && Stamps[I] >= 0) {
        Max = std::max(Max, Clock - Stamps[I]);
      }
      ++Clock;
    }
  }
  return Max;
}

} // namespace

StrategyMetrics halide::analyzeStrategy(const std::string &Name,
                                        LoweredPipeline &P,
                                        const ParamBindings &Params,
                                        int64_t BreadthFirstOps) {
  // One traced, serial run yields both the counters and the event stream
  // the reuse distance is replayed from.
  const std::string Path = tempDirectory() + "/halide_metrics_" +
                           std::to_string(getpid()) + ".bin";
  user_assert(traceStreamStart(Path))
      << "analyzeStrategy: cannot open a value trace at " << Path
      << " (is another trace stream active?)";
  ExecutionStats Stats;
  makeExecutable(P, Target::vm().withTrace())
      ->run(Params, &Stats, /*NumThreads=*/1);
  traceStreamStop();
  std::vector<TraceEvent> Events;
  std::string Error;
  const bool Read = readTraceFile(Path, &Events, &Error);
  std::remove(Path.c_str());
  internal_assert(Read) << Error;
  internal_assert(traceStreamStats().EventsDropped == 0)
      << "analyzeStrategy: the value trace hit HALIDE_TRACE_MAX_MB";

  StrategyMetrics M;
  M.StrategyName = Name;
  M.Span = std::max<int64_t>(Stats.ParallelIterations, 1);
  M.MaxReuseDistance = maxReuseDistance(Events);
  M.PeakMemoryBytes = Stats.PeakAllocationBytes;
  M.MemoryOps = Stats.totalStores();
  for (const auto &[Buf, Count] : Stats.LoadsPerBuffer)
    M.MemoryOps += Count;
  if (BreadthFirstOps > 0)
    M.WorkAmplification = double(M.MemoryOps) / double(BreadthFirstOps);
  return M;
}

double halide::benchmarkMs(const Executable &Exe,
                           const ParamBindings &Params, int Iters,
                           int NumThreads) {
  internal_assert(Iters >= 1);
  // Warm-up run (page faults, thread pool spin-up).
  Exe.run(Params, nullptr, NumThreads);
  std::vector<double> Times;
  Times.reserve(size_t(Iters));
  for (int I = 0; I < Iters; ++I) {
    auto Start = std::chrono::steady_clock::now();
    Exe.run(Params, nullptr, NumThreads);
    auto End = std::chrono::steady_clock::now();
    Times.push_back(
        std::chrono::duration<double, std::milli>(End - Start).count());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}
