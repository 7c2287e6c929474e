//===-- runtime/GpuSim.cpp -------------------------------------------------------=//

#include "runtime/GpuSim.h"
#include "observe/TraceRecorder.h"

using namespace halide;

void GpuSim::launch(int32_t Blocks, int MaxTasks, TaskChunkFn Body,
                    void *Closure, GpuCounters *Run) {
  Totals.count(Blocks);
  if (Run)
    Run->count(Blocks);
  const int64_t T0 = traceActive() ? traceNowNs() : 0;
  // Blocks are data parallel; run them on the host task scheduler, which
  // stands in for the SM array. (With one hardware core this degrades
  // gracefully to a serial sweep, preserving semantics.)
  parallelForChunks(0, Blocks, MaxTasks, Body, Closure);
  if (T0) {
    std::vector<TraceArg> Args;
    Args.emplace_back("blocks", int64_t(Blocks));
    traceComplete("gpu", "kernel_launch", T0, traceNowNs() - T0,
                  std::move(Args));
  }
}

GpuSim &halide::gpuSim() {
  static GpuSim Device;
  return Device;
}
