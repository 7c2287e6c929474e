//===-- runtime/Runtime.cpp -----------------------------------------------------=//

#include "runtime/Runtime.h"
#include "observe/TraceStream.h"
#include "runtime/BufferPool.h"
#include "runtime/GpuSim.h"

#include <cstdio>
#include <cstdlib>

using namespace halide;

void *halide::halideMalloc(int64_t Bytes) { return bufferPoolMalloc(Bytes); }

void halide::halideFree(void *Ptr) { bufferPoolFree(Ptr); }

namespace {

void vtableAbort(const char *Message) {
  std::fprintf(stderr, "pipeline aborted: %s\n", Message);
  std::fflush(stderr);
  std::abort();
}

void vtableGpuLaunch(const RuntimeVTable *Rt, int32_t Blocks,
                     TaskChunkFn Body, void *Closure) {
  gpuSim().launch(Blocks, Rt->MaxTasks, Body, Closure, Rt->GpuRun);
}

void vtableEvent(int32_t Kind, int32_t StageId, int32_t TypeCode,
                 int32_t Lanes, const int32_t *Coords, int32_t NumCoords,
                 const uint64_t *Bits) {
  observeEvent(TraceEventKind(Kind), StageId, uint8_t(TypeCode), Lanes,
               Coords, NumCoords, Bits);
}

} // namespace

const RuntimeVTable *halide::runtimeVTable() {
  static const RuntimeVTable Table = {
      halideMalloc, halideFree,  parallelForChunks,  vtableGpuLaunch,
      vtableAbort,  vtableEvent, /*GpuRun=*/nullptr, /*MaxTasks=*/0,
  };
  return &Table;
}
