//===-- runtime/Runtime.cpp -----------------------------------------------------=//

#include "runtime/Runtime.h"
#include "observe/TraceStream.h"
#include "runtime/BufferPool.h"
#include "runtime/GpuSim.h"
#include "runtime/TaskScheduler.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace halide;

bool ParamBindings::lookupScalar(const std::string &Name, double *Out) const {
  auto IntIt = IntScalars.find(Name);
  if (IntIt != IntScalars.end()) {
    *Out = double(IntIt->second);
    return true;
  }
  auto FloatIt = FloatScalars.find(Name);
  if (FloatIt != FloatScalars.end()) {
    *Out = FloatIt->second;
    return true;
  }
  // Buffer metadata: "<buf>.min.<d>" etc.
  for (const char *Suffix : {".min.", ".extent.", ".stride."}) {
    size_t Pos = Name.rfind(Suffix);
    if (Pos == std::string::npos)
      continue;
    auto BufIt = Buffers.find(Name.substr(0, Pos));
    if (BufIt == Buffers.end())
      continue;
    int D = std::atoi(Name.c_str() + Pos + std::strlen(Suffix));
    if (D < 0 || D >= MaxBufferDims)
      return false;
    const BufferDim &Dim = BufIt->second.Dim[D];
    // Dimensions beyond the buffer's rank read as a degenerate [0, 1).
    if (D >= BufIt->second.Dimensions) {
      *Out = (std::strncmp(Suffix, ".extent.", 8) == 0) ? 1 : 0;
      return true;
    }
    if (std::strncmp(Suffix, ".min.", 5) == 0)
      *Out = Dim.Min;
    else if (std::strncmp(Suffix, ".extent.", 8) == 0)
      *Out = Dim.Extent;
    else
      *Out = Dim.Stride;
    return true;
  }
  return false;
}

void *halide::halideMalloc(int64_t Bytes) { return bufferPoolMalloc(Bytes); }

void halide::halideFree(void *Ptr) { bufferPoolFree(Ptr); }

namespace {

void vtableAbort(const char *Message) {
  std::fprintf(stderr, "pipeline aborted: %s\n", Message);
  std::fflush(stderr);
  std::abort();
}

void vtableParFor(int32_t Min, int32_t Extent,
                  void (*Body)(int32_t, void *), void *Closure) {
  parallelFor(Min, Extent, Body, Closure);
}

void vtableGpuLaunch(int32_t Blocks, void (*Body)(int32_t, void *),
                     void *Closure) {
  gpuSim().launch(Blocks, Body, Closure);
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
      halideMalloc, halideFree,  vtableParFor, vtableGpuLaunch,
      vtableAbort,  vtableEvent,
  };
  return &Table;
}
