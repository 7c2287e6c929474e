//===-- runtime/Runtime.cpp -----------------------------------------------------=//

#include "runtime/Runtime.h"
#include "observe/TraceStream.h"
#include "runtime/BufferPool.h"
#include "runtime/GpuSim.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace halide;

bool ParamBindings::lookupInt(const std::string &Name, int64_t *Out) const {
  auto IntIt = IntScalars.find(Name);
  if (IntIt != IntScalars.end()) {
    *Out = IntIt->second;
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

bool ParamBindings::lookupFloat(const std::string &Name, double *Out) const {
  auto It = FloatScalars.find(Name);
  if (It == FloatScalars.end())
    return false;
  *Out = It->second;
  return true;
}

int64_t halide::checkBoundaryBuffer(const std::string &Name,
                                    const RawBuffer &Raw,
                                    const Type &ElemType) {
  user_assert(Raw.defined()) << "buffer " << Name << " is unbound";
  user_assert(Raw.ElemType == ElemType)
      << "buffer " << Name << " has element type " << Raw.ElemType.str()
      << ", pipeline expects " << ElemType.str();
  user_assert(Raw.Dim[0].Stride == 1)
      << "buffer " << Name << " must be dense in dimension 0 (stride 1)";
  int64_t MaxIndex = 0;
  for (int D = 0; D < Raw.Dimensions; ++D)
    MaxIndex += int64_t(Raw.Dim[D].Extent - 1) * Raw.Dim[D].Stride;
  return MaxIndex + 1;
}

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
